"""Analytical size/cycle model and its published golden values."""

import pytest

from bingcn.efficiency import (
    ArchSpec,
    GraphStats,
    acceleration_ratios,
    build_report,
    cycle_ops,
    data_size_bits,
    format_size,
    model_size_bits,
    param_compression_ratio,
)

CORA = GraphStats(nodes=2708, edges=5429, features=1433)
CORA_WIDTHS = (1433, 64, 7)


class TestClosedForms:
    def test_param_compression_at_32(self):
        assert param_compression_ratio(32) == pytest.approx(16.0)

    def test_param_compression_below_asymptote(self):
        for d in (1, 10, 100, 10_000, 10_000_000):
            assert param_compression_ratio(d) < 32.0

    def test_data_compression_values(self):
        def ratio(d):
            report = build_report((d, 2), GraphStats(nodes=7, edges=0, features=d))
            return report["ratios"]["data_compression"]

        assert ratio(32) == pytest.approx(16.0)
        assert ratio(1) == pytest.approx(32.0 / 33.0)
        assert ratio(1433) == pytest.approx(31.30, abs=5e-3)

    def test_feature_extraction_speedups(self):
        s_fe_1433, _ = acceleration_ratios(1433, 0.0)
        s_fe_64, _ = acceleration_ratios(64, 0.0)
        assert 58.5 <= s_fe_1433 <= 59.0
        assert 21.0 <= s_fe_64 <= 21.5

    def test_full_ratio_between_one_and_fe(self):
        for d_in in (8, 64, 1433):
            for deg in (0.5, 4.0, 50.0):
                s_fe, s_full = acceleration_ratios(d_in, deg)
                assert 1.0 < s_full < s_fe

    def test_full_equals_fe_at_degree_zero(self):
        for d_in in (1, 64, 1433):
            s_fe, s_full = acceleration_ratios(d_in, 0.0)
            assert s_full == pytest.approx(s_fe)

    def test_full_approaches_one_as_degree_grows(self):
        _, s_full = acceleration_ratios(64, 1e9)
        assert s_full == pytest.approx(1.0, abs=1e-5)


class TestCycleOps:
    def test_cora_float_golden(self):
        arch = ArchSpec.full_float(CORA_WIDTHS)
        assert cycle_ops(arch, CORA) == 249_954_739

    def test_cora_binary_golden(self):
        arch = ArchSpec.full_binary(CORA_WIDTHS)
        assert cycle_ops(arch, CORA) == 4_669_515

    def test_cora_acceleration(self):
        ratio = cycle_ops(ArchSpec.full_float(CORA_WIDTHS), CORA) / cycle_ops(
            ArchSpec.full_binary(CORA_WIDTHS), CORA)
        assert ratio == pytest.approx(53.5, abs=0.1)

    def test_non_divisible_term_rounds_up(self):
        # one node, 65 x 1 layer: 65/64 binary-ops cycles must cost 2
        stats = GraphStats(nodes=1, edges=0, features=65)
        arch = ArchSpec.full_binary((65, 1))
        assert cycle_ops(arch, stats) == 2 + 2 * 1 * 1

    def test_zero_layers_is_zero(self):
        with pytest.raises(ValueError):
            ArchSpec(widths=(5,), binarized=())


class TestSizes:
    def test_cora_model_bits(self):
        float_bits, _ = model_size_bits(ArchSpec.full_float(CORA_WIDTHS))
        _, binary_bits = model_size_bits(ArchSpec.full_binary(CORA_WIDTHS))
        assert float_bits == 2_949_120
        assert binary_bits == 94_432
        assert float_bits / binary_bits == pytest.approx(31.2, abs=0.1)

    def test_cora_data_bits(self):
        # 32 * 2708 * 1433 and 2708 * 1433 + 32 * 2708, both exact
        float_bits, binary_bits = data_size_bits(CORA)
        assert float_bits == 124_178_048
        assert binary_bits == 3_967_220
        assert float_bits / binary_bits == pytest.approx(31.30, abs=5e-3)

    def test_degenerate_single_cell(self):
        stats = GraphStats(nodes=1, edges=0, features=1)
        arch_f = ArchSpec.full_float((1, 1))
        arch_b = ArchSpec.full_binary((1, 1))
        assert model_size_bits(arch_f)[0] == 32
        assert model_size_bits(arch_b)[1] == 33  # ratio < 1 is legal here
        assert data_size_bits(stats) == (32, 33)

    def test_format_size_matches_published_style(self):
        assert format_size(2_949_120) == "360K"
        assert format_size(94_432, unit="K") == "11.53K"
        assert format_size(124_177_408) == "14.8M"
        assert format_size(3_967_220, unit="M") == "0.47M"


class TestReport:
    def test_cora_report_fields(self):
        d = build_report(CORA_WIDTHS, CORA)
        assert d["cycle_ops"] == {"float": 249_954_739, "binary": 4_669_515}
        assert d["model_size_display"] == {"float": "360K", "binary": "11.53K"}
        assert d["data_size_display"] == {"float": "14.8M", "binary": "0.47M"}
        assert d["ratios"]["cycle_acceleration"] == pytest.approx(53.5, abs=0.1)
        assert d["ratios"]["param_compression_total"] == pytest.approx(31.2, abs=0.1)
        assert d["ratios"]["s_fe_per_layer"][0] == pytest.approx(58.75, abs=0.01)
        assert d["ratios"]["s_fe_per_layer"][1] == pytest.approx(21.33, abs=0.01)

    def test_report_rejects_inconsistent_feature_width(self):
        with pytest.raises(ValueError):
            build_report((100, 64, 7), CORA)

    def test_size_ratios_match_closed_forms(self):
        # with the per-layer d_out terms accounted, the bit ratios equal
        # the closed-form compression factors exactly
        for d_in, d_out in ((1433, 64), (64, 7), (5, 9)):
            f_bits, _ = model_size_bits(ArchSpec.full_float((d_in, d_out)))
            _, b_bits = model_size_bits(ArchSpec.full_binary((d_in, d_out)))
            assert f_bits / b_bits == pytest.approx(param_compression_ratio(d_in))
        for n, d in ((2708, 1433), (5, 3)):
            stats = GraphStats(nodes=n, edges=0, features=d)
            f_bits, b_bits = data_size_bits(stats)
            assert f_bits / b_bits == pytest.approx(param_compression_ratio(d))

    def test_ops_per_cycle_is_overridable(self):
        stats = GraphStats(nodes=10, edges=0, features=64)
        arch = ArchSpec.full_binary((64, 8))
        base = cycle_ops(arch, stats, ops_per_cycle=64)
        slower = cycle_ops(arch, stats, ops_per_cycle=32)
        assert slower > base
        s_fe_64, _ = acceleration_ratios(64, 0.0, ops_per_cycle=32)
        assert s_fe_64 == pytest.approx(32 * 64 / (64 + 64))


class TestValidation:
    def test_graph_stats_bounds(self):
        with pytest.raises(ValueError):
            GraphStats(nodes=0, edges=0, features=1)
        with pytest.raises(ValueError):
            GraphStats(nodes=1, edges=-1, features=1)

    def test_ratio_domains(self):
        with pytest.raises(ValueError):
            param_compression_ratio(0)
        with pytest.raises(ValueError):
            acceleration_ratios(1, -1.0)
