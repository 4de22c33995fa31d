"""CLI behavior: subcommands, exit codes, and output files."""

import argparse
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from bingcn import cli, efficiency
from bingcn.capacity import write_activation_dump
from bingcn.cli import TRAIN_DEFAULTS, _model_config, _resolve_train_settings, build_parser, run
from bingcn.datasets import SBMParams, generate_sbm, save_dataset
from bingcn.train import ModelConfig, load_model, save_model

SBM_ARGS = json.dumps({
    "nodes_per_class": 60, "n_classes": 3, "p_in": 0.12, "p_out": 0.01,
    "n_features": 24, "signal": 2.0, "seed": 9,
})


def read_json(path):
    return json.loads(path.read_text())


def _config_file(tmp_path, conf):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(conf))
    return str(path)


def _non_utf8_file(tmp_path):
    path = tmp_path / "not-utf8.json"
    path.write_bytes(b"\xff{}")
    return str(path)


def _existing_file(tmp_path):
    path = tmp_path / "a-file"
    path.touch()
    return str(path)


def _dump_file(tmp_path):
    path = tmp_path / "acts.bin"
    write_activation_dump(path, np.random.default_rng(0).standard_normal((20, 3)))
    return str(path)


def _train_sbm(**bad):
    """The argv of a training run on SBM_ARGS with some parameters replaced."""
    return lambda tmp: ["train", "--sbm", json.dumps({**json.loads(SBM_ARGS), **bad})]


def _train_config(**conf):
    """The argv of a training run on SBM_ARGS with these --config settings."""
    return lambda tmp: ["train", "--sbm", SBM_ARGS, "--config", _config_file(tmp, conf)]


ANALYZE_ARGS = ["analyze", "--edges", "4", "--features", "3", "--widths", "3,2"]
# Each builds the argv of one malformed input from a scratch directory.
MALFORMED_INPUTS = {
    "config-widths-not-a-list": _train_config(widths=5),
    "config-not-an-object": lambda tmp: [
        "train", "--sbm", SBM_ARGS, "--config", _config_file(tmp, [["lr"]])],
    "lr-nan": lambda tmp: ["train", "--sbm", SBM_ARGS, "--lr", "nan"],
    "lr-negative": lambda tmp: ["train", "--sbm", SBM_ARGS, "--lr", "-1"],
    "train-seed-negative": lambda tmp: ["train", "--sbm", SBM_ARGS, "--seed", "-1"],
    "config-epochs-infinite": _train_config(epochs=float("inf")),
    "config-epochs-fractional": _train_config(epochs=2.9),
    "config-epochs-boolean": _train_config(epochs=True),
    "config-hidden-fractional": _train_config(hidden=7.99),
    "config-seed-fractional": _train_config(seed=1.5),
    "config-lr-a-string": _train_config(lr="0.01"),
    "config-dropout-boolean": _train_config(dropout=False),
    "config-widths-fractional": _train_config(widths=[24.5, 16, 3]),
    "analyze-zero-nodes": lambda tmp: ANALYZE_ARGS + ["--nodes", "0"],
    "analyze-zero-ops-per-cycle": lambda tmp: ANALYZE_ARGS + [
        "--nodes", "5", "--ops-per-cycle", "0"],
    "capacity-zero-bins": lambda tmp: ["capacity", _dump_file(tmp), "--bins", "0"],
    "sbm-seed-negative": _train_sbm(seed=-1),
    "sbm-seed-fractional": _train_sbm(seed=1.5),
    "sbm-nodes-per-class-fractional": _train_sbm(nodes_per_class=60.5),
    "sbm-n-features-float": _train_sbm(n_features=70.0),
    "sbm-signal-nan": _train_sbm(signal=float("nan")),
    "sbm-signal-inf": _train_sbm(signal=float("inf")),
    "sbm-file-not-utf8": lambda tmp: ["train", "--sbm", _non_utf8_file(tmp)],
    "config-not-utf8": lambda tmp: [
        "train", "--sbm", SBM_ARGS, "--config", _non_utf8_file(tmp)],
    "widths-not-from-the-feature-count": lambda tmp: [
        "train", "--sbm", SBM_ARGS, "--widths", "25,16,3"],
    "widths-not-to-the-class-count": lambda tmp: [
        "train", "--sbm", SBM_ARGS, "--widths", "24,16,4"],
    "sbm-p-in-boolean": _train_sbm(p_in=True),
    "hidden-with-widths-flag": lambda tmp: [
        "train", "--sbm", SBM_ARGS, "--hidden", "16", "--widths", "24,16,3"],
    "hidden-with-widths-config": lambda tmp: _train_config(widths=[24, 16, 3])(tmp) + [
        "--hidden", "16"],
    "config-hidden-with-widths-flag": lambda tmp: _train_config(hidden=16)(tmp) + [
        "--widths", "24,16,3"],
}
# Each builds the argv of a run given a path it cannot read or write (a
# directory for a file, a file for a directory) from a scratch directory.
UNUSABLE_PATHS = {
    "sbm-a-directory": lambda tmp: ["train", "--sbm", str(tmp)],
    "eval-model-a-directory": lambda tmp: ["eval", str(tmp), "--sbm", SBM_ARGS],
    "capacity-dump-a-directory": lambda tmp: ["capacity", str(tmp)],
    "dump-activations-a-directory": lambda tmp: [
        "train", "--sbm", SBM_ARGS, "--epochs", "1", "--model", "gcn",
        "--out", str(tmp / "run"), "--dump-activations", str(tmp)],
    "train-out-an-existing-file": lambda tmp: [
        "train", "--sbm", SBM_ARGS, "--epochs", "1", "--out", _existing_file(tmp)],
    "analyze-out-an-existing-file": lambda tmp: ANALYZE_ARGS + [
        "--nodes", "5", "--out", _existing_file(tmp)],
}


def _saved_dataset(tmp_path):
    g = generate_sbm(SBMParams(nodes_per_class=60, n_classes=3, n_features=24, seed=1))
    return save_dataset(tmp_path / "ds", g, name="sbm")


def _manifest(mutate):
    def corrupt(directory):
        path = directory / "manifest.json"
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        return path
    return corrupt


def _prepend(name, data):
    def corrupt(directory):
        path = directory / name
        path.write_bytes(data + path.read_bytes())
        return path
    return corrupt


def _nan_feature(directory):
    path = directory / "features.bin"
    blob = bytearray(path.read_bytes())
    blob[12:16] = struct.pack("<f", float("nan"))  # the first value, past the header
    path.write_bytes(bytes(blob))
    return path


# Each corrupts one file of a saved dataset and returns that file's path.
MALFORMED_DATASETS = {
    "features-nan": _nan_feature,
    "manifest-a-list": _manifest(lambda raw: [raw]),
    "manifest-num-nodes-abc": _manifest(lambda raw: {**raw, "num_nodes": "abc"}),
    "manifest-num-nodes-null": _manifest(lambda raw: {**raw, "num_nodes": None}),
    "manifest-edges-file-5": _manifest(lambda raw: {**raw, "edges_file": 5}),
    "manifest-num-nodes-180.9": _manifest(lambda raw: {**raw, "num_nodes": 180.9}),
    "manifest-num-nodes-str-180": _manifest(lambda raw: {**raw, "num_nodes": "180"}),
    "manifest-num-classes-3.7": _manifest(lambda raw: {**raw, "num_classes": 3.7}),
    "manifest-num-nodes-true": _manifest(lambda raw: {**raw, "num_nodes": True}),
    "manifest-name-5": _manifest(lambda raw: {**raw, "name": 5}),
    "manifest-0xff": _prepend("manifest.json", b"\xff"),
    "edges-0xff": _prepend("edges.txt", b"\xff"),
    "labels-0xff": _prepend("labels.txt", b"\xff"),
    "masks-0xff": _prepend("masks.txt", b"\xff"),
    "edges-20-digits": _prepend("edges.txt", b"12345678901234567890 1\n"),
    "labels-20-digits": _prepend("labels.txt", b"12345678901234567890\n"),
}


class TestAnalyze:
    def test_cora_golden_numbers(self, tmp_path, capsys):
        code = run(["analyze", "--nodes", "2708", "--edges", "5429",
                    "--features", "1433", "--widths", "1433,64,7",
                    "--out", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "efficiency.json")
        assert report["cycle_ops"]["float"] == 249_954_739
        assert report["cycle_ops"]["binary"] == 4_669_515
        assert report["model_size_display"] == {"float": "360K", "binary": "11.53K"}
        assert report["data_size_display"] == {"float": "14.8M", "binary": "0.47M"}
        stdout = capsys.readouterr().out
        assert "249954739" in stdout
        assert "4669515" in stdout

    def test_missing_stats_is_usage_error(self, capsys):
        assert run(["analyze", "--widths", "8,2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_width_feature_mismatch_is_usage_error(self, capsys):
        code = run(["analyze", "--nodes", "10", "--edges", "2", "--features", "5",
                    "--widths", "8,2"])
        assert code == 1

    def test_dataset_default_hidden_width_is_the_train_default(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setitem(TRAIN_DEFAULTS, "hidden", 5)
        assert run(["analyze", "--dataset", str(_saved_dataset(tmp_path))]) == 0
        assert json.loads(capsys.readouterr().out)["arch"]["widths"] == [24, 5, 3]

    def test_dataset_input_bytes(self, tmp_path, capsys):
        # 180 nodes of 24 features: 24 float64 values, or one packed word
        # and one float64 scalar, per row.
        assert run(["analyze", "--dataset", str(_saved_dataset(tmp_path))]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input_bytes"] == {"float64": 180 * 24 * 8, "packed": 180 * 2 * 8}
        assert "data_compression" in report["ratios"]
        assert run(ANALYZE_ARGS + ["--nodes", "5"]) == 0
        assert "input_bytes" not in json.loads(capsys.readouterr().out)

    def test_ops_per_cycle_default_is_the_cost_model_default(self, monkeypatch):
        assert build_parser().parse_args(ANALYZE_ARGS).ops_per_cycle == (
            efficiency.CYCLE_BINARY_OPS)
        monkeypatch.setattr(cli, "CYCLE_BINARY_OPS", 32)
        assert build_parser().parse_args(ANALYZE_ARGS).ops_per_cycle == 32

    def test_from_dataset_manifest(self, tmp_path, capsys):
        g = generate_sbm(SBMParams(nodes_per_class=60, n_classes=3, n_features=24, seed=1))
        manifest = save_dataset(tmp_path / "ds", g, name="sbm")
        code = run(["analyze", "--dataset", str(manifest), "--widths", "24,16,3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["graph"]["nodes"] == 180
        assert report["graph"]["features"] == 24


class TestTrain:
    def test_writes_metrics_result_and_model(self, tmp_path):
        out = tmp_path / "run1"
        code = run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                    "--epochs", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert set(first) == {"epoch", "train_loss", "train_acc", "val_loss", "val_acc"}
        result = read_json(out / "result.json")
        assert set(result) == {"test_acc", "best_epoch", "epochs_run", "seed"}
        assert result["epochs_run"] == 20
        assert result["seed"] == 3
        assert (out / "model.bin").exists()

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        args = ["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                "--epochs", "15", "--seed", "4"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"epochs": 5, "seed": 8, "model": "gcn"}))
        out = tmp_path / "run"
        code = run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                    "--config", str(config), "--epochs", "7", "--out", str(out)])
        assert code == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 7  # flag beats config file
        assert read_json(out / "result.json")["seed"] == 8  # config beats default

    def test_dump_activations_gcn_only(self, tmp_path, capsys):
        dump = tmp_path / "acts.bin"
        code = run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                    "--epochs", "5", "--model", "bigcn", "--out", str(tmp_path / "x"),
                    "--dump-activations", str(dump)])
        assert code == 1  # usage error: needs the baseline
        code = run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                    "--epochs", "5", "--model", "gcn", "--out", str(tmp_path / "y"),
                    "--dump-activations", str(dump)])
        assert code == 0
        assert dump.exists()

    def test_dump_activations_without_hidden_layer_is_usage_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran for a dump with no hidden layer")

        monkeypatch.setattr(cli, "train", no_training)
        dump = tmp_path / "acts.bin"
        code = run(["train", "--sbm", SBM_ARGS, "--widths", "24,3", "--model", "gcn",
                    "--out", str(tmp_path / "run"), "--dump-activations", str(dump)])
        assert code == 1
        assert "hidden layer" in capsys.readouterr().err
        assert not dump.exists()

    @pytest.mark.parametrize("unusable", [
        lambda tmp: ["--out", _existing_file(tmp)],
        lambda tmp: ["--model", "gcn", "--out", str(tmp / "run"), "--dump-activations", str(tmp)],
        lambda tmp: ["--model", "gcn", "--out", str(tmp / "run"),
                     "--dump-activations", str(tmp / "missing" / "acts.bin")],
    ], ids=["out-an-existing-file", "dump-a-directory", "dump-in-a-missing-directory"])
    def test_unusable_output_path_fails_before_training(self, unusable, tmp_path, capsys,
                                                        monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("train() ran despite an unusable output path")

        monkeypatch.setattr(cli, "train", no_training)
        assert run(["train", "--sbm", SBM_ARGS, "--epochs", "1"] + unusable(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_defaults_are_the_model_config_defaults(self):
        args = build_parser().parse_args(["train", "--sbm", SBM_ARGS])
        graph = generate_sbm(SBMParams(**json.loads(SBM_ARGS)))
        config = _model_config(_resolve_train_settings(args), graph)
        assert config == ModelConfig(widths=[24, 64, 3])

    def test_both_data_sources_is_usage_error(self, tmp_path, capsys):
        code = run(["train", "--sbm", SBM_ARGS, "--dataset", "whatever.json"])
        assert code == 1
        assert run(["train"]) == 1

    def test_missing_dataset_is_data_error(self, capsys):
        code = run(["train", "--dataset", "/no/such/manifest.json"])
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_reports_accuracies(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                    "--epochs", "30", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        code = run(["eval", str(out / "model.bin"), "--sbm", SBM_ARGS])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"train_acc", "val_acc", "test_acc"}
        result = read_json(out / "result.json")
        assert report["test_acc"] == pytest.approx(result["test_acc"])

    def test_truncated_model_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                    "--epochs", "2", "--out", str(out)]) == 0
        blob = (out / "model.bin").read_bytes()
        cut = tmp_path / "cut.bin"
        for size in (0, 3, 4, 10, 16, 22, 30, 100, len(blob) - 8, len(blob) - 1):
            cut.write_bytes(blob[:size])
            capsys.readouterr()
            assert run(["eval", str(cut), "--sbm", SBM_ARGS]) == 2, size
            assert "data error" in capsys.readouterr().err
        cut.write_bytes(blob + b"\x00")
        assert run(["eval", str(cut), "--sbm", SBM_ARGS]) == 2
        assert "trailing" in capsys.readouterr().err

    def test_missing_batch_norm_states_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3",
                    "--epochs", "2", "--out", str(out)]) == 0
        model = load_model(out / "model.bin")
        model.input_stats = None
        save_model(tmp_path / "no_bn.bin", model)
        capsys.readouterr()
        assert run(["eval", str(tmp_path / "no_bn.bin"), "--sbm", SBM_ARGS]) == 2
        assert "input statistics" in capsys.readouterr().err

    @pytest.mark.parametrize("family,field", [
        ("gcn", "weight"), ("bigcn", "weight"), ("bisage", "weight"),
        ("bigcn", "mean"), ("bigcn", "variance"), ("bigcn", "negative variance")])
    def test_non_finite_model_values_are_data_errors(self, family, field, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--sbm", SBM_ARGS, "--widths", "24,16,3", "--model", family,
                    "--epochs", "2", "--out", str(out)]) == 0
        model = load_model(out / "model.bin")
        if field == "weight":
            model.weights[-1][-1, -1] = np.nan
        elif field == "mean":
            model.input_stats[0][3] = np.inf
        else:
            model.input_stats[1][3] = -np.inf if field == "variance" else -2.0
        save_model(tmp_path / "bad.bin", model)
        capsys.readouterr()
        assert run(["eval", str(tmp_path / "bad.bin"), "--sbm", SBM_ARGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(tmp_path / "bad.bin") in err

    def test_model_graph_width_mismatch_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        twelve = json.dumps({**json.loads(SBM_ARGS), "n_features": 12})
        assert run(["train", "--sbm", twelve, "--widths", "12,8,3",
                    "--epochs", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        twenty = json.dumps({**json.loads(SBM_ARGS), "n_features": 20})
        assert run(["eval", str(out / "model.bin"), "--sbm", twenty]) == 2
        err = capsys.readouterr().err
        assert "12" in err and "20" in err
        four_classes = json.dumps({**json.loads(SBM_ARGS), "n_features": 12, "n_classes": 4})
        assert run(["eval", str(out / "model.bin"), "--sbm", four_classes]) == 2
        err = capsys.readouterr().err
        assert "3 classes" in err and "4" in err


class TestCapacityCommand:
    def test_uniform_dump_gives_analytic_bound(self, tmp_path, capsys):
        m, k = 16, 3
        centers = (np.arange(m) + 0.5) / m
        acts = np.tile(np.repeat(centers, 4)[:, None], (1, k)).astype(np.float32)
        dump = tmp_path / "uniform.bin"
        write_activation_dump(dump, acts)
        code = run(["capacity", str(dump), "--bins", str(m)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d_bin_lower"] == int(np.ceil(k * np.log2(m)))
        assert report["layers"][0]["h_ind_bits"] == pytest.approx(k * np.log2(m))

    def test_multiple_dumps_take_max(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((100, 2)).astype(np.float32)
        big = rng.standard_normal((100, 20)).astype(np.float32)
        p1, p2 = tmp_path / "l1.bin", tmp_path / "l2.bin"
        write_activation_dump(p1, small)
        write_activation_dump(p2, big)
        assert run(["capacity", str(p1), str(p2), "--bins", "32"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["d_bin_lower"] >= report["layers"][0]["h_ind_bits"]
        assert len(report["layers"]) == 2

    def test_bad_dump_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"trash")
        assert run(["capacity", str(bad)]) == 2
        assert run(["capacity", str(tmp_path / "missing.bin")]) == 2

    @pytest.mark.parametrize("acts", [
        np.array([[0.5, np.nan], [1.0, 2.0]]),
        np.array([[0.5, np.inf]]),
        np.zeros((0, 3)),
        np.zeros((4, 0)),
    ], ids=["nan", "inf", "no-samples", "no-neurons"])
    def test_well_formed_dump_with_bad_values_is_data_error(self, acts, tmp_path, capsys):
        # Written byte by byte: write_activation_dump refuses non-finite values.
        dump = tmp_path / "acts.bin"
        dump.write_bytes(b"BGNA" + struct.pack("<II", *acts.shape) + acts.astype("<f4").tobytes())
        assert run(["capacity", str(dump)]) == 2
        assert "data error" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv_of", MALFORMED_INPUTS.values(), ids=list(MALFORMED_INPUTS))
    def test_malformed_input_is_usage_error(self, argv_of, tmp_path, capsys):
        assert run(argv_of(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv_of", UNUSABLE_PATHS.values(), ids=list(UNUSABLE_PATHS))
    def test_unusable_path_is_data_error(self, argv_of, tmp_path, capsys):
        assert run(argv_of(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("command", [["analyze"], ["train", "--epochs", "1"]],
                             ids=["analyze", "train"])
    @pytest.mark.parametrize("corrupt", MALFORMED_DATASETS.values(),
                             ids=list(MALFORMED_DATASETS))
    def test_malformed_dataset_is_data_error(self, corrupt, command, tmp_path, capsys):
        manifest = _saved_dataset(tmp_path)
        bad = corrupt(manifest.parent)
        if command[0] == "train":  # a dataset that loads after all writes here, not in the cwd
            command = command + ["--out", str(tmp_path / "run")]
        assert run(command + ["--dataset", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["train", "--help"]) == 0


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Subcommands:([^.]*)\.", readme).group(1)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(re.findall(r"`(\w+)`", listed)) == set(sub.choices)
