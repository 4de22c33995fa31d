"""Command-line front end: train, eval, capacity, analyze.

Every command runs to completion and exits; nothing reads stdin. Exit
codes: 0 success, 1 usage error, 2 data error (also a path that cannot
be read or written), 3 runtime failure.
Training hyperparameters resolve as defaults < --config JSON < explicit
flags; `ModelConfig` checks their types and values. A hidden width and
the widths may not both be given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import bitlinalg as bl
from . import capacity as cap
from .datasets import (
    DatasetError,
    DimensionMismatchError,
    SBMParams,
    generate_sbm,
    load_dataset,
)
from .efficiency import CYCLE_BINARY_OPS, GraphStats, build_report
from .layers import STE_MODES, masked_accuracy
from .train import (
    MODEL_KINDS,
    ModelConfig,
    load_model,
    propagation_operator,
    save_model,
    train,
)

# Each training flag that sets a `ModelConfig` field, and the field.
_CONFIG_FIELDS = {"model": "model", "dropout": "dropout", "lr": "lr", "epochs": "max_epochs",
                  "patience": "patience", "ste": "ste_mode", "seed": "seed"}
TRAIN_DEFAULTS = {"hidden": 64, **{flag: getattr(ModelConfig, field)
                                   for flag, field in _CONFIG_FIELDS.items()}}


class UsageError(Exception):
    pass


def _parse_widths(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--widths expects comma-separated integers, got {text!r}") from exc


def _load_graph(args):
    """Build the graph from exactly one of --dataset / --sbm."""
    if bool(args.dataset) == bool(args.sbm):
        raise UsageError("specify exactly one data source: --dataset or --sbm")
    if args.dataset:
        return load_dataset(args.dataset)
    raw = args.sbm
    try:
        text = raw if raw.lstrip().startswith("{") else Path(raw).read_text()
        params = SBMParams(**json.loads(text))
    except (TypeError, ValueError) as exc:  # also undecodable bytes and invalid JSON
        raise UsageError(f"bad SBM parameters: {exc}") from exc
    return generate_sbm(params)


def _resolve_train_settings(args) -> dict:
    settings, file_conf = dict(TRAIN_DEFAULTS), {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        try:
            file_conf = json.loads(path.read_text())
        except ValueError as exc:  # undecodable bytes or invalid JSON
            raise UsageError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(file_conf, dict):
            raise UsageError(f"{path}: expected a JSON object of settings")
        unknown = set(file_conf) - set(TRAIN_DEFAULTS) - {"widths"}
        if unknown:
            raise UsageError(f"{path}: unknown config keys {sorted(unknown)}")
        settings.update(file_conf)
    for key in TRAIN_DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    if args.widths is not None:
        settings["widths"] = _parse_widths(args.widths)
    if all(getattr(args, key) is not None or key in file_conf for key in ("hidden", "widths")):
        raise UsageError("give the hidden width or the widths, not both")
    return settings


def _model_config(settings: dict, graph) -> ModelConfig:
    widths = settings.get("widths")
    if widths is None:
        widths = [graph.n_features, settings["hidden"], graph.n_classes]
    try:
        return ModelConfig(widths=widths, **{field: settings[flag]
                                             for flag, field in _CONFIG_FIELDS.items()})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    graph = _load_graph(args)
    settings = _resolve_train_settings(args)
    config = _model_config(settings, graph)
    if args.dump_activations and (config.model != "gcn" or len(config.widths) < 3):
        raise UsageError("--dump-activations needs the --model gcn baseline with a hidden layer")
    if (config.widths[0], config.widths[-1]) != (graph.n_features, graph.n_classes):
        raise UsageError(f"widths {config.widths} must run from the graph's "
                         f"{graph.n_features} features to its {graph.n_classes} classes")

    # Unusable output paths fail here, before any training.
    out = _out_dir(args)
    targets = []
    if args.dump_activations:
        targets = _dump_paths(args.dump_activations, len(config.widths) - 2)
        for path in targets:
            if path.is_dir():
                raise IsADirectoryError(f"activation dump target is a directory: {path}")
            if not path.parent.is_dir():
                raise FileNotFoundError(f"no directory for the activation dump {path}")

    result = train(config, graph)

    with open(out / "metrics.jsonl", "w") as fh:
        for m in result.trace:
            fh.write(json.dumps(dataclasses.asdict(m)) + "\n")
    with open(out / "result.json", "w") as fh:
        json.dump({
            "test_acc": result.test_acc,
            "best_epoch": result.best_epoch,
            "epochs_run": len(result.trace),
            "seed": result.seed,
        }, fh, indent=2)
        fh.write("\n")
    save_model(out / "model.bin", result.model)

    if args.dump_activations:
        prop = propagation_operator(result.model.family, graph)
        _, caches = result.model.forward(prop, graph.x)
        hidden = [cache.h_in for cache, _ in caches[1:]]  # post-ReLU hidden layers
        for path, acts in zip(targets, hidden):
            cap.write_activation_dump(path, acts)

    print(f"test_acc={result.test_acc:.4f} best_epoch={result.best_epoch} "
          f"epochs_run={len(result.trace)} out={out}")
    return 0


def _dump_paths(base: str, count: int) -> list[Path]:
    base_path = Path(base)
    if count == 1:
        return [base_path]
    return [base_path.with_name(f"{base_path.stem}.l{i + 1}{base_path.suffix}")
            for i in range(count)]


def cmd_eval(args) -> int:
    graph = _load_graph(args)
    model = load_model(args.model_file)
    widths = model.config.widths
    if widths[0] != graph.n_features:
        raise DimensionMismatchError(
            f"model expects {widths[0]} input features, graph has {graph.n_features}")
    if widths[-1] != graph.n_classes:
        raise DimensionMismatchError(
            f"model predicts {widths[-1]} classes, graph has {graph.n_classes}")
    prop = propagation_operator(model.family, graph)
    logits, _ = model.forward(prop, graph.x, training=False)
    report = {
        "train_acc": masked_accuracy(logits, graph.labels, graph.train_mask),
        "val_acc": masked_accuracy(logits, graph.labels, graph.val_mask),
        "test_acc": masked_accuracy(logits, graph.labels, graph.test_mask),
    }
    print(json.dumps(report))
    return 0


def cmd_capacity(args) -> int:
    if args.bins < 1:
        raise UsageError(f"--bins must be at least 1, got {args.bins}")
    estimates = []
    for dump in args.dumps:
        acts = cap.read_activation_dump(dump)
        estimates.append(cap.layer_entropy_independent(acts, args.bins))
    bound = cap.capacity_lower_bound(estimates)
    report = {
        "bins": args.bins,
        "layers": [
            {
                "samples": est.n_samples,
                "neurons": est.n_neurons,
                "h_ind_bits": est.h_ind,
                "per_neuron_bits": est.per_neuron.tolist(),
            }
            for est in estimates
        ],
        "d_bin_lower": bound.d_bin_lower,
    }
    out_text = json.dumps(report, indent=2)
    if args.out:
        out = _out_dir(args)
        (out / "capacity.json").write_text(out_text + "\n")
    print(out_text)
    return 0


def cmd_analyze(args) -> int:
    if args.dataset:
        graph = load_dataset(args.dataset)
        counts = (graph.n_nodes, graph.n_edges, graph.n_features)
        default_widths = [graph.n_features, TRAIN_DEFAULTS["hidden"], graph.n_classes]
    else:
        if args.nodes is None or args.edges is None or args.features is None:
            raise UsageError("analyze needs --dataset or all of --nodes/--edges/--features")
        counts = (args.nodes, args.edges, args.features)
        default_widths = None
    if args.widths is not None:
        widths = _parse_widths(args.widths)
    elif default_widths is not None:
        widths = default_widths
    else:
        raise UsageError("analyze needs --widths when no dataset is given")

    try:
        report = build_report(widths, GraphStats(*counts), ops_per_cycle=args.ops_per_cycle)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.dataset:
        # The input as training holds it: float64 rows, or each row's
        # packed sign words and its float64 scalar.
        n, _, d = counts
        report["input_bytes"] = {"float64": 8 * n * d,
                                 "packed": 8 * n * (-(-d // bl.WORD_BITS) + 1)}
    out_text = json.dumps(report, indent=2)
    if args.out:
        out = _out_dir(args)
        (out / "efficiency.json").write_text(out_text + "\n")
    print(out_text)
    return 0


def _add_data_flags(p):
    p.add_argument("--dataset", help="path to a dataset manifest.json")
    p.add_argument("--sbm", help="synthetic benchmark parameters (JSON file or inline JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bingcn",
        description="Binarized graph convolutional networks: training, "
                    "capacity estimation, and efficiency analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write metrics")
    _add_data_flags(p_train)
    p_train.add_argument("--model", choices=MODEL_KINDS, default=None)
    p_train.add_argument("--widths", help="comma-separated layer widths, e.g. 1433,64,7")
    p_train.add_argument("--hidden", type=int, default=None,
                         help="hidden width when --widths is omitted")
    p_train.add_argument("--dropout", type=float, default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--patience", type=int, default=None)
    p_train.add_argument("--ste", choices=STE_MODES, default=None,
                         help="straight-through gate: gradient or input magnitude")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--config", help="JSON config file; flags override it")
    p_train.add_argument("--out", help="output directory (default: current)")
    p_train.add_argument("--dump-activations", dest="dump_activations",
                         help="write the trained baseline's hidden activations here")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="report split accuracies of a saved model")
    _add_data_flags(p_eval)
    p_eval.add_argument("model_file", help="model file written by train")
    p_eval.set_defaults(fn=cmd_eval)

    p_cap = sub.add_parser("capacity", help="entropy estimate and width bound from dumps")
    p_cap.add_argument("dumps", nargs="+", help="activation dump files, one per hidden layer")
    p_cap.add_argument("--bins", type=int, default=200, help="histogram bins per neuron")
    p_cap.add_argument("--out", help="also write capacity.json here")
    p_cap.set_defaults(fn=cmd_capacity)

    p_an = sub.add_parser("analyze", help="analytical size and cycle-count report")
    p_an.add_argument("--dataset", help="derive graph stats from a manifest")
    p_an.add_argument("--nodes", type=int)
    p_an.add_argument("--edges", type=int)
    p_an.add_argument("--features", type=int)
    p_an.add_argument("--widths", help="comma-separated layer widths")
    p_an.add_argument("--ops-per-cycle", type=int, default=CYCLE_BINARY_OPS,
                      help="binary operations per cycle in the cost model")
    p_an.add_argument("--out", help="also write efficiency.json here")
    p_an.set_defaults(fn=cmd_analyze)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostic
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
