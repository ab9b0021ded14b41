"""Command-line entry point.

Subcommands: synth (generate benchmark data), pretrain, features, train,
detect, eval, sweep. Every subcommand accepts --config with a JSON (or, on
Python 3.11+, TOML) file whose keys override flag defaults; flags given on
the command line take precedence. All but features and detect take --seed.
Exit code is nonzero on any error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import extra_trees, flow_ingest, synth_flows
from . import metrics as metrics_mod, pretrain as pretrain_mod
from .comm_graph import save_graph
from .flow_ingest import FlowTable, parse_flow_file, write_flows_csv
from .flow_features import FEATURE_NAMES, extract_node_features
from .fusion_pipeline import check_model, detect, pool_labeled_rows, trace_windows, train_detector
from .gcn_core import check_depth, load_model, save_model
from .pretrain import ARCH_C2, ARCH_DEPTH, ARCHITECTURES, DEFAULT_N_GRAPHS, TrainConfig


def _load_config_file(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    if p.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:
            raise ValueError(
                "TOML config requires Python 3.11+; use a JSON config instead"
            ) from exc
        kind, loads = "TOML", tomllib.loads
    else:
        kind, loads = "JSON", json.loads
    try:
        cfg = loads(p.read_bytes().decode("utf-8"))
    except ValueError as exc:  # a decode error of either format, or of UTF-8
        raise ValueError(f"config file {p} is not valid {kind}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a single object of key/value pairs")
    return cfg


def _apply_config(sub: argparse.ArgumentParser, path: str) -> None:
    """Install the config file's values as the subcommand's defaults.

    Parsing argv again afterwards lets explicit flags win over the config.
    Values of typed arguments are installed as strings, so argparse runs
    each one through its argument's type as it would a flag. A flag takes
    only a JSON boolean, and any other untyped argument only a string.
    """
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in _load_config_file(path).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
        if action.nargs == 0 and not isinstance(value, bool):
            raise ValueError(f"config key {key!r}: {value!r} is not true or false")
        if action.nargs != 0 and action.type is None and not isinstance(value, str):
            raise ValueError(f"config key {key!r}: {value!r} is not a string")
        defaults[action.dest] = str(value) if action.type else value
    sub.set_defaults(**defaults)


# Subcommands whose --out (and pretrain's --report) names a file that is written
# only after their work.
_FILE_OUTPUT_COMMANDS = frozenset({"pretrain", "features", "train", "detect", "eval", "sweep"})


def _check_output_path(path: str) -> None:
    """Refuse an output file path that is a directory or lies in a missing
    directory, so the command fails before it parses, trains or scores."""
    p = Path(path)
    if p.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not p.parent.is_dir():
        raise FileNotFoundError(
            errno.ENOENT, "output directory does not exist", str(p.parent)
        )


# Options that name a file the command reads, besides --data.
_INPUT_OPTIONS = ("flows", "model", "ensemble", "config")


def _check_outputs(args) -> None:
    """Refuse --out and --report paths that cannot be written, that name the
    same file or an input file, or that lie in a --data directory, whose next
    run would read them as graphs: the command fails before it reads, trains
    or scores anything and overwrites nothing."""
    outputs = {f"--{name}": getattr(args, name) for name in ("out", "report")
               if getattr(args, name, None) is not None}
    if args.command in _FILE_OUTPUT_COMMANDS:
        for path in outputs.values():
            _check_output_path(path)
        if len({Path(path).resolve() for path in outputs.values()}) < len(outputs):
            raise ValueError("--out and --report name the same file")
    inputs = {Path(getattr(args, name)).resolve(): f"--{name}" for name in _INPUT_OPTIONS
              if getattr(args, name, None) is not None}
    data = getattr(args, "data", "synth")
    # A missing --data is reported where it is read, after the option checks.
    if data != "synth" and Path(data).exists():
        inputs.update((path.resolve(), "--data") for path in pretrain_mod.graph_files(data))
    for option, path in outputs.items():
        source = inputs.get(Path(path).resolve())
        if source is not None:
            raise ValueError(f"{option} names the {source} input file: {path}")
        if data != "synth" and Path(data).resolve() in Path(path).resolve().parents:
            raise ValueError(f"{option} lies inside the --data directory {data}: {path}")


def _read_flows(args) -> FlowTable:
    return parse_flow_file(args.flows, format_descriptor=args.format).table


def cmd_synth(args) -> int:
    # Sizes left unset take the defaults of the kind being generated.
    sizes = dict(n_background=args.n_background, n_bots=args.n_bots)
    sizes = {name: value for name, value in sizes.items() if value is not None}
    if args.kind == "graphs":
        graphs = pretrain_mod.default_pretrain_dataset(
            args.arch, n_graphs=args.n_graphs, seed=args.seed, **sizes
        )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, g in enumerate(graphs):
            save_graph(g, out_dir / f"graph_{args.arch}_{i:03d}.json")
        print(f"wrote {args.n_graphs} graphs to {out_dir}")
        return 0

    spec = synth_flows.FlowBenchSpec(
        architecture=args.arch, duration=args.duration, seed=args.seed, **sizes
    )
    records = synth_flows.generate_flow_benchmark(spec)
    write_flows_csv(records, args.out)
    print(f"wrote {len(records)} flows to {args.out}")
    return 0


def _pretrain_dataset(args) -> list:
    if args.data == "synth":
        return pretrain_mod.default_pretrain_dataset(
            args.arch, n_graphs=args.n_graphs, seed=args.seed
        )
    return pretrain_mod.load_graph_dataset(args.data)


def cmd_pretrain(args) -> int:
    config = TrainConfig(
        lr=args.lr,
        max_epochs=args.max_epochs,
        patience=args.patience,
        val_fraction=args.val_fraction,
        seed=args.seed,
    )
    dataset = _pretrain_dataset(args)
    depth = args.depth if args.depth is not None else ARCH_DEPTH[args.arch]
    report: list = []
    model = pretrain_mod.pretrain_gcn(dataset, depth, config, report=report)
    save_model(model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            for row in report:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    best = max(r["val_acc"] for r in report)
    print(f"pretrained depth-{depth} {args.arch} model: best val_acc={best:.4f} "
          f"over {len(report)} epochs -> {args.out}")
    return 0


@contextmanager
def _text_output(path: str | None):
    """The --out file, opened for writing, or stdout when there is none."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


def cmd_features(args) -> int:
    _, windows = trace_windows(_read_flows(args), args.window_len, args.stride)
    with _text_output(args.out) as out:
        for w in windows:
            feats = extract_node_features(w)
            obj = {
                "window_start": w.window_start,
                "features": {
                    node: dict(zip(FEATURE_NAMES, row))
                    for node, row in zip(feats.nodes, feats.matrix.tolist())
                },
            }
            out.write(json.dumps(obj, sort_keys=True) + "\n")
    return 0


def cmd_train(args) -> int:
    model = load_model(args.model)
    check_model(model)  # before the trace is read
    ensemble = train_detector(_read_flows(args), model, args.window_len, args.stride,
                              args.norm_mode, args.n_trees, args.seed)
    extra_trees.save_ensemble(ensemble, args.out)
    print(f"trained {ensemble.n_trees}-tree ensemble on "
          f"{ensemble.window_len:g}/{ensemble.stride:g} s windows -> {args.out}")
    return 0


def cmd_detect(args) -> int:
    model = load_model(args.model)
    ensemble = extra_trees.load_ensemble(args.ensemble)
    check_model(model, ensemble)  # before the trace is read
    report = detect(_read_flows(args), model, ensemble, args.threshold)
    with _text_output(args.out) as out:
        for line in report.json_lines(args.arch, include_timings=not args.no_timings):
            out.write(line + "\n")
    flagged = sum(int(report.verdicts(w).sum()) for w in report.windows)
    total = sum(w.n_nodes for w in report.windows)
    print(f"flagged {flagged} of {total} node-windows across {len(report.windows)} windows",
          file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    check_model(model)  # before the trace is read
    X, y, _ = pool_labeled_rows(_read_flows(args), model, args.window_len, args.stride,
                                args.norm_mode)
    folds, summary = metrics_mod.kfold_cv(
        X, y, k=args.k, seed=args.seed, n_trees=args.n_trees, threshold=args.threshold
    )
    print(metrics_mod.format_metrics_table(summary), end="")
    if args.out:
        payload = {
            "k": args.k,
            "n_samples": int(y.size),
            "folds": [m.to_dict() for m in folds],
            "summary": summary,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True),
                                  encoding="utf-8")
    return 0


def _sweep_depths(args) -> list[int]:
    try:
        depths = [int(d) for d in args.depths.split(",") if d.strip()]
    except ValueError:
        raise ValueError(f"--depths takes comma-separated integers, got {args.depths!r}") from None
    if not depths:
        raise ValueError("no depths requested")
    return depths


def cmd_sweep(args) -> int:
    depths = _sweep_depths(args)
    config = TrainConfig(
        max_epochs=args.max_epochs, patience=args.patience, seed=args.seed
    )
    dataset = _pretrain_dataset(args)
    flows = _read_flows(args)
    trace_windows(flows, args.window_len, args.stride)  # an empty trace fails before pretraining
    rows = []
    for depth in depths:
        model = pretrain_mod.pretrain_gcn(dataset, depth, config)
        X, y, _ = pool_labeled_rows(flows, model, args.window_len, args.stride, args.norm_mode)
        folds, summary = metrics_mod.kfold_cv(X, y, k=args.k, seed=args.seed, n_trees=args.n_trees)
        rows.append({
            "arch": args.arch,
            "depth": depth,
            "mean": summary["mean"],
            "std": summary["std"],
            "folds": [m.to_dict() for m in folds],
        })
    print(metrics_mod.format_sweep_table(rows), end="")
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2, sort_keys=True),
                                  encoding="utf-8")
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="botfuse",
        description="Botnet node detection from network flows via graph feature fusion.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry: dict[str, argparse.ArgumentParser] = {}

    def sub(name: str, seeded: bool = True, **kw) -> argparse.ArgumentParser:
        s = subs.add_parser(name, **kw)
        if seeded:
            s.add_argument("--seed", type=int, default=0)
        s.add_argument("--config", help="JSON (or TOML on 3.11+) file of option defaults")
        registry[name] = s
        return s

    s = sub("synth", help="generate synthetic graphs or a labeled flow benchmark")
    s.add_argument("--kind", choices=["graphs", "flows"], default="flows")
    s.add_argument("--arch", choices=ARCHITECTURES, default=ARCH_C2)
    s.add_argument("--n-graphs", type=int, default=DEFAULT_N_GRAPHS,
                   help="graph count for --kind graphs")
    flow_spec = synth_flows.FlowBenchSpec
    s.add_argument("--n-background", type=int, default=None,
                   help=f"default {flow_spec.n_background} for flows, "
                        f"{pretrain_mod.DEFAULT_N_BACKGROUND} for graphs")
    s.add_argument("--n-bots", type=int, default=None,
                   help=f"default {flow_spec.n_bots} for flows, "
                        f"{pretrain_mod.DEFAULT_N_BOTS} for graphs")
    s.add_argument("--duration", type=float, default=flow_spec.duration,
                   help="trace length in seconds for --kind flows")
    s.add_argument("--out", required=True, help="output file (flows) or directory (graphs)")
    s.set_defaults(func=cmd_synth)

    s = sub("pretrain", help="train the graph network on labeled graphs and freeze it")
    s.add_argument("--arch", choices=ARCHITECTURES, default=ARCH_C2)
    depths = " / ".join(f"{depth} ({arch})" for arch, depth in ARCH_DEPTH.items())
    s.add_argument("--depth", type=int, default=None, help=f"defaults to {depths}")
    s.add_argument("--data", default="synth", help="'synth' or a graph file/directory")
    s.add_argument("--n-graphs", type=int, default=DEFAULT_N_GRAPHS,
                   help="graph count when --data synth")
    s.add_argument("--lr", type=float, default=TrainConfig.lr)
    s.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    s.add_argument("--patience", type=int, default=TrainConfig.patience)
    s.add_argument("--val-fraction", type=float, default=TrainConfig.val_fraction)
    s.add_argument("--report", help="write per-epoch JSON lines here")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_pretrain)

    def add_flow_args(s: argparse.ArgumentParser, windowing: bool = True) -> None:
        s.add_argument("--flows", required=True)
        s.add_argument("--format", choices=flow_ingest.FORMATS,
                       default=flow_ingest.DEFAULT_FORMAT)
        if windowing:
            s.add_argument("--window-len", type=float, default=flow_ingest.DEFAULT_WINDOW_LEN)
            s.add_argument("--stride", type=float, default=flow_ingest.DEFAULT_STRIDE)

    s = sub("features", seeded=False,
            help="emit per-window per-node flow features as JSON lines")
    add_flow_args(s)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_features)

    s = sub("train", help="fit the tree ensemble on labeled flows")
    add_flow_args(s)
    s.add_argument("--model", required=True)
    s.add_argument("--norm-mode", choices=extra_trees.NORM_MODES,
                   default=extra_trees.DEFAULT_NORM_MODE)
    s.add_argument("--n-trees", type=int, default=extra_trees.DEFAULT_N_TREES)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train)

    s = sub("detect", seeded=False,
            help="classify nodes per window with a frozen model and ensemble")
    add_flow_args(s, windowing=False)
    s.add_argument("--model", required=True)
    s.add_argument("--ensemble", required=True,
                   help="also sets the window length, stride and normalization mode")
    s.add_argument("--arch", choices=ARCHITECTURES, default=ARCH_C2,
                   help="only sets the report's \"architecture\" field; "
                        "not checked against the model")
    s.add_argument("--threshold", type=float, default=extra_trees.DEFAULT_THRESHOLD)
    s.add_argument("--no-timings", action="store_true",
                   help="omit timing fields for byte-stable output")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_detect)

    s = sub("eval", help="stratified k-fold cross-validation on labeled flows")
    add_flow_args(s)
    s.add_argument("--model", required=True)
    s.add_argument("--k", type=int, default=metrics_mod.DEFAULT_K)
    s.add_argument("--n-trees", type=int, default=extra_trees.DEFAULT_N_TREES)
    s.add_argument("--norm-mode", choices=extra_trees.NORM_MODES,
                   default=extra_trees.DEFAULT_NORM_MODE)
    s.add_argument("--threshold", type=float, default=extra_trees.DEFAULT_THRESHOLD)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_eval)

    s = sub("sweep", help="pretrain and cross-validate across candidate depths")
    add_flow_args(s)
    s.add_argument("--arch", choices=ARCHITECTURES, default=ARCH_C2)
    s.add_argument("--depths", default="10,12,14,16")
    s.add_argument("--data", default="synth")
    s.add_argument("--n-graphs", type=int, default=DEFAULT_N_GRAPHS)
    s.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    s.add_argument("--patience", type=int, default=TrainConfig.patience)
    s.add_argument("--k", type=int, default=metrics_mod.DEFAULT_K)
    s.add_argument("--n-trees", type=int, default=extra_trees.DEFAULT_N_TREES)
    s.add_argument("--norm-mode", choices=extra_trees.NORM_MODES,
                   default=extra_trees.DEFAULT_NORM_MODE)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_sweep)

    return parser, registry


def main(argv=None) -> int:
    parser, registry = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(registry[args.command], args.config)
            args = parser.parse_args(argv)
        _check_outputs(args)
        if "threshold" in vars(args):
            extra_trees.check_threshold(args.threshold)
        if "n_trees" in vars(args):
            extra_trees.check_n_trees(args.n_trees)
        if "seed" in vars(args) and args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        if "k" in vars(args):
            metrics_mod.check_k(args.k)
        if "stride" in vars(args):
            flow_ingest.check_windowing(args.window_len, args.stride)
        if getattr(args, "depth", None) is not None:
            check_depth(args.depth)
        if "depths" in vars(args):
            for depth in _sweep_depths(args):
                check_depth(depth)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
