"""The benchmark hooks into botfuse by module and function name.

A renamed or removed traced function or imported name would otherwise only
show up when the benchmark's own suite runs (``python3 -m pytest perfbench``).
"""

import ast
import importlib
from pathlib import Path

from csr_checks import as_scipy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_botfuse_import_resolves():
    # The benchmark imports botfuse inside its functions, so the names are
    # found by walking each file's syntax tree, not by importing it.
    imports = [
        (path.name, node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "botfuse"
        for alias in node.names
    ]
    assert any(module == "botfuse.pretrain" for _, module, _ in imports)
    missing = [f"{where}: from {module} import {name}" for where, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for modname, attr, *_ in tracing.TRACED:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def test_graph_hooks_count_edges_and_nnz(monkeypatch):
    import numpy as np

    from botfuse.comm_graph import build_graph, propagation_matrix
    from botfuse.flow_ingest import FlowRecord, Proto, WindowSlice, encode_flows

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    flows = [("a", "b", 10, 5), ("a", "c", 10, 0), ("c", "d", 0, 0), ("e", "e", 3, 3)]
    records = [
        FlowRecord(0.0, 1.0, Proto.TCP, src, 1, dst, 2, up, down)
        for src, dst, up, down in flows
    ]
    window = WindowSlice(0.0, encode_flows(records))
    graph = build_graph(window)
    P = propagation_matrix(graph)
    counts = tracing._graph(None, (window,), {}, graph)
    assert counts == {"comm_graph.edges": 3, "comm_graph.dropped_self_loops": 1}
    assert counts["comm_graph.edges"] == graph.edges.shape[0]
    counts = tracing._propagation(None, (graph,), {}, P)
    # a-b and a-c are connected both ways; d and e are isolated.
    assert counts == {"comm_graph.nnz": 4, "comm_graph.isolated_nodes": 2}
    assert counts["comm_graph.nnz"] == np.count_nonzero(as_scipy(P).toarray())


def test_gcn_model_keeps_residual_mode():
    from botfuse.gcn_core import GcnModel, gcn_layer_forward

    assert "residual_mode" in GcnModel.__dataclass_fields__
    assert callable(gcn_layer_forward)


def test_window_and_feature_hooks_count_on_a_real_trace(monkeypatch):
    from botfuse.flow_features import extract_node_features
    from botfuse.flow_ingest import FlowRecord, Proto, encode_flows, slice_windows

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    # Flows at 5 s and 25 s in 30 s windows every 10 s: the windows at 0
    # (both flows), 10 and 20 (the second) hold 4 record copies.
    records = [
        FlowRecord(5.0, 1.0, Proto.TCP, "a", 1, "b", 2, 10, 5),
        FlowRecord(25.0, 1.0, Proto.UDP, "b", 1, "c", 2, 0, 7),
    ]
    table = encode_flows(records)
    windows = slice_windows(table, window_len=30.0, stride=10.0)
    counts = tracing._slice(None, (table,), {}, windows)
    assert counts == {"flow_ingest.windows": 3, "_sliced_flows": 2, "_window_records": 4}
    feats = extract_node_features(windows[0])
    assert len(feats) == len(windows[0].node_index[0]) == 3
    assert tracing._features(None, (windows[0],), {}, feats) == {
        "flow_features.node_windows": 3
    }


def test_every_workload_builds_its_spec_and_parses_its_calls(monkeypatch, tmp_path):
    # Nothing runs: a renamed spec field or CLI flag fails here instead of
    # only in the benchmark's own suite.
    from botfuse.cli import build_parser
    from botfuse.synth_flows import FlowBenchSpec

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    parser, _ = build_parser()
    argvs = []
    for w in workloads.WORKLOADS.values():
        for scale in workloads.SCALES.values():
            FlowBenchSpec(architecture=w.arch, seed=0, **workloads.spec_fields(w.trace, scale))
            setup, timed = workloads.cli_calls(w, scale, tmp_path)
            argvs += setup + timed
    assert argvs
    for argv in argvs:
        parser.parse_args(argv)


# The spans the tracer makes once per scored window, one per pipeline stage.
WINDOW_STAGES = ("flow_features.extract", "comm_graph.build", "comm_graph.propagation",
                 "gcn_core.forward", "fusion_pipeline.normalize", "extra_trees.predict")


def test_the_tracer_sees_every_stage_of_every_window(monkeypatch):
    # A stage that detection reaches under a local alias or a default
    # argument, not through its module's global name, would escape the
    # tracer's swap and drop out of the per-layer numbers.
    from botfuse.flow_ingest import FlowRecord, Label, Proto, encode_flows
    from botfuse.fusion_pipeline import detect, train_detector
    from botfuse.gcn_core import init_gcn
    from fork_checks import in_process_only

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    flows = (("10.0.0.9", "10.0.0.2", 100, Label.BOT), ("10.0.0.1", "10.0.0.2", 100, Label.LEGIT),
             ("10.0.0.1", "10.0.0.3", 20, Label.LEGIT))
    trace = encode_flows([
        FlowRecord(start + k, 1.0, Proto.TCP, src, 40000, dst, 80, up, 50, label)
        for start in (0.0, 10.0, 20.0) for k, (src, dst, up, label) in enumerate(flows)
    ])
    model = init_gcn(2, 5, 4, seed=0)
    model.frozen = True
    ensemble = train_detector(trace, model, 10.0, 10.0, n_trees=4)
    in_process_only(monkeypatch)  # a forked worker's spans stay in the worker
    tracer = tracing.Tracer()
    with tracer.installed():
        reports = detect(trace, model, ensemble)
    assert len(reports) == 3
    names = [s.name for s in tracer.spans]
    assert {stage: names.count(stage) for stage in WINDOW_STAGES} == dict.fromkeys(
        WINDOW_STAGES, len(reports))
    assert tracer.errors == []


def test_the_build_calls_pass_their_checks_and_count_under_the_tracer(monkeypatch, tmp_path):
    # The output checks read the saved artifacts (model.depth, ensemble.n_trees)
    # and the tracer's counters read the traced calls' arguments and results,
    # so a renamed artifact attribute fails here, not only in the benchmark.
    import json

    from botfuse.cli import main
    from fork_checks import in_process_only

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    w, scale = workloads.WORKLOADS["build-p2p"], workloads.SCALES["tiny"]
    workloads.generate(w, scale, 0, tmp_path)
    setup, timed = workloads.cli_calls(w, scale, tmp_path)
    assert [argv[0] for argv in setup + timed] == ["pretrain", "train", "eval"]
    expected = json.loads((tmp_path / "expected.json").read_text())
    checker = checks.Checker(w.arch, tmp_path, expected, golden=None)
    in_process_only(monkeypatch)  # a forked worker's counters stay in the worker
    tracer = tracing.Tracer()
    errors = []
    for argv in setup + timed:
        with tracer.installed():
            assert main(argv) == 0
        errors += checker.check(argv)
    assert errors == []
    assert tracer.errors == []
    totals = tracer.totals["setup"]
    for key in ("pretrain.epochs", "extra_trees.fit_rows", "extra_trees.tree_nodes",
                "metrics.folds"):
        assert totals[key] > 0, key
