"""Outside-in tracing of botfuse's public functions.

While installed, a ``Tracer`` swaps each traced function, in every botfuse
module that refers to it, for a wrapper that records a span (name, start,
end, parent) and adds the layer's counters. Spans stay in memory until the
run writes them out. Work the tracer does itself inside a span (counting,
replaying GCN layers one by one, re-routing rows to count tree steps) is
timed separately and left out of every enclosing span's busy time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MAX_DEPTH = 24

PER_LAYER = {
    "flow_ingest.parse_s": "s",
    "flow_ingest.rows": "count",
    "flow_ingest.malformed": "count",
    "flow_ingest.filtered_non_tcp_udp": "count",
    "flow_ingest.slice_s": "s",
    "flow_ingest.windows": "count",
    "flow_ingest.copies_per_flow": "ratio",
    "flow_features.s": "s",
    "flow_features.node_windows": "count",
    "comm_graph.build_s": "s",
    "comm_graph.propagation_s": "s",
    "comm_graph.edges": "count",
    "comm_graph.nnz": "count",
    "comm_graph.isolated_nodes": "count",
    "comm_graph.dropped_self_loops": "count",
    "gcn_core.forward_s": "s",
    **{f"gcn_core.layer{k:02d}_s": "s" for k in range(1, MAX_DEPTH + 1)},
    "gcn_core.flops": "flop",
    "gcn_core.backward_s": "s",
    "fusion_pipeline.normalize_s": "s",
    "fusion_pipeline.zeroed_vectors": "count",
    "fusion_pipeline.pool_s": "s",
    "fusion_pipeline.detect_s": "s",
    "extra_trees.predict_s": "s",
    "extra_trees.rows_scored": "count",
    "extra_trees.route_steps": "count",
    "extra_trees.fit_s": "s",
    "extra_trees.fit_rows": "count",
    "extra_trees.tree_nodes": "count",
    "pretrain.dataset_s": "s",
    "pretrain.s": "s",
    "pretrain.epochs": "count",
    "pretrain.s_per_epoch": "s",
    "metrics.kfold_s": "s",
    "metrics.folds": "count",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("name", "parent", "group", "start", "end", "hidden")

    def __init__(self, name, parent, group, start):
        self.name, self.parent, self.group, self.start = name, parent, group, start
        self.end = self.hidden = 0.0

    @property
    def busy(self) -> float:
        return self.end - self.start - self.hidden


class Tracer:
    """Spans and per-group counter totals of one benchmark run.

    ``group`` labels what the spans belong to: one set-up pass ("setup") or
    one timed iteration ("iter3").
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.errors: list[str] = []
        self.group = "setup"
        self._stack: list[int] = []
        self._hidden = 0.0
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, self.group, time.perf_counter() - self._t0)
        self.spans.append(s)
        self._stack.append(sid)
        hidden0 = self._hidden
        try:
            yield s
        finally:
            s.end = time.perf_counter() - self._t0
            s.hidden = self._hidden - hidden0
            self._stack.pop()

    @contextmanager
    def own_work(self):
        """Time spent here is the tracer's, not the enclosing spans'."""
        t = time.perf_counter()
        try:
            yield
        finally:
            self._hidden += time.perf_counter() - t

    def add(self, counts: dict) -> None:
        totals = self.totals[self.group]
        for key, value in counts.items():
            totals[key] += value

    def _wrap(self, name: str, fn, time_key: str | None, count):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            with self.own_work():
                self.add({time_key: s.busy} if time_key else {})
                if count is not None:
                    self.add(count(self, args, kwargs, out))
            return out

        return traced

    @contextmanager
    def installed(self):
        """Trace every function in TRACED for the duration of the block."""
        swapped = []
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("botfuse") and m]
        for modname, attr, name, time_key, count in TRACED:
            fn = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, fn, time_key, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        swapped.append((mod, key, fn))
        try:
            yield self
        finally:
            for mod, key, fn in swapped:
                setattr(mod, key, fn)

    def per_layer(self, iterations: list[str]) -> dict[str, float]:
        """Totals of one set-up pass plus the mean of the traced iterations."""
        summed = defaultdict(float)
        for group in iterations:
            for key, value in self.totals.get(group, {}).items():
                summed[key] += value
        out = defaultdict(float, self.totals.get("setup", {}))
        for key, value in summed.items():
            out[key] += value / len(iterations)
        flows = out.pop("_sliced_flows", 0.0)
        copies = out.pop("_window_records", 0.0)
        out["flow_ingest.copies_per_flow"] = copies / flows if flows else 0.0
        epochs = out["pretrain.epochs"]
        out["pretrain.s_per_epoch"] = out["pretrain.s"] / epochs if epochs else 0.0
        return {key: float(out[key]) for key in PER_LAYER if key != "trace.overhead_s"}

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "group": s.group,
             "start": s.start, "end": s.end, "busy": s.busy}
            for i, s in enumerate(self.spans)
        ]


# Counters computed from a traced call's arguments and result.

def _parse(tr, args, kwargs, out):
    return {"flow_ingest.rows": len(out.records), "flow_ingest.malformed": out.malformed}


def _filter(tr, args, kwargs, out):
    return {"flow_ingest.filtered_non_tcp_udp": len(args[0]) - len(out)}


def _slice(tr, args, kwargs, out):
    return {
        "flow_ingest.windows": len(out),
        "_sliced_flows": len(args[0]),
        "_window_records": sum(len(w.records) for w in out),
    }


def _features(tr, args, kwargs, out):
    return {"flow_features.node_windows": len(out)}


def _graph(tr, args, kwargs, out):
    return {"comm_graph.edges": len(out.edges),
            "comm_graph.dropped_self_loops": out.dropped_self_loops}


def _propagation(tr, args, kwargs, out):
    return {"comm_graph.nnz": out.nnz,
            "comm_graph.isolated_nodes": int((out.getnnz(axis=1) == 0).sum())}


def _forward(tr, args, kwargs, out):
    """Replay the stack one gcn_layer_forward per weight, timing each layer."""
    import numpy as np

    from botfuse.gcn_core import gcn_layer_forward

    model, P, X = args[0], args[1], np.asarray(args[2], dtype=np.float64)
    counts = {}
    flops = 0
    for k, W in enumerate(model.weights, start=1):
        with tr.span(f"gcn_core.layer{k:02d}") as s:
            X = gcn_layer_forward(P, X, W, model.residual_mode)
        counts[f"gcn_core.layer{k:02d}_s"] = s.busy
        flops += 2 * X.shape[0] * W.shape[0] * W.shape[1] + 2 * P.nnz * W.shape[1]
    counts["gcn_core.flops"] = flops
    with_head = kwargs.get("with_head", args[3] if len(args) > 3 else False)
    if not with_head and not np.array_equal(X, out):
        tr.errors.append("layer-by-layer replay differs from gcn_core.forward")
    return counts


def _normalize(tr, args, kwargs, out):
    import numpy as np

    M = np.asarray(args[0])
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "per_vector")
    axis = 1 if mode == "per_vector" else 0
    constant = M.max(axis=axis) == M.min(axis=axis) if M.size else []
    return {"fusion_pipeline.zeroed_vectors": int(np.sum(constant))}


def _route_steps(tree, X) -> int:
    """Sum over rows of the depth of the leaf each row reaches."""
    import numpy as np

    feature, threshold = tree["feature"], tree["threshold"]
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.nonzero(feature[node] >= 0)[0]
    steps = 0
    while rows.size:
        steps += rows.size
        cur = node[rows]
        goleft = X[rows, feature[cur]] < threshold[cur]
        node[rows] = np.where(goleft, tree["left"][cur], tree["right"][cur])
        rows = rows[feature[node[rows]] >= 0]
    return steps


def _predict(tr, args, kwargs, out):
    import numpy as np

    ensemble, X = args[0], np.asarray(args[1], dtype=np.float64)
    return {
        "extra_trees.rows_scored": X.shape[0],
        "extra_trees.route_steps": sum(_route_steps(t, X) for t in ensemble.trees),
    }


def _fit(tr, args, kwargs, out):
    return {"extra_trees.fit_rows": len(args[0]),
            "extra_trees.tree_nodes": sum(t["feature"].size for t in out.trees)}


def _pretrain(tr, args, kwargs, out):
    report = kwargs.get("report", args[3] if len(args) > 3 else None)
    return {"pretrain.epochs": len(report) if report is not None else 0}


def _kfold(tr, args, kwargs, out):
    return {"metrics.folds": len(out[0])}


# (module, function, span name, busy-time metric, counters)
TRACED = (
    ("botfuse.flow_ingest", "parse_flow_file", "flow_ingest.parse", "flow_ingest.parse_s", _parse),
    ("botfuse.flow_ingest", "filter_tcp_udp", "flow_ingest.filter", None, _filter),
    ("botfuse.flow_ingest", "slice_windows", "flow_ingest.slice", "flow_ingest.slice_s", _slice),
    ("botfuse.flow_features", "extract_node_features", "flow_features.extract",
     "flow_features.s", _features),
    ("botfuse.comm_graph", "build_graph", "comm_graph.build", "comm_graph.build_s", _graph),
    ("botfuse.comm_graph", "propagation_matrix", "comm_graph.propagation",
     "comm_graph.propagation_s", _propagation),
    ("botfuse.gcn_core", "forward", "gcn_core.forward", "gcn_core.forward_s", _forward),
    ("botfuse.gcn_core", "backward", "gcn_core.backward", "gcn_core.backward_s", None),
    ("botfuse.fusion_pipeline", "normalize_embedding", "fusion_pipeline.normalize",
     "fusion_pipeline.normalize_s", _normalize),
    ("botfuse.fusion_pipeline", "pool_labeled_rows", "fusion_pipeline.pool",
     "fusion_pipeline.pool_s", None),
    ("botfuse.fusion_pipeline", "train_detector", "fusion_pipeline.train", None, None),
    ("botfuse.fusion_pipeline", "detect", "fusion_pipeline.detect",
     "fusion_pipeline.detect_s", None),
    ("botfuse.extra_trees", "predict_proba", "extra_trees.predict", "extra_trees.predict_s",
     _predict),
    ("botfuse.extra_trees", "fit", "extra_trees.fit", "extra_trees.fit_s", _fit),
    ("botfuse.pretrain", "default_pretrain_dataset", "pretrain.dataset", "pretrain.dataset_s",
     None),
    ("botfuse.pretrain", "pretrain_gcn", "pretrain.train", "pretrain.s", _pretrain),
    ("botfuse.metrics", "kfold_cv", "metrics.kfold", "metrics.kfold_s", _kfold),
)
