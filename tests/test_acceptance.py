"""Acceptance suite: one test per shipping criterion, in order.

Every test prints a single `[PASS]`/`[FAIL]` line with the measured numbers
before asserting, so the verdicts stay visible in the captured run log.
"""

import json
import time

import numpy as np

from botfuse import extra_trees
from botfuse.cli import main as cli_main
from botfuse.comm_graph import (
    CommGraph,
    load_graph,
    propagation_matrix,
    save_graph,
)
from botfuse.flow_features import extract_node_features
from botfuse.flow_ingest import (
    FlowRecord,
    Proto,
    WindowSlice,
    encode_flows,
)
from botfuse.gcn_core import (
    deserialize_model,
    init_gcn,
    serialize_model,
)
from botfuse.fusion_pipeline import (
    detect,
    json_lines,
    normalize_embedding,
    pool_labeled_rows,
    train_detector,
)
from botfuse.metrics import kfold_cv, rank_auc
from botfuse.pretrain import (
    ARCH_DEPTH,
    TrainConfig,
    default_pretrain_dataset,
    pretrain_gcn,
)
from botfuse.synth_flows import FlowBenchSpec, generate_flow_benchmark
from csr_checks import as_scipy
from oracles import (
    brute_force_features,
    dense_propagation,
    gradcheck,
    oracle_proba,
    pairs_auc,
)

# Heavyweight artifacts shared between criteria; built once per session.
_MODELS: dict = {}
_BENCH: dict = {}


def _pretrained(arch):
    """Full-scale frozen feature extractor, cached per architecture."""
    if arch not in _MODELS:
        t0 = time.perf_counter()
        dataset = default_pretrain_dataset(arch, n_graphs=6, seed=0)
        report: list = []
        model = pretrain_gcn(
            dataset,
            ARCH_DEPTH[arch],
            TrainConfig(seed=0, patience=40, max_epochs=500),
            report=report,
        )
        best = max(r["val_acc"] for r in report)
        _MODELS[arch] = (model, best, len(report), time.perf_counter() - t0)
    return _MODELS[arch]


def _benchmark(arch, seed):
    if (arch, seed) not in _BENCH:
        spec = FlowBenchSpec(architecture=arch, seed=seed)
        _BENCH[(arch, seed)] = encode_flows(generate_flow_benchmark(spec))
    return _BENCH[(arch, seed)]


def _finish(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_comm_graph(rng, n):
    nodes = [f"v{i:04d}" for i in range(n)]
    edges = set()
    for _ in range(3 * n):
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i != j:
            edges.add((i, j))
    return CommGraph(nodes=nodes, edges=edges)


def test_criterion_01_propagation_matches_dense_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_diff = 0.0
    worst_rho = 0.0
    symmetric = True
    for _ in range(100):
        graph = _random_comm_graph(rng, int(rng.integers(2, 201)))
        P = as_scipy(propagation_matrix(graph))
        worst_diff = max(worst_diff, float(np.abs(P.toarray() - dense_propagation(graph)).max()))
        symmetric = symmetric and (P != P.T).nnz == 0
        worst_rho = max(worst_rho, float(np.abs(np.linalg.eigvalsh(P.toarray())).max()))
    elapsed = time.perf_counter() - t0
    ok = worst_diff < 1e-12 and symmetric and worst_rho <= 1.0 + 1e-9 and elapsed < 10.0
    _finish(
        capsys, 1,
        ok,
        f"100 graphs (n<=200): max |sparse-dense|={worst_diff:.2e}, symmetry exact={symmetric}, "
        f"max spectral radius={worst_rho:.9f}, {elapsed:.1f}s",
    )


def _gradcheck_worst(depth, seed):
    """Worst elementwise relative error vs central differences over all params."""
    rng = np.random.default_rng(seed)
    n = 10
    graph = _random_comm_graph(rng, n)
    P = propagation_matrix(graph)
    model = init_gcn(depth, 5, 6, seed=seed)
    X = rng.standard_normal((n, 5))
    y = (rng.random(n) < 0.5).astype(np.int64)
    y[:2] = [0, 1]
    mask = np.ones(n, dtype=bool)
    return gradcheck(model, P, X, y, mask)


def test_criterion_02_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    worst = {depth: _gradcheck_worst(depth, seed=200 + depth) for depth in (2, 4)}
    elapsed = time.perf_counter() - t0
    ok = all(w < 1e-4 for w in worst.values()) and elapsed < 60.0
    _finish(
        capsys, 2,
        ok,
        f"central differences (eps=1e-5) on 10-node graphs: worst rel err "
        f"depth2={worst[2]:.2e}, depth4={worst[4]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_normalization_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    checks = []
    checks.append(np.array_equal(normalize_embedding([[1.0, 2.0, 3.0]]), [[0.0, 50.0, 100.0]]))
    in_range = True
    for _ in range(50):
        out = normalize_embedding(rng.standard_normal((1, int(rng.integers(2, 40)))) * 50)
        in_range = in_range and out.min() >= 0.0 and out.max() <= 100.0
    checks.append(in_range)
    checks.append(np.array_equal(normalize_embedding([[4.2, 4.2, 4.2]]), np.zeros((1, 3))))
    M = rng.standard_normal((20, 8))
    checks.append(
        np.allclose(
            normalize_embedding(3.7 * M, "per_vector"),
            normalize_embedding(M, "per_vector"),
            rtol=1e-12, atol=1e-9,
        )
    )
    checks.append(
        np.array_equal(
            normalize_embedding(8.0 * M, "per_vector"),
            normalize_embedding(M, "per_vector"),
        )
    )
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    _finish(
        capsys, 3,
        ok,
        f"range/[1,2,3]/constant/scale-invariance checks all hold, {elapsed:.2f}s",
    )


def test_criterion_04_flow_feature_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    records = []
    for _ in range(1000):
        records.append(
            FlowRecord(
                ts_start=float(rng.uniform(0.0, 60.0)),
                duration=float(rng.exponential(3.0)),
                proto=Proto.TCP if rng.random() < 0.8 else Proto.UDP,
                src_ip=f"10.0.0.{int(rng.integers(0, 40))}",
                src_port=int(rng.integers(1024, 65536)),
                dst_ip=f"10.0.1.{int(rng.integers(0, 40))}",
                dst_port=int(rng.integers(1, 1024)),
                # A third of each side's counts are zero, so about half
                # the flows fail and the oracle's success rule is exercised.
                src_bytes=int(rng.integers(0, 3)) * int(rng.integers(0, 5000)),
                dst_bytes=int(rng.integers(0, 3)) * int(rng.integers(0, 5000)),
            )
        )
    window = WindowSlice(0.0, encode_flows(records))
    matrix = extract_node_features(window)
    got = dict(zip(window.node_index[0], map(tuple, matrix.tolist())))
    want = brute_force_features(records)
    exact = set(got) == set(want) and all(row == want[node] for node, row in got.items())
    endpoint_events = int(matrix[:, :2].sum())
    identity = endpoint_events == 2 * len(records)
    elapsed = time.perf_counter() - t0
    ok = exact and identity and elapsed < 5.0
    _finish(
        capsys, 4,
        ok,
        f"1000 flows: brute-force aggregator matches exactly={exact}, "
        f"conn+fail total {endpoint_events} == 2x flows={identity}, {elapsed:.1f}s",
    )


def test_criterion_05_pretraining_convergence(capsys):
    t0 = time.perf_counter()
    parts = []
    ok = True
    for arch in ("c2", "p2p"):
        _, best, epochs, _ = _pretrained(arch)
        ok = ok and best >= 0.95 and epochs < 500
        parts.append(f"{arch} depth-{ARCH_DEPTH[arch]} val_acc={best:.4f} ({epochs} epochs)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _finish(capsys, 5, ok, f"6 graphs x ~1000 nodes: {', '.join(parts)}, {elapsed:.0f}s")


def test_criterion_06_end_to_end_cross_validation(capsys):
    t0 = time.perf_counter()
    parts = []
    ok = True
    for arch in ("c2", "p2p"):
        model = _pretrained(arch)[0]
        X, y, _ = pool_labeled_rows(_benchmark(arch, 0), model, 60.0, 10.0)
        _, summary = kfold_cv(X, y, k=10, seed=0)
        recall = summary["mean"]["recall"]
        fpr = summary["mean"]["fpr"]
        ok = ok and recall >= 0.90 and fpr <= 0.05
        parts.append(f"{arch} recall={recall:.4f} fpr={fpr:.4f} (n={y.size})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _finish(capsys, 6, ok, f"10-fold CV: {', '.join(parts)}, {elapsed:.0f}s")


def test_criterion_07_ablation_direction(capsys):
    model = _pretrained("c2")[0]
    f1 = {"fused": [], "topology_only": []}
    recall = {"fused": [], "flow_only": []}
    seeds = range(5)
    for seed in seeds:
        flows = _benchmark("c2", seed)
        for variant in ("fused", "topology_only", "flow_only"):
            X, y, _ = pool_labeled_rows(
                flows, model, 60.0, 10.0, norm_mode="per_dimension", variant=variant
            )
            _, summary = kfold_cv(X, y, k=5, seed=seed)
            if variant in f1:
                f1[variant].append(summary["mean"]["f1"])
            if variant in recall:
                recall[variant].append(summary["mean"]["recall"])
    mean_f1_fused = float(np.mean(f1["fused"]))
    mean_f1_topo = float(np.mean(f1["topology_only"]))
    mean_rec_fused = float(np.mean(recall["fused"]))
    mean_rec_flow = float(np.mean(recall["flow_only"]))
    ok = mean_f1_fused > mean_f1_topo and mean_rec_fused >= mean_rec_flow
    _finish(
        capsys, 7,
        ok,
        f"5 seeds, 5-fold CV: mean F1 fused={mean_f1_fused:.4f} > "
        f"topology-only={mean_f1_topo:.4f}; mean recall fused={mean_rec_fused:.4f} >= "
        f"flow-only={mean_rec_flow:.4f}",
    )


def test_criterion_08_tree_ensemble_correctness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    X = rng.standard_normal((200, 4)) * 0.3
    y = (rng.random(200) < 0.5).astype(np.int64)
    X[:, 0] += np.where(y == 1, 2.0, -2.0)
    ens = extra_trees.fit(X, y, n_trees=50, seed=0)
    train_acc = float(((extra_trees.predict_proba(ens, X) >= 0.5) == y).mean())

    Q = rng.standard_normal((60, 4))
    got = extra_trees.predict_proba(ens, Q)
    proba_exact = np.array_equal(got, oracle_proba(ens, Q))

    auc_exact = True
    for _ in range(50):
        n = int(rng.integers(5, 60))
        yy = (rng.random(n) < 0.5).astype(np.int64)
        yy[:2] = [0, 1]
        pp = rng.integers(0, 8, size=n) / 8.0
        auc_exact = auc_exact and rank_auc(yy, pp) == pairs_auc(yy, pp)

    elapsed = time.perf_counter() - t0
    ok = train_acc == 1.0 and proba_exact and auc_exact and elapsed < 30.0
    _finish(
        capsys, 8,
        ok,
        f"separable train acc={train_acc:.1f}, proba==routing oracle={proba_exact}, "
        f"AUC==all-pairs oracle on 50 instances={auc_exact}, {elapsed:.1f}s",
    )


def test_criterion_09_determinism_and_persistence(capsys, tmp_path):
    t0 = time.perf_counter()

    def small_model():
        dataset = default_pretrain_dataset("c2", n_graphs=4, seed=1, n_background=40, n_bots=8)
        return pretrain_gcn(
            dataset, depth=2,
            config=TrainConfig(seed=2, patience=3, max_epochs=15, hidden_dim=8),
        )

    m1, m2 = small_model(), small_model()
    model_bytes = serialize_model(m1)
    models_identical = model_bytes == serialize_model(m2)
    model_round_trip = serialize_model(deserialize_model(model_bytes)) == model_bytes

    rng = np.random.default_rng(9)
    X = rng.standard_normal((80, 8))
    yy = (rng.random(80) < 0.5).astype(np.int64)
    yy[:2] = [0, 1]
    e1 = extra_trees.fit(X, yy, n_trees=20, seed=3)
    e2 = extra_trees.fit(X, yy, n_trees=20, seed=3)
    ens_bytes = extra_trees.serialize_ensemble(e1)
    ensembles_identical = ens_bytes == extra_trees.serialize_ensemble(e2)
    ens_round_trip = (
        extra_trees.serialize_ensemble(extra_trees.deserialize_ensemble(ens_bytes)) == ens_bytes
    )

    spec = FlowBenchSpec(
        architecture="c2", n_background=60, n_bots=8, n_scanners=2,
        n_background_flows=150, scan_flows_per_host=30, seed=9,
    )
    flows = encode_flows(generate_flow_benchmark(spec))
    detector = train_detector(flows, m1, 60.0, 10.0, n_trees=20, seed=4)
    r1 = list(json_lines(detect(flows, m1, detector), "c2", include_timings=False))
    r2 = list(json_lines(detect(flows, m1, detector), "c2", include_timings=False))
    reports_identical = r1 == r2

    g = default_pretrain_dataset("c2", n_graphs=1, seed=5, n_background=20, n_bots=4)[0]
    save_graph(g, tmp_path / "g.json")
    g2 = load_graph(tmp_path / "g.json")
    graph_round_trip = (
        g2.nodes == g.nodes
        and np.array_equal(g2.edges, g.edges)
        and np.array_equal(g2.labels, g.labels)
        and g2.meta == g.meta
    )

    elapsed = time.perf_counter() - t0
    ok = (
        models_identical and model_round_trip
        and ensembles_identical and ens_round_trip
        and reports_identical and graph_round_trip
        and elapsed < 120.0
    )
    _finish(
        capsys, 9,
        ok,
        f"byte-identical reruns (model={models_identical}, ensemble={ensembles_identical}, "
        f"report={reports_identical}); round-trips identity (model={model_round_trip}, "
        f"ensemble={ens_round_trip}, graph={graph_round_trip}), {elapsed:.0f}s",
    )


def test_criterion_10_external_graph_corpus_pretrains(capsys, tmp_path):
    # Stands in for a user-converted corpus arriving via the interchange
    # format: the pretrain command must complete and report accuracy, with
    # the reached value informational only.
    corpus = tmp_path / "converted"
    corpus.mkdir()
    graphs = default_pretrain_dataset("c2", n_graphs=5, seed=7, n_background=120, n_bots=20)
    for i, g in enumerate(graphs):
        save_graph(g, corpus / f"converted_{i:02d}.json")
    model_path = tmp_path / "external.bin"
    report_path = tmp_path / "external_report.jsonl"
    rc = cli_main([
        "pretrain", "--arch", "c2", "--data", str(corpus), "--depth", "12",
        "--lr", "0.01", "--max-epochs", "400", "--patience", "60",
        "--out", str(model_path), "--report", str(report_path),
    ])
    capsys.readouterr()
    rows = [json.loads(line) for line in report_path.read_text().splitlines()]
    best = max((r["val_acc"] for r in rows), default=float("nan"))
    ok = rc == 0 and model_path.is_file() and bool(rows)
    _finish(
        capsys, 10,
        ok,
        f"pretrain command on 5 interchange-format graphs: exit={rc}, "
        f"best val_acc={best:.4f} (informational, not asserted)",
    )
