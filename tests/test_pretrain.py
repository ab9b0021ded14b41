"""Synthetic graph generation, early stopping, and topology-only training."""

import json

import numpy as np
import pytest

from botfuse import pretrain as pretrain_mod
from botfuse.comm_graph import (
    LABEL_BOT, LABEL_LEGIT, LABEL_UNKNOWN, CommGraph, graph_to_json, save_graph,
)
from botfuse.gcn_core import FrozenModelError, backward, init_gcn, serialize_model
from botfuse.pretrain import (
    ARCH_DEPTH,
    TrainConfig,
    default_pretrain_dataset,
    generate_synthetic_graph,
    load_graph_dataset,
    pretrain_gcn,
)

# Small dataset that still separates cleanly; converges in well under a second.
_FAST = dict(n_graphs=5, seed=0, n_background=160, n_bots=20)
_FAST_CFG = dict(lr=0.01, patience=60, max_epochs=400, hidden_dim=8)


def _neighbors(g, name):
    i = g.nodes.index(name)
    return {g.nodes[j] for a, j in g.edges if a == i}


def _tiny_graph(labels):
    nodes = [f"n{i}" for i in range(len(labels))]
    edges = set()
    for i in range(len(nodes) - 1):
        edges |= {(i, i + 1), (i + 1, i)}
    return CommGraph(
        nodes=nodes,
        edges=edges,
        labels=np.asarray(labels, dtype=np.int8),
    )


class TestGenerate:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="architecture"):
            generate_synthetic_graph("mesh", n_background=10, n_bots=2)
        for n_background, n_bots in [(0, 2), (10, 0), (-1, 2), (10, -3)]:
            with pytest.raises(ValueError, match="positive"):
                generate_synthetic_graph("c2", n_background=n_background, n_bots=n_bots)

    def test_centralized_overlay_labels_and_wiring(self):
        g = generate_synthetic_graph("c2", n_background=30, n_bots=10, seed=1)
        assert g.n == 41
        assert g.nodes == sorted(g.nodes)
        for name in g.nodes:
            want = LABEL_LEGIT if name.startswith("h") else LABEL_BOT
            assert g.labels[g.nodes.index(name)] == want
        assert int((g.labels == LABEL_BOT).sum()) == 11
        assert [n for n in g.nodes if n.startswith("m")] == ["m000"]
        # The lone controller serves every bot, plus background camouflage.
        ctl = _neighbors(g, "m000")
        assert sum(1 for v in ctl if v.startswith("b")) == 10
        for bot in (n for n in g.nodes if n.startswith("b")):
            nb = _neighbors(g, bot)
            assert "m000" in nb
            assert any(v.startswith("h") for v in nb)

    def test_mesh_overlay_degree(self):
        g = generate_synthetic_graph("p2p", n_background=30, n_bots=10, seed=2)
        assert not any(n.startswith("m") for n in g.nodes)
        assert int((g.labels == LABEL_BOT).sum()) == 10
        for bot in (n for n in g.nodes if n.startswith("b")):
            nb = _neighbors(g, bot)
            assert sum(1 for v in nb if v.startswith("b")) == 4
            assert any(v.startswith("h") for v in nb)

    def test_infeasible_mesh_rejected(self):
        # A 4-regular mesh needs at least five bots.
        for n_bots in (1, 4):
            with pytest.raises(ValueError, match="4-regular mesh needs more than 4 bots"):
                generate_synthetic_graph("p2p", n_background=10, n_bots=n_bots)
        assert generate_synthetic_graph("p2p", n_background=10, n_bots=5).n == 15

    def test_edges_are_symmetric_and_loop_free(self):
        g = generate_synthetic_graph("c2", n_background=25, n_bots=6, seed=3)
        pairs = set(map(tuple, g.edges.tolist()))
        assert pairs
        for a, b in pairs:
            assert a != b
            assert (b, a) in pairs

    def test_all_ones_features(self, monkeypatch):
        # A synthetic graph stores no features: pretraining feeds every pass
        # an all-ones (n, 5) input.
        graphs = [generate_synthetic_graph("c2", n_background=12 + i, n_bots=3, seed=4 + i)
                  for i in range(3)]
        assert all("features" not in graph_to_json(g) for g in graphs)
        inputs = []

        def recorded(fn):
            def wrapper(model, P, X, *args, **kwargs):
                inputs.append(X)
                return fn(model, P, X, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(pretrain_mod, "backward", recorded(backward))
        monkeypatch.setattr(pretrain_mod, "forward", recorded(pretrain_mod.forward))
        pretrain_gcn(graphs, depth=2, config=TrainConfig(seed=0, patience=1, max_epochs=2))
        assert inputs
        assert {X.shape for X in inputs} <= {(g.n, 5) for g in graphs}
        assert all((X == 1.0).all() for X in inputs)

    def test_seed_determinism(self):
        a = generate_synthetic_graph("p2p", n_background=20, n_bots=6, seed=7)
        b = generate_synthetic_graph("p2p", n_background=20, n_bots=6, seed=7)
        assert a.nodes == b.nodes
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic_graph("p2p", n_background=20, n_bots=6, seed=8)
        assert not np.array_equal(c.edges, a.edges)

    def test_meta_records_recipe(self):
        g = generate_synthetic_graph("c2", n_background=15, n_bots=4, seed=5)
        assert g.meta == {
            "architecture": "c2",
            "background_model": "erdos_renyi",
            "n_background": 15,
            "n_bots": 4,
            "n_controllers": 1,
            "seed": 5,
        }
        assert generate_synthetic_graph("p2p", 15, 6).meta["n_controllers"] == 0


class TestDefaults:
    def test_default_spec_shape(self):
        for arch, n_ctl in (("c2", 1), ("p2p", 0)):
            g = generate_synthetic_graph(arch, seed=9)
            assert g.n == 880 + 110 + n_ctl
            assert g.meta["n_controllers"] == n_ctl
            assert g.meta["background_model"] == "erdos_renyi"
            # Background-background links average 16 per background node.
            bg = g.labels[g.edges] == LABEL_LEGIT
            mean_degree = int(bg.all(axis=1).sum()) / 880
            assert 15.0 < mean_degree < 17.0

    def test_default_dataset_varies_seed(self):
        graphs = default_pretrain_dataset("c2", n_graphs=3, seed=2, n_background=40, n_bots=8)
        assert len(graphs) == 3
        assert all(g.n == 49 for g in graphs)
        assert not np.array_equal(graphs[0].edges, graphs[1].edges)
        assert [g.meta["seed"] for g in graphs] == [2, 3, 4]

    def test_arch_depth_table(self):
        assert ARCH_DEPTH == {"c2": 12, "p2p": 24}


class TestLoadDataset:
    def test_directory_round_trip(self, tmp_path):
        originals = default_pretrain_dataset("c2", n_graphs=3, seed=1, n_background=20, n_bots=5)
        for i, g in enumerate(originals):
            save_graph(g, tmp_path / f"g{i}.json")
        loaded = load_graph_dataset(tmp_path)
        assert len(loaded) == 3
        for orig, got in zip(originals, loaded):
            assert got.nodes == orig.nodes
            assert np.array_equal(got.edges, orig.edges)
            assert np.array_equal(got.labels, orig.labels)

    def test_single_file(self, tmp_path):
        g = generate_synthetic_graph("c2", n_background=10, n_bots=2, seed=0)
        save_graph(g, tmp_path / "one.json")
        assert len(load_graph_dataset(tmp_path / "one.json")) == 1

    def test_stored_features_do_not_change_pretraining(self, tmp_path):
        # Older graph files store a feature matrix; the reader ignores it,
        # whatever it holds, and pretraining gets the same bytes.
        graphs = default_pretrain_dataset("c2", n_graphs=4, seed=1, n_background=40, n_bots=8)
        cfg = TrainConfig(seed=3, patience=3, max_epochs=12, hidden_dim=4)
        blobs = {serialize_model(pretrain_gcn(graphs, depth=2, config=cfg))}
        for kind in ("absent", "ones", "zeros", "random", "wrong_shape", "not_numbers"):
            (tmp_path / kind).mkdir()
            for i, g in enumerate(graphs):
                payload = graph_to_json(g)
                stored = {
                    "ones": [[1.0] * 5] * g.n,
                    "zeros": [[0.0] * 5] * g.n,
                    "random": np.random.default_rng(i).random((g.n, 5)).tolist(),
                    "wrong_shape": [[1.0, 2.0]] * g.n,
                    "not_numbers": [["x"] * 5] * g.n,
                }
                if kind in stored:
                    payload["features"] = stored[kind]
                (tmp_path / kind / f"g{i}.json").write_text(json.dumps(payload))
            loaded = load_graph_dataset(tmp_path / kind)
            blobs.add(serialize_model(pretrain_gcn(loaded, depth=2, config=cfg)))
        assert len(blobs) == 1

    def test_unlabeled_graphs_rejected(self, tmp_path):
        g = _tiny_graph([LABEL_UNKNOWN, LABEL_UNKNOWN, LABEL_UNKNOWN])
        save_graph(g, tmp_path / "u.json")
        with pytest.raises(ValueError, match="missing labels"):
            load_graph_dataset(tmp_path / "u.json")

    def test_missing_paths(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph_dataset(tmp_path / "nope")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no graph files"):
            load_graph_dataset(empty)


def _pretrain_run(patience, max_epochs=200):
    dataset = default_pretrain_dataset("c2", n_graphs=5, seed=0, n_background=160, n_bots=20)
    cfg = TrainConfig(seed=0, lr=0.01, patience=patience, max_epochs=max_epochs, hidden_dim=8)
    report = []
    model = pretrain_gcn(dataset, depth=3, config=cfg, report=report)
    return serialize_model(model), [r["val_acc"] for r in report]


class TestEarlyStopper:
    """Early stopping on validation accuracy inside pretrain_gcn."""

    def test_zero_patience_stops_on_first_plateau(self):
        _, accs = _pretrain_run(patience=0)
        assert len(accs) >= 2
        assert accs[-1] <= max(accs[:-1])
        assert all(b > a for a, b in zip(accs[:-2], accs[1:-1]))

    def test_ties_are_not_improvements(self):
        blob, accs = _pretrain_run(patience=8)
        best_epoch = accs.index(max(accs))
        # The run must tie its best later on, or this checks nothing.
        assert accs[best_epoch + 1:].count(max(accs)) >= 2
        rerun, rerun_accs = _pretrain_run(patience=8, max_epochs=best_epoch + 1)
        assert rerun_accs == accs[: best_epoch + 1]
        assert rerun == blob

    def test_improvement_resets_counter(self):
        for patience in (0, 3, 8):
            _, accs = _pretrain_run(patience)
            best_epoch = accs.index(max(accs))
            assert len(accs) == best_epoch + patience + 2
        # With patience 8 the best epoch comes after earlier improvements
        # and non-improving epochs, so the count restarted at each improvement.
        assert best_epoch > 0 and any(b <= a for a, b in zip(accs, accs[1:best_epoch + 1]))


class TestTrainConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="val_fraction"):
            TrainConfig(val_fraction=0.0)
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=-1)
        for lr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr must be finite and > 0"):
                TrainConfig(lr=lr)


class TestBalancedMask:
    def test_mask_keeps_all_bots_and_matched_background(self, monkeypatch):
        masks = []

        def recorded(model, P, X, y, mask, **kwargs):
            masks.append((y.copy(), mask.copy()))
            return backward(model, P, X, y, mask, **kwargs)

        monkeypatch.setattr(pretrain_mod, "backward", recorded)
        # 9 bots among 40 background nodes, and 13 bots among 5.
        dataset = [generate_synthetic_graph("c2", n_background=40, n_bots=8, seed=s)
                   for s in range(3)]
        dataset += [generate_synthetic_graph("c2", n_background=5, n_bots=12, seed=s)
                    for s in range(3)]
        pretrain_gcn(dataset, depth=2, config=TrainConfig(max_epochs=1, hidden_dim=4))
        saturated = set()
        for y, mask in masks:
            n_bots, n_legit = int(y.sum()), int((y == 0).sum())
            assert mask[y == 1].all()
            assert int(mask[y == 0].sum()) == min(n_bots, n_legit)
            saturated.add(n_legit < n_bots)
        # Both a matched and a saturated mask were trained on.
        assert saturated == {False, True}


class TestPretrain:
    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty dataset"):
            pretrain_gcn([], depth=2)
        unlabeled = _tiny_graph([LABEL_BOT, LABEL_LEGIT, LABEL_LEGIT])
        unlabeled.labels = None
        with pytest.raises(ValueError, match="labeled"):
            pretrain_gcn([unlabeled], depth=2)
        flat = _tiny_graph([LABEL_LEGIT, LABEL_LEGIT, LABEL_LEGIT])
        with pytest.raises(ValueError, match="single class"):
            pretrain_gcn([flat], depth=2)
        one = _tiny_graph([LABEL_BOT, LABEL_LEGIT, LABEL_LEGIT])
        with pytest.raises(ValueError, match="too small"):
            pretrain_gcn([one], depth=2)

    @pytest.mark.parametrize("arch", ["c2", "p2p"])
    def test_converges_on_separable_graphs(self, arch):
        dataset = default_pretrain_dataset(arch, **_FAST)
        report = []
        model = pretrain_gcn(
            dataset, depth=4, config=TrainConfig(seed=0, **_FAST_CFG), report=report
        )
        best = max(r["val_acc"] for r in report)
        assert best >= 0.9
        assert model.frozen
        assert model.depth == 4
        assert model.hidden_dim == 8
        # Early stopping engaged well before the epoch cap.
        assert len(report) < 400
        assert [r["epoch"] for r in report] == list(range(len(report)))
        assert all(np.isfinite(r["loss"]) for r in report)
        assert all(0.0 <= r["val_acc"] <= 1.0 for r in report)

    def test_returned_model_is_frozen_for_training(self):
        dataset = default_pretrain_dataset("c2", n_graphs=5, seed=0, n_background=30, n_bots=6)
        model = pretrain_gcn(
            dataset, depth=2, config=TrainConfig(seed=0, patience=2, max_epochs=5, hidden_dim=4)
        )
        g = dataset[0]
        from botfuse.comm_graph import propagation_matrix

        P = propagation_matrix(g)
        X = np.ones((g.n, 5))
        y = (g.labels == LABEL_BOT).astype(np.int64)
        with pytest.raises(FrozenModelError):
            backward(model, P, X, y, np.ones(g.n, dtype=bool))

    def test_first_layer_moves_every_feature_row_alike(self):
        """Pretraining feeds all-ones inputs, so the first layer's gradient
        X0.T @ G has five equal rows, and Adam, which is elementwise, moves all
        five rows of W0 by one shared vector. Each flow feature therefore
        enters the fused network along its seeded random row plus that offset:
        pretraining cannot learn how the features differ."""
        dataset = default_pretrain_dataset("c2", n_graphs=3, seed=0, n_background=60, n_bots=10)
        model = pretrain_gcn(dataset, 3, TrainConfig(seed=0, patience=3, max_epochs=8))
        moved = model.weights[0] - init_gcn(3, seed=0).weights[0]
        assert np.abs(moved - moved[0]).max() <= 1e-12
        assert np.abs(moved).max() > 1e-4

    def test_determinism(self):
        cfg = TrainConfig(seed=3, patience=5, max_epochs=30, hidden_dim=4)
        blobs, reports = [], []
        for _ in range(2):
            dataset = default_pretrain_dataset("c2", n_graphs=4, seed=1, n_background=40, n_bots=8)
            report = []
            model = pretrain_gcn(dataset, depth=3, config=cfg, report=report)
            blobs.append(serialize_model(model))
            reports.append(report)
        assert blobs[0] == blobs[1]
        assert reports[0] == reports[1]

    def test_every_pass_shares_one_workspace(self, monkeypatch):
        calls = []

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, kwargs.get("work")))
                return fn(*args, **kwargs)

            return wrapper

        # pretrain_gcn calls both by their module names, as the benchmark's
        # tracer requires.
        monkeypatch.setattr(pretrain_mod, "backward", recorded("backward", backward))
        monkeypatch.setattr(pretrain_mod, "forward", recorded("forward", pretrain_mod.forward))
        dataset = (default_pretrain_dataset("c2", n_graphs=2, seed=1, n_background=40, n_bots=8)
                   + default_pretrain_dataset("c2", n_graphs=3, seed=5, n_background=25,
                                              n_bots=5))
        cfg = TrainConfig(seed=3, patience=2, max_epochs=4, hidden_dim=4)
        pretrain_gcn(dataset, depth=3, config=cfg)
        names = [name for name, _ in calls]
        assert names.count("backward") == 4 * 4 and names.count("forward") == 4
        work = calls[0][1]
        n_max = max(g.n for g in dataset)
        assert len(work) == 4
        assert all(slot.dtype == np.float64 and slot.shape == (n_max, 4) for slot in work)
        assert all(w is work for _, w in calls)
