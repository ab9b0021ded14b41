"""Synthetic graph generation, early stopping, and topology-only training."""

import numpy as np
import pytest

from botfuse import pretrain as pretrain_mod
from botfuse.comm_graph import LABEL_BOT, LABEL_LEGIT, LABEL_UNKNOWN, CommGraph, save_graph
from botfuse.gcn_core import FrozenModelError, backward, serialize_model
from botfuse.pretrain import (
    ARCH_DEPTH,
    BACKGROUND_ER,
    EarlyStopper,
    SyntheticGraphSpec,
    TrainConfig,
    _balanced_mask,
    default_graph_spec,
    default_pretrain_dataset,
    generate_synthetic_graph,
    load_graph_dataset,
    pretrain_gcn,
)

# Small dataset that still separates cleanly; converges in well under a second.
_FAST = dict(n_graphs=5, seed=0, n_background=160, n_bots=20)
_FAST_CFG = dict(lr=0.01, patience=60, max_epochs=400, hidden_dim=8)


def _neighbors(g, name):
    i = g.index(name)
    return {g.nodes[j] for a, j in g.edges if a == i}


def _tiny_graph(labels):
    nodes = [f"n{i}" for i in range(len(labels))]
    edges = set()
    for i in range(len(nodes) - 1):
        edges |= {(i, i + 1), (i + 1, i)}
    return CommGraph(
        nodes=nodes,
        edges=edges,
        features=np.ones((len(nodes), 5)),
        labels=np.asarray(labels, dtype=np.int8),
    )


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="architecture"):
            SyntheticGraphSpec(architecture="mesh", n_background=10, n_bots=2)
        with pytest.raises(ValueError, match="background model"):
            SyntheticGraphSpec(
                architecture="c2", n_background=10, n_bots=2, background_model="grid"
            )
        with pytest.raises(ValueError, match="positive"):
            SyntheticGraphSpec(architecture="c2", n_background=0, n_bots=2)
        with pytest.raises(ValueError, match="controller"):
            SyntheticGraphSpec(
                architecture="c2", n_background=10, n_bots=2, n_controllers=0
            )
        with pytest.raises(ValueError, match="mesh degree"):
            SyntheticGraphSpec(
                architecture="p2p", n_background=10, n_bots=4, p2p_degree=4
            )


class TestGenerate:
    def test_centralized_overlay_labels_and_wiring(self):
        spec = SyntheticGraphSpec(
            architecture="c2", n_background=30, n_bots=10, n_controllers=1, seed=1
        )
        g = generate_synthetic_graph(spec)
        assert g.n == 41
        assert g.nodes == sorted(g.nodes)
        for name in g.nodes:
            want = LABEL_LEGIT if name.startswith("h") else LABEL_BOT
            assert g.labels[g.index(name)] == want
        assert int((g.labels == LABEL_BOT).sum()) == 11
        # The lone controller serves every bot, plus background camouflage.
        ctl = _neighbors(g, "m000")
        assert sum(1 for v in ctl if v.startswith("b")) == 10
        for bot in (n for n in g.nodes if n.startswith("b")):
            nb = _neighbors(g, bot)
            assert "m000" in nb
            assert any(v.startswith("h") for v in nb)

    def test_mesh_overlay_degree(self):
        spec = SyntheticGraphSpec(
            architecture="p2p", n_background=30, n_bots=10, p2p_degree=4, seed=2
        )
        g = generate_synthetic_graph(spec)
        assert not any(n.startswith("m") for n in g.nodes)
        assert int((g.labels == LABEL_BOT).sum()) == 10
        for bot in (n for n in g.nodes if n.startswith("b")):
            nb = _neighbors(g, bot)
            assert sum(1 for v in nb if v.startswith("b")) >= 4

    def test_infeasible_mesh_rejected(self):
        spec = SyntheticGraphSpec(
            architecture="p2p", n_background=10, n_bots=5, p2p_degree=3
        )
        with pytest.raises(ValueError, match="even"):
            generate_synthetic_graph(spec)

    def test_edges_are_symmetric_and_loop_free(self):
        g = generate_synthetic_graph(
            SyntheticGraphSpec(architecture="c2", n_background=25, n_bots=6, seed=3)
        )
        pairs = set(map(tuple, g.edges.tolist()))
        assert pairs
        for a, b in pairs:
            assert a != b
            assert (b, a) in pairs

    def test_all_ones_features(self):
        g = generate_synthetic_graph(
            SyntheticGraphSpec(architecture="c2", n_background=12, n_bots=3, seed=4)
        )
        assert g.features.shape == (g.n, 5)
        assert (g.features == 1.0).all()

    def test_seed_determinism(self):
        spec = SyntheticGraphSpec(architecture="p2p", n_background=20, n_bots=6, seed=7)
        a = generate_synthetic_graph(spec)
        b = generate_synthetic_graph(spec)
        assert a.nodes == b.nodes
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.labels, b.labels)
        spec2 = SyntheticGraphSpec(architecture="p2p", n_background=20, n_bots=6, seed=8)
        assert not np.array_equal(generate_synthetic_graph(spec2).edges, a.edges)

    def test_meta_records_recipe(self):
        g = generate_synthetic_graph(
            SyntheticGraphSpec(architecture="c2", n_background=15, n_bots=4, seed=5)
        )
        assert g.meta["architecture"] == "c2"
        assert g.meta["n_background"] == 15
        assert g.meta["n_bots"] == 4
        assert g.meta["n_controllers"] == 1
        assert g.meta["seed"] == 5


class TestDefaults:
    def test_default_spec_shape(self):
        spec = default_graph_spec("c2", seed=9)
        assert spec.background_model == BACKGROUND_ER
        assert spec.er_p == pytest.approx(16.0 / spec.n_background)
        assert spec.n_controllers == 1
        assert default_graph_spec("p2p").p2p_degree == 4

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
        g = generate_synthetic_graph(
            SyntheticGraphSpec(architecture="c2", n_background=10, n_bots=2, seed=0)
        )
        save_graph(g, tmp_path / "one.json")
        assert len(load_graph_dataset(tmp_path / "one.json")) == 1

    def test_zero_features_become_ones(self, tmp_path):
        g = _tiny_graph([LABEL_BOT, LABEL_LEGIT, LABEL_LEGIT])
        g.features = np.zeros((3, 5))
        save_graph(g, tmp_path / "z.json")
        (loaded,) = load_graph_dataset(tmp_path / "z.json")
        assert (loaded.features == 1.0).all()

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


class TestEarlyStopper:
    def test_zero_patience_stops_on_first_plateau(self):
        s = EarlyStopper(patience=0)
        assert not s.update(0, 0.5)
        assert s.update(1, 0.5)
        assert s.best == 0.5
        assert s.best_epoch == 0

    def test_ties_are_not_improvements(self):
        s = EarlyStopper(patience=1)
        assert not s.update(0, 0.8)
        assert not s.update(1, 0.8)
        assert s.update(2, 0.8)
        assert s.best_epoch == 0

    def test_improvement_resets_counter(self):
        s = EarlyStopper(patience=1)
        assert not s.update(0, 0.5)
        assert not s.update(1, 0.4)
        assert not s.update(2, 0.6)
        assert not s.update(3, 0.6)
        assert s.update(4, 0.55)
        assert s.best == 0.6
        assert s.best_epoch == 2


class TestTrainConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="val_fraction"):
            TrainConfig(val_fraction=0.0)
        with pytest.raises(ValueError, match="max_epochs"):
            TrainConfig(max_epochs=0)
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=-1)


class TestBalancedMask:
    def test_mask_keeps_all_bots_and_matched_background(self):
        labels = np.array([LABEL_BOT] * 3 + [LABEL_LEGIT] * 10, dtype=np.int8)
        rng = np.random.default_rng(0)
        mask = _balanced_mask(labels, 1.0, rng)
        assert mask[:3].all()
        assert int(mask[3:].sum()) == 3
        mask2 = _balanced_mask(labels, 2.0, np.random.default_rng(0))
        assert int(mask2[3:].sum()) == 6
        # Ratio beyond the available background saturates.
        mask3 = _balanced_mask(labels, 100.0, np.random.default_rng(0))
        assert int(mask3[3:].sum()) == 10


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
