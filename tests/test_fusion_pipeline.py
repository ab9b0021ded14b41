"""Pipeline orchestration: normalization, embedding, pooling, train, detect."""

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botfuse import extra_trees, fusion_pipeline
from botfuse.comm_graph import build_graph, propagation_matrix
from botfuse.flow_features import extract_node_features
from botfuse.flow_ingest import (
    FlowRecord, Label, Proto, WindowSlice, derive_node_labels, slice_windows,
)
from botfuse.gcn_core import init_gcn, forward
from botfuse.fusion_pipeline import (
    DetectionReport,
    PipelineConfig,
    VARIANT_FLOW,
    VARIANT_FUSED,
    VARIANT_TOPOLOGY,
    WindowReport,
    detect,
    embed_window,
    normalize_embedding,
    pool_labeled_rows,
    train_detector,
)
from botfuse.synth_flows import FlowBenchSpec, generate_flow_benchmark
from fork_checks import assert_no_child_left, counted_forks, in_process_only


def _flow(src, dst, ts=0.0, dur=1.0, sb=100, db=50, label=Label.UNKNOWN):
    return FlowRecord(ts, dur, Proto.TCP, src, 40000, dst, 80, sb, db, label)


def _window(records, start=0.0):
    return WindowSlice(window_start=start, window_len=60.0, records=records)


def _frozen(depth=2, hidden=4, seed=0, input_dim=5):
    model = init_gcn(depth, input_dim, hidden, seed=seed)
    model.frozen = True
    return model


def _training_windows():
    """Two windows whose flows pin down one bot source and one legit source."""
    mk = lambda start: [
        _flow("10.0.0.9", "10.0.0.2", ts=start + 1, label=Label.BOT),
        _flow("10.0.0.1", "10.0.0.2", ts=start + 2, label=Label.LEGIT),
        _flow("10.0.0.1", "10.0.0.3", ts=start + 3, sb=20, db=900, label=Label.LEGIT),
    ]
    return [_window(mk(0.0), start=0.0), _window(mk(10.0), start=10.0)]


# What derive_node_labels gives the training windows' nodes: the two sources
# take their flows' labels; the two destinations only receive, so they stay
# unknown.
TRAINING_LABELS = {"10.0.0.9": Label.BOT, "10.0.0.1": Label.LEGIT,
                   "10.0.0.2": Label.UNKNOWN, "10.0.0.3": Label.UNKNOWN}


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="architecture"):
            PipelineConfig(architecture="hybrid")
        with pytest.raises(ValueError, match="threshold"):
            PipelineConfig(threshold=1.5)


class TestNormalizeOneRow:
    def test_three_point_example(self):
        assert np.array_equal(normalize_embedding([[1.0, 2.0, 3.0]]), [[0.0, 50.0, 100.0]])

    def test_output_range_and_extremes(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1, 50)) * 40
        out = normalize_embedding(v)
        assert out.min() == 0.0
        assert out.max() == 100.0
        assert ((0.0 <= out) & (out <= 100.0)).all()

    def test_constant_vector_maps_to_zeros(self):
        assert np.array_equal(normalize_embedding([[7.0, 7.0, 7.0]]), np.zeros((1, 3)))

    def test_power_of_two_scaling_is_exactly_invariant(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((1, 30))
        assert np.array_equal(normalize_embedding(4.0 * v), normalize_embedding(v))

    def test_general_scaling_is_invariant_to_rounding(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((1, 30))
        np.testing.assert_allclose(
            normalize_embedding(3.0 * v), normalize_embedding(v), rtol=1e-12, atol=1e-9
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_embedding([[1.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            normalize_embedding([[1.0, np.inf]])


class TestNormalizeEmbedding:
    def test_per_vector_matches_row_wise_rescale(self):
        M = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0], [0.0, 10.0, 5.0]])
        out = normalize_embedding(M, "per_vector")
        expect = np.vstack([normalize_embedding(row[None]) for row in M])
        assert np.array_equal(out, expect)
        assert np.array_equal(out[1], np.zeros(3))

    def test_per_dimension_rescales_columns(self):
        M = np.array([[1.0, 4.0], [3.0, 4.0], [2.0, 4.0]])
        out = normalize_embedding(M, "per_dimension")
        assert np.array_equal(out, [[0.0, 0.0], [100.0, 0.0], [50.0, 0.0]])

    @pytest.mark.parametrize("mode", ["per_vector", "per_dimension"])
    def test_matches_slice_by_slice_oracle(self, mode):
        def rescale(v):
            lo, hi = v.min(), v.max()
            return np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo) * 100.0

        rng = np.random.default_rng(5)
        for _ in range(20):
            M = rng.standard_normal((int(rng.integers(1, 30)), int(rng.integers(1, 12)))) * 50
            M[int(rng.integers(M.shape[0]))] = 3.0
            M[:, int(rng.integers(M.shape[1]))] = 3.0
            if mode == "per_vector":
                expect = np.vstack([rescale(row) for row in M])
            else:
                expect = np.column_stack([rescale(col) for col in M.T])
            assert np.array_equal(normalize_embedding(M, mode), expect)

    @pytest.mark.parametrize("mode", ["per_vector", "per_dimension"])
    def test_rejects_non_finite_in_both_modes(self, mode):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                normalize_embedding(np.array([[1.0, 2.0], [bad, 0.0]]), mode)

    def test_empty_matrix_passes_through(self):
        out = normalize_embedding(np.empty((0, 4)), "per_vector")
        assert out.shape == (0, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="2-D"):
            normalize_embedding(np.ones(3), "per_vector")
        with pytest.raises(ValueError, match="normalization mode"):
            normalize_embedding(np.ones((2, 2)), "softmax")


class TestEmbedWindow:
    def test_requires_frozen_model(self):
        model = init_gcn(2, 5, 4, seed=0)
        with pytest.raises(ValueError, match="frozen"):
            embed_window(_window([_flow("a", "b")]), model)

    def test_matches_stage_by_stage_replay(self):
        model = _frozen(depth=3, hidden=6, seed=1)
        window = _window(
            [_flow("a", "b"), _flow("b", "c", sb=300, db=0), _flow("d", "a", dur=4.0)]
        )
        emb = embed_window(window, model)
        feats = extract_node_features(window)
        graph = build_graph(window, feats)
        expect = forward(model, propagation_matrix(graph), graph.features, with_head=False)
        assert np.array_equal(emb.vectors, expect)
        assert emb.nodes == graph.nodes
        assert emb.vectors.shape == (4, 6)

    def test_stage_timings(self):
        emb = embed_window(_window([_flow("a", "b")]), _frozen())
        assert set(emb.timings) == {"features", "graph", "embed"}
        assert all(t >= 0.0 for t in emb.timings.values())

    def test_disjoint_components_embed_independently(self):
        # Adding an unrelated component elsewhere in the window must not
        # perturb this component's rows, down to the last bit.
        model = _frozen(depth=4, hidden=8, seed=2)
        ab = [_flow("a", "b", dur=2.0, sb=120, db=80)]
        cd = [_flow("c", "d", dur=9.0, sb=7000, db=1)]
        alone = embed_window(_window(ab), model)
        joint = embed_window(_window(ab + cd), model)
        assert joint.nodes == ["a", "b", "c", "d"]
        assert np.array_equal(joint.vectors[:2], alone.vectors)


class TestPoolVariants:
    def _oracle(self, windows, model, labels, variant, mode="per_vector"):
        """Rows one node at a time: a bot or legit node's row, labeled 1 = bot."""
        X_rows, y_rows = [], []
        for w in windows:
            graph = build_graph(w, extract_node_features(w))
            if variant == VARIANT_FLOW:
                vec = graph.features
            else:
                X0 = graph.features if variant == VARIANT_FUSED else np.ones_like(graph.features)
                vec = forward(model, propagation_matrix(graph), X0, with_head=False)
            for node, row in zip(graph.nodes, normalize_embedding(vec, mode)):
                if labels.get(node) in (Label.BOT, Label.LEGIT):
                    X_rows.append(row)
                    y_rows.append(int(labels[node] is Label.BOT))
        return np.array(X_rows), np.array(y_rows, dtype=np.int64)

    @pytest.mark.parametrize(
        "variant,width", [(VARIANT_FUSED, 4), (VARIANT_TOPOLOGY, 4), (VARIANT_FLOW, 5)]
    )
    def test_variant_rows_match_oracle(self, variant, width):
        model = _frozen(depth=2, hidden=4, seed=3)
        windows = _training_windows()
        X, y = pool_labeled_rows(windows, model, TRAINING_LABELS, variant=variant)
        ox, oy = self._oracle(windows, model, TRAINING_LABELS, variant)
        assert X.shape == (4, width)
        assert np.array_equal(X, ox)
        assert np.array_equal(y, oy)
        assert set(y.tolist()) == {0, 1}

    def test_unlabeled_nodes_are_excluded(self):
        model = _frozen()
        windows = _training_windows()
        X, y = pool_labeled_rows(windows, model, TRAINING_LABELS)
        # Each window has 4 endpoints but only 2 are bot or legit.
        assert X.shape[0] == 4
        assert y.tolist() == [1, 0] * 2 or y.tolist() == [0, 1] * 2

    def test_label_codes(self):
        # Bot is 1 and legit 0; unknown nodes and nodes the labels do not name
        # are left out.
        window = _window([_flow("A", "B"), _flow("C", "B"), _flow("D", "B", sb=7)])
        labels = {"A": Label.BOT, "B": Label.LEGIT, "C": Label.UNKNOWN}
        X, y = pool_labeled_rows([window], _frozen(), labels, variant=VARIANT_FLOW)
        assert y.dtype == np.int64
        assert y.tolist() == [1, 0]
        rows = normalize_embedding(extract_node_features(window).matrix)
        assert np.array_equal(X, rows[:2])

    def test_unknown_variant_rejected(self):
        model = _frozen()
        with pytest.raises(ValueError, match="variant"):
            pool_labeled_rows(_training_windows(), model, TRAINING_LABELS, variant="hybrid")

    def test_no_labeled_nodes_rejected(self):
        model = _frozen()
        with pytest.raises(ValueError, match="no labeled nodes"):
            pool_labeled_rows(_training_windows(), model, {})

    def test_flow_variant_ignores_model_state(self):
        unfrozen = init_gcn(2, 5, 4, seed=0)
        X, _ = pool_labeled_rows(
            _training_windows(), unfrozen, TRAINING_LABELS, variant=VARIANT_FLOW
        )
        assert X.shape == (4, 5)


class TestTrainDetector:
    def test_requires_windows_and_two_classes(self):
        model = _frozen()
        with pytest.raises(ValueError, match="no training windows"):
            train_detector([], model, TRAINING_LABELS)
        legit_only = [_window([_flow("a", "b", label=Label.LEGIT)])]
        with pytest.raises(ValueError, match="single class"):
            train_detector(legit_only, model, {"a": Label.LEGIT})


class TestDetect:
    def _fitted(self, model, windows):
        return train_detector(windows, model, TRAINING_LABELS, n_trees=10, seed=0)

    def test_input_contract_errors(self):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model, windows)
        cfg = PipelineConfig(architecture="c2")
        with pytest.raises(ValueError, match="no windows"):
            detect([], model, ens, cfg)
        narrow = _frozen(depth=2, hidden=4, input_dim=3)
        with pytest.raises(ValueError, match="-dim input"):
            detect(windows, narrow, ens, cfg)
        rng = np.random.default_rng(0)
        wide = extra_trees.fit(
            rng.standard_normal((10, 7)), np.array([0, 1] * 5), n_trees=3
        )
        with pytest.raises(ValueError, match="ensemble expects"):
            detect(windows, model, wide, cfg)

    @pytest.mark.parametrize("mode", ["per_vector", "per_dimension"])
    def test_probabilities_match_stage_by_stage_replay(self, mode):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4, seed=6)
        ens = train_detector(windows, model, TRAINING_LABELS, norm_mode=mode, n_trees=10,
                             seed=0)
        assert ens.norm_mode == mode
        cfg = PipelineConfig(architecture="c2")
        report = detect(windows, model, ens, cfg)
        for window, w in zip(windows, report.windows):
            expect = extra_trees.predict_proba(
                ens, normalize_embedding(embed_window(window, model).vectors, mode)
            )
            assert w.probabilities.tolist() == expect.tolist()

    def test_refuses_unfrozen_model(self):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model, windows)
        model.frozen = False
        with pytest.raises(ValueError, match="frozen"):
            detect(windows, model, ens, PipelineConfig(architecture="c2"))

    def test_report_structure_and_verdict_consistency(self):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model, windows)
        cfg = PipelineConfig(architecture="c2", threshold=0.4)
        report = detect(windows, model, ens, cfg)
        assert report.architecture == "c2"
        assert report.threshold == 0.4
        assert [w.window_start for w in report.windows] == [0.0, 10.0]
        for w in report.windows:
            assert w.n_nodes == len(w.nodes) == w.probabilities.size == w.flags.size == 4
            assert ((0.0 <= w.probabilities) & (w.probabilities <= 1.0)).all()
            assert np.array_equal(w.flags, w.probabilities >= 0.4)
            assert w.n_flagged == int(w.flags.sum())

    def test_threshold_zero_flags_everything(self):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model, windows)
        cfg = PipelineConfig(architecture="c2", threshold=0.0)
        report = detect(windows, model, ens, cfg)
        assert all(w.n_flagged == w.n_nodes for w in report.windows)

    def test_stage_timings_account_for_the_run(self):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model, windows)
        cfg = PipelineConfig(architecture="c2")
        with pytest.MonkeyPatch.context() as mp:
            in_process_only(mp)
            report = detect(windows, model, ens, cfg)
        staged = 0.0
        for w in report.windows:
            assert set(w.timings) == {"features", "graph", "embed", "normalize", "classify"}
            assert all(t >= 0.0 for t in w.timings.values())
            staged += sum(w.timings.values())
        assert report.total_seconds > 0.0
        assert staged <= report.total_seconds
        # Forked, the two halves run side by side: each fits in the run.
        with pytest.MonkeyPatch.context() as mp:
            counted_forks(mp)
            report = detect(windows, model, ens, cfg)
        for half in (report.windows[:1], report.windows[1:]):
            assert sum(sum(w.timings.values()) for w in half) <= report.total_seconds
        assert_no_child_left()

    def test_json_lines_deterministic_without_timings(self):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model, windows)
        cfg = PipelineConfig(architecture="c2")
        a = list(detect(windows, model, ens, cfg).json_lines(include_timings=False))
        b = list(detect(windows, model, ens, cfg).json_lines(include_timings=False))
        assert a == b
        assert len(a) == 2 and not any("\n" in line for line in a)
        obj = json.loads(a[0])
        assert set(obj) == {
            "window_start", "architecture", "threshold", "n_nodes", "n_flagged", "nodes",
        }
        assert "timings" in json.loads(next(detect(windows, model, ens, cfg).json_lines()))


@pytest.fixture(scope="module")
def trace():
    """Seven windows of a synthetic trace, a frozen model and a forest whose
    impure leaves give fractional probabilities."""
    records = generate_flow_benchmark(FlowBenchSpec(
        n_background=40, n_bots=6, n_scanners=2, duration=80.0,
        n_background_flows=200, scan_flows_per_host=20, seed=5,
    ))
    windows = slice_windows(records)[:7]
    assert len(windows) == 7
    model = _frozen(depth=3, hidden=8, seed=2)
    X, y = pool_labeled_rows(windows, model, derive_node_labels(records))
    ensemble = extra_trees.fit(X, y, n_trees=12, min_samples_split=60, seed=1)
    return windows, model, ensemble


class TestForkedDetect:
    """With two CPUs, detect scores the second half of the windows in one
    forked worker."""

    CONFIG = PipelineConfig(architecture="c2", threshold=0.3)

    @pytest.mark.parametrize("n_windows", [1, 2, 3, 7])
    def test_report_bytes_equal_the_in_process_path(self, trace, n_windows):
        windows, model, ensemble = trace
        windows = windows[:n_windows]
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            forked = detect(windows, model, ensemble, self.CONFIG)
        with pytest.MonkeyPatch.context() as mp:
            in_process_only(mp)
            in_process = detect(windows, model, ensemble, self.CONFIG)
        assert len(forks) == (1 if n_windows >= 2 else 0)
        assert (list(forked.json_lines(include_timings=False))
                == list(in_process.json_lines(include_timings=False)))
        assert len(forked.windows) == n_windows
        for a, b in zip(forked.windows, in_process.windows):
            assert (a.window_start, a.nodes) == (b.window_start, b.nodes)
            for x, y in ((a.probabilities, b.probabilities), (a.flags, b.flags)):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert_no_child_left()

    def test_the_workers_windows_carry_every_stage_timing(self, trace):
        windows, model, ensemble = trace
        with pytest.MonkeyPatch.context() as mp:
            counted_forks(mp)
            report = detect(windows, model, ensemble, self.CONFIG)
        for w in report.windows[3:]:
            assert set(w.timings) == {"features", "graph", "embed", "normalize", "classify"}
            assert all(t >= 0.0 for t in w.timings.values())
        assert_no_child_left()

    def test_a_failing_parent_half_propagates_and_the_worker_is_reaped(self, trace):
        windows, model, ensemble = trace
        parent, embed = os.getpid(), fusion_pipeline.embed_window

        def embed_slowly_in_worker(*args):
            if os.getpid() != parent:
                time.sleep(30)  # outlives the test unless the parent stops it
                return embed(*args)
            raise KeyError("first window")

        with pytest.MonkeyPatch.context() as mp:
            counted_forks(mp)
            mp.setattr(fusion_pipeline, "embed_window", embed_slowly_in_worker)
            start = time.monotonic()
            with pytest.raises(KeyError, match="first window"):
                detect(windows, model, ensemble, self.CONFIG)
        assert time.monotonic() - start < 15
        assert_no_child_left()


def _reference_line(report, w, include_timings):
    """The report line as one json.dumps of the window's whole object."""
    obj = {
        "window_start": w.window_start,
        "architecture": report.architecture,
        "threshold": report.threshold,
        "n_nodes": len(w.nodes),
        "n_flagged": sum(w.flags.tolist()),
        "nodes": [
            {"node_id": node, "bot_probability": p, "verdict": flag}
            for node, p, flag in zip(w.nodes, w.probabilities.tolist(), w.flags.tolist())
        ],
    }
    if include_timings:
        obj["timings"] = w.timings
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_NODE_IDS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t", "é", "\u2028", "\ud800",
                     "\U0001f600", "10.0.0.1", ""]),
)
_PROBABILITIES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0), st.floats())
_WINDOWS = st.lists(
    st.tuples(
        st.floats(allow_nan=False),
        st.lists(st.tuples(_NODE_IDS, _PROBABILITIES, st.booleans()), max_size=6),
        st.dictionaries(st.sampled_from(["features", "graph", "embed", "classify"]),
                        st.floats(0.0, 10.0)),
    ),
    max_size=3,
)


class TestReportLines:
    @settings(max_examples=200, deadline=None)
    @given(
        architecture=st.one_of(st.sampled_from(["c2", "p2p"]), st.text(max_size=4)),
        threshold=st.sampled_from([0, 1, 0.0, 1.0, 0.5]),
        windows=_WINDOWS,
        include_timings=st.booleans(),
    )
    def test_lines_equal_json_dumps(self, architecture, threshold, windows, include_timings):
        report = DetectionReport(
            architecture=architecture,
            threshold=threshold,
            windows=[
                WindowReport(
                    window_start=start,
                    nodes=[node for node, _, _ in entries],
                    probabilities=np.array([p for _, p, _ in entries], dtype=np.float64),
                    flags=np.array([flag for _, _, flag in entries], dtype=bool),
                    timings=timings,
                )
                for start, entries, timings in windows
            ],
        )
        lines = list(report.json_lines(include_timings=include_timings))
        assert lines == [_reference_line(report, w, include_timings) for w in report.windows]

    def test_lines_are_made_one_at_a_time(self):
        w = WindowReport(0.0, ["a"], np.array([0.5]), np.array([True]))
        report = DetectionReport("c2", 0.5, [w, w])
        lines = report.json_lines()
        first = next(lines)
        report.windows[1] = WindowReport(10.0, ["b"], np.array([0.25]), np.array([False]))
        assert json.loads(first)["nodes"][0]["node_id"] == "a"
        assert json.loads(next(lines))["nodes"][0]["node_id"] == "b"
