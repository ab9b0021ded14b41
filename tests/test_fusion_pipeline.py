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
from botfuse.flow_ingest import FlowRecord, Label, Proto, WindowSlice, encode_flows
from botfuse.gcn_core import init_gcn, forward
from botfuse.fusion_pipeline import (
    DetectionReport,
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
    return WindowSlice(start, encode_flows(records))


def _frozen(depth=2, hidden=4, seed=0, input_dim=5):
    model = init_gcn(depth, input_dim, hidden, seed=seed)
    model.frozen = True
    return model


def _training_flows(start):
    """Flows that pin down one bot source and one legit source."""
    return [
        _flow("10.0.0.9", "10.0.0.2", ts=start + 1, label=Label.BOT),
        _flow("10.0.0.1", "10.0.0.2", ts=start + 2, label=Label.LEGIT),
        _flow("10.0.0.1", "10.0.0.3", ts=start + 3, sb=20, db=900, label=Label.LEGIT),
    ]


# A trace that 10 s windows at a 10 s stride slice into the two windows of
# _training_windows.
TRAINING_FLOWS = _training_flows(0.0) + _training_flows(10.0)
TRAINING_TRACE = encode_flows(TRAINING_FLOWS)
TRAINING_WINDOWING = (10.0, 10.0)


def _training_windows():
    """The windows of TRAINING_TRACE, built by hand."""
    return [_window(_training_flows(0.0), start=0.0), _window(_training_flows(10.0), start=10.0)]


# What node_labels gives the training trace's nodes: the two sources
# take their flows' labels; the two destinations only receive, so they stay
# unknown.
TRAINING_LABELS = {"10.0.0.9": Label.BOT, "10.0.0.1": Label.LEGIT,
                   "10.0.0.2": Label.UNKNOWN, "10.0.0.3": Label.UNKNOWN}


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
    def test_matches_stage_by_stage_replay(self):
        model = _frozen(depth=3, hidden=6, seed=1)
        window = _window(
            [_flow("a", "b"), _flow("b", "c", sb=300, db=0), _flow("d", "a", dur=4.0)]
        )
        nodes, vectors, _ = embed_window(window, model)
        feats = extract_node_features(window)
        graph = build_graph(window)
        expect = forward(model, propagation_matrix(graph), feats.matrix, with_head=False)
        assert np.array_equal(vectors, expect)
        assert nodes == graph.nodes
        assert vectors.shape == (4, 6)

    def test_stage_timings(self):
        _, _, timings = embed_window(_window([_flow("a", "b")]), _frozen())
        assert set(timings) == {"features", "graph", "embed"}
        assert all(t >= 0.0 for t in timings.values())

    def test_disjoint_components_embed_independently(self):
        # Adding an unrelated component elsewhere in the window must not
        # perturb this component's rows, down to the last bit.
        model = _frozen(depth=4, hidden=8, seed=2)
        ab = [_flow("a", "b", dur=2.0, sb=120, db=80)]
        cd = [_flow("c", "d", dur=9.0, sb=7000, db=1)]
        _, alone, _ = embed_window(_window(ab), model)
        nodes, joint, _ = embed_window(_window(ab + cd), model)
        assert nodes == ["a", "b", "c", "d"]
        assert np.array_equal(joint[:2], alone)


class TestPoolVariants:
    def _oracle(self, windows, model, labels, variant, mode="per_vector"):
        """Rows one node at a time: a bot or legit node's row, labeled 1 = bot."""
        X_rows, y_rows = [], []
        for w in windows:
            graph = build_graph(w)
            features = extract_node_features(w).matrix
            if variant == VARIANT_FLOW:
                vec = features
            else:
                X0 = features if variant == VARIANT_FUSED else np.ones_like(features)
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
        X, y, _ = pool_labeled_rows(TRAINING_TRACE, model, *TRAINING_WINDOWING, variant=variant)
        ox, oy = self._oracle(windows, model, TRAINING_LABELS, variant)
        assert X.shape == (4, width)
        assert np.array_equal(X, ox)
        assert np.array_equal(y, oy)
        assert set(y.tolist()) == {0, 1}

    def test_hosts_line_up_with_the_embedded_nodes(self):
        # Each pooled row is the vector of the node named beside it; the two
        # destinations, whose label is unknown, are embedded but dropped
        # from the rows and the hosts alike.
        model = _frozen(depth=2, hidden=4, seed=3)
        X, y, hosts = pool_labeled_rows(TRAINING_TRACE, model, *TRAINING_WINDOWING)
        want_rows, want_hosts, embedded = [], [], set()
        for window in _training_windows():
            nodes, vectors, _ = embed_window(window, model)
            embedded.update(nodes)
            for node, row in zip(nodes, normalize_embedding(vectors)):
                if TRAINING_LABELS[node] is not Label.UNKNOWN:
                    want_rows.append(row)
                    want_hosts.append(node)
        assert embedded - set(want_hosts) == {"10.0.0.2", "10.0.0.3"}
        assert hosts.tolist() == want_hosts
        assert np.array_equal(X, np.array(want_rows))
        assert y.tolist() == [int(TRAINING_LABELS[h] is Label.BOT) for h in want_hosts]

    def test_unlabeled_nodes_are_excluded(self):
        X, y, _ = pool_labeled_rows(TRAINING_TRACE, _frozen(), *TRAINING_WINDOWING)
        # Each window has 4 endpoints but only 2 are bot or legit.
        assert X.shape[0] == 4
        assert y.tolist() == [1, 0] * 2 or y.tolist() == [0, 1] * 2

    def test_label_codes(self):
        # Bot is 1 and legit 0; a node that sends only unlabeled flows, and one
        # that only receives, are left out.
        flows = [_flow("A", "B", label=Label.BOT), _flow("B", "C", label=Label.LEGIT),
                 _flow("C", "D", sb=7)]
        X, y, _ = pool_labeled_rows(encode_flows(flows), _frozen(), variant=VARIANT_FLOW)
        assert y.dtype == np.int64
        assert y.tolist() == [1, 0]
        feats = extract_node_features(_window(flows))
        assert feats.nodes == ["A", "B", "C", "D"]
        assert np.array_equal(X, normalize_embedding(feats.matrix)[:2])

    def test_flows_other_than_tcp_and_udp_are_neither_windowed_nor_labeled(self):
        model = _frozen()
        other = [FlowRecord(ts, 1.0, Proto.OTHER, src, 0, "10.0.0.2", 0, 10, 10, Label.BOT)
                 for ts, src in ((4.0, "10.0.0.1"), (5.0, "10.0.0.7"), (35.0, "10.0.0.7"))]
        X, y, _ = pool_labeled_rows(encode_flows(TRAINING_FLOWS + other), model,
                                    *TRAINING_WINDOWING)
        ox, oy, _ = pool_labeled_rows(TRAINING_TRACE, model, *TRAINING_WINDOWING)
        assert np.array_equal(X, ox) and np.array_equal(y, oy)
        with pytest.raises(ValueError, match="no windows produced from the input flows"):
            pool_labeled_rows(encode_flows(other), model)

    @pytest.mark.parametrize("variant", [VARIANT_FUSED, VARIANT_TOPOLOGY])
    def test_requires_frozen_model_before_slicing(self, variant, monkeypatch):
        def no_slicing(*args):
            raise AssertionError("the trace was sliced")

        monkeypatch.setattr(fusion_pipeline, "trace_windows", no_slicing)
        model = init_gcn(2, 5, 4, seed=0)
        with pytest.raises(ValueError, match="frozen"):
            pool_labeled_rows(TRAINING_TRACE, model, *TRAINING_WINDOWING, variant=variant)

    def test_the_model_is_checked_once_per_call_not_per_window(self, monkeypatch):
        model = _frozen()
        ens = train_detector(TRAINING_TRACE, model, *TRAINING_WINDOWING, n_trees=4, seed=0)
        checked, check = [], fusion_pipeline.check_model

        def counted_check(*args):
            checked.append(len(args))
            check(*args)

        monkeypatch.setattr(fusion_pipeline, "check_model", counted_check)
        in_process_only(monkeypatch)
        pool_labeled_rows(TRAINING_TRACE, model, *TRAINING_WINDOWING)
        assert len(detect(TRAINING_TRACE, model, ens).windows) == 2
        # pool checks the model alone, detect the pair.
        assert checked == [1, 2]

    def test_unknown_variant_rejected(self):
        model = _frozen()
        with pytest.raises(ValueError, match="variant"):
            pool_labeled_rows(TRAINING_TRACE, model, variant="hybrid")

    def test_no_labeled_nodes_rejected(self):
        model = _frozen()
        with pytest.raises(ValueError, match="no labeled nodes"):
            pool_labeled_rows(encode_flows([_flow("a", "b"), _flow("b", "c")]), model)

    def test_flow_variant_ignores_model_state(self):
        unfrozen = init_gcn(2, 5, 4, seed=0)
        X, _, _ = pool_labeled_rows(TRAINING_TRACE, unfrozen, *TRAINING_WINDOWING,
                                    variant=VARIANT_FLOW)
        assert X.shape == (4, 5)


class TestTrainDetector:
    def test_requires_windows_and_two_classes(self):
        model = _frozen()
        with pytest.raises(ValueError, match="no windows produced from the input flows"):
            train_detector(encode_flows([]), model)
        with pytest.raises(ValueError, match="single class"):
            train_detector(encode_flows([_flow("a", "b", label=Label.LEGIT)]), model)

    def test_records_the_windowing_and_scaling_it_trained_with(self):
        ens = train_detector(TRAINING_TRACE, _frozen(), 30.0, 5.0, "per_dimension", n_trees=3)
        assert (ens.window_len, ens.stride, ens.norm_mode) == (30.0, 5.0, "per_dimension")


class TestDetect:
    def _fitted(self, model):
        return train_detector(TRAINING_TRACE, model, *TRAINING_WINDOWING, n_trees=10, seed=0)

    def test_input_contract_errors(self):
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model)
        with pytest.raises(ValueError, match="threshold"):
            detect(TRAINING_TRACE, model, ens, threshold=1.5)
        with pytest.raises(ValueError, match="no windows produced from the input flows"):
            detect(encode_flows([]), model, ens)
        narrow = _frozen(depth=2, hidden=4, input_dim=3)
        with pytest.raises(ValueError, match="model expects 3-dim input, pipeline produces 5"):
            detect(TRAINING_TRACE, narrow, ens)
        rng = np.random.default_rng(0)
        wide = extra_trees.fit(
            rng.standard_normal((10, 7)), np.array([0, 1] * 5), n_trees=3
        )
        with pytest.raises(ValueError, match="ensemble expects"):
            detect(TRAINING_TRACE, model, wide)

    def test_a_mismatched_pair_is_refused_before_the_flows_are_sliced(self, monkeypatch):
        def slice_windows(*args, **kwargs):
            raise AssertionError("the flows were sliced before the pair was checked")

        monkeypatch.setattr(fusion_pipeline, "slice_windows", slice_windows)
        wide = extra_trees.fit(np.eye(8)[:, :7], np.array([0, 1] * 4), n_trees=3)
        with pytest.raises(ValueError, match="^ensemble expects 7 features, model emits 4$"):
            detect(TRAINING_TRACE, _frozen(depth=2, hidden=4), wide)

    @pytest.mark.parametrize("mode", ["per_vector", "per_dimension"])
    def test_probabilities_match_stage_by_stage_replay(self, mode):
        windows = _training_windows()
        model = _frozen(depth=2, hidden=4, seed=6)
        ens = train_detector(TRAINING_TRACE, model, *TRAINING_WINDOWING, norm_mode=mode,
                             n_trees=10, seed=0)
        assert ens.norm_mode == mode
        report = detect(TRAINING_TRACE, model, ens)
        assert [w.window_start for w in report.windows] == [w.window_start for w in windows]
        for window, w in zip(windows, report.windows):
            _, vectors, _ = embed_window(window, model)
            expect = extra_trees.predict_proba(ens, normalize_embedding(vectors, mode))
            assert w.probabilities.tolist() == expect.tolist()

    def test_refuses_unfrozen_model(self):
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model)
        model.frozen = False
        with pytest.raises(ValueError, match="frozen"):
            detect(TRAINING_TRACE, model, ens)

    def test_report_structure_and_verdict_consistency(self):
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model)
        report = detect(TRAINING_TRACE, model, ens, 0.4)
        assert report.threshold == 0.4
        assert [w.window_start for w in report.windows] == [0.0, 10.0]
        for w in report.windows:
            assert w.n_nodes == len(w.nodes) == w.probabilities.size == 4
            assert ((0.0 <= w.probabilities) & (w.probabilities <= 1.0)).all()
            assert np.array_equal(report.verdicts(w), w.probabilities >= 0.4)
        for line, w in zip(report.json_lines("c2"), report.windows):
            obj = json.loads(line)
            assert [v["verdict"] for v in obj["nodes"]] == report.verdicts(w).tolist()
            assert obj["n_flagged"] == int(report.verdicts(w).sum())

    def test_threshold_zero_flags_everything(self):
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model)
        report = detect(TRAINING_TRACE, model, ens, threshold=0.0)
        assert all(report.verdicts(w).all() for w in report.windows)

    def test_stage_timings_account_for_the_run(self):
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model)
        with pytest.MonkeyPatch.context() as mp:
            in_process_only(mp)
            t0 = time.perf_counter()
            report = detect(TRAINING_TRACE, model, ens)
            run = time.perf_counter() - t0
        staged = 0.0
        for w in report.windows:
            assert set(w.timings) == {"features", "graph", "embed", "normalize", "classify"}
            assert all(t >= 0.0 for t in w.timings.values())
            staged += sum(w.timings.values())
        assert staged <= run
        # Forked, the two halves run side by side: each fits in the run.
        with pytest.MonkeyPatch.context() as mp:
            counted_forks(mp)
            t0 = time.perf_counter()
            report = detect(TRAINING_TRACE, model, ens)
            run = time.perf_counter() - t0
        for half in (report.windows[:1], report.windows[1:]):
            assert sum(sum(w.timings.values()) for w in half) <= run
        assert_no_child_left()

    def test_json_lines_deterministic_without_timings(self):
        model = _frozen(depth=2, hidden=4)
        ens = self._fitted(model)
        a = list(detect(TRAINING_TRACE, model, ens).json_lines("p2p", include_timings=False))
        b = list(detect(TRAINING_TRACE, model, ens).json_lines("p2p", include_timings=False))
        assert a == b
        assert len(a) == 2 and not any("\n" in line for line in a)
        obj = json.loads(a[0])
        assert set(obj) == {
            "window_start", "architecture", "threshold", "n_nodes", "n_flagged", "nodes",
        }
        assert obj["architecture"] == "p2p"
        assert "timings" in json.loads(next(detect(TRAINING_TRACE, model, ens).json_lines("c2")))


def _first_strides(flows, n):
    """The flows of a trace's first ``n`` 10 s strides, which the default
    60 s windows at a 10 s stride slice into ``n`` windows when each stride
    holds a flow."""
    end = flows.ts.min() // 10.0 * 10.0 + 10.0 * n
    return flows[flows.ts < end]


@pytest.fixture(scope="module")
def trace():
    """Seven strides of a synthetic trace, a frozen model and a forest whose
    impure leaves give fractional probabilities."""
    flows = _first_strides(encode_flows(generate_flow_benchmark(FlowBenchSpec(
        n_background=40, n_bots=6, n_scanners=2, duration=80.0,
        n_background_flows=200, scan_flows_per_host=20, seed=5,
    ))), 7)
    model = _frozen(depth=3, hidden=8, seed=2)
    X, y, _ = pool_labeled_rows(flows, model)
    ensemble = extra_trees.fit(X, y, n_trees=12, min_samples_split=60, seed=1)
    return flows, model, ensemble


class TestForkedDetect:
    """With two CPUs, detect scores the second half of the windows in one
    forked worker."""

    THRESHOLD = 0.3

    @pytest.mark.parametrize("n_windows", [1, 2, 3, 7])
    def test_report_bytes_equal_the_in_process_path(self, trace, n_windows):
        flows, model, ensemble = trace
        flows = _first_strides(flows, n_windows)
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            forked = detect(flows, model, ensemble, threshold=self.THRESHOLD)
        with pytest.MonkeyPatch.context() as mp:
            in_process_only(mp)
            in_process = detect(flows, model, ensemble, threshold=self.THRESHOLD)
        assert len(forks) == (1 if n_windows >= 2 else 0)
        assert (list(forked.json_lines("c2", include_timings=False))
                == list(in_process.json_lines("c2", include_timings=False)))
        assert len(forked.windows) == n_windows
        for a, b in zip(forked.windows, in_process.windows):
            assert (a.window_start, a.nodes) == (b.window_start, b.nodes)
            x, y = a.probabilities, b.probabilities
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert_no_child_left()

    def test_the_workers_windows_carry_every_stage_timing(self, trace):
        flows, model, ensemble = trace
        with pytest.MonkeyPatch.context() as mp:
            counted_forks(mp)
            report = detect(flows, model, ensemble, threshold=self.THRESHOLD)
        for w in report.windows[3:]:
            assert set(w.timings) == {"features", "graph", "embed", "normalize", "classify"}
            assert all(t >= 0.0 for t in w.timings.values())
        assert_no_child_left()

    def test_a_failing_parent_half_propagates_and_the_worker_is_reaped(self, trace):
        flows, model, ensemble = trace
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
                detect(flows, model, ensemble, threshold=self.THRESHOLD)
        assert time.monotonic() - start < 15
        assert_no_child_left()


def _reference_line(report, architecture, w, include_timings):
    """The report line as one json.dumps of the window's whole object."""
    obj = {
        "window_start": w.window_start,
        "architecture": architecture,
        "threshold": report.threshold,
        "n_nodes": len(w.nodes),
        "n_flagged": sum(p >= report.threshold for p in w.probabilities.tolist()),
        "nodes": [
            {"node_id": node, "bot_probability": p, "verdict": p >= report.threshold}
            for node, p in zip(w.nodes, w.probabilities.tolist())
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
        st.lists(st.tuples(_NODE_IDS, _PROBABILITIES), max_size=6),
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
            threshold=threshold,
            windows=[
                WindowReport(
                    window_start=start,
                    nodes=[node for node, _ in entries],
                    probabilities=np.array([p for _, p in entries], dtype=np.float64),
                    timings=timings,
                )
                for start, entries, timings in windows
            ],
        )
        lines = list(report.json_lines(architecture, include_timings=include_timings))
        assert lines == [_reference_line(report, architecture, w, include_timings)
                         for w in report.windows]

    def test_verdicts_are_the_probabilities_at_or_above_the_threshold(self):
        w = WindowReport(0.0, ["a", "b", "c", "d"], np.array([0.25, 0.5, 0.75, np.nan]), {})
        (line,) = DetectionReport(0.5, [w]).json_lines("c2", include_timings=False)
        obj = json.loads(line)
        assert [v["verdict"] for v in obj["nodes"]] == [False, True, True, False]
        assert obj["n_flagged"] == 2

    def test_lines_are_made_one_at_a_time(self):
        w = WindowReport(0.0, ["a"], np.array([0.5]), {})
        report = DetectionReport(0.5, [w, w])
        lines = report.json_lines("c2")
        first = next(lines)
        report.windows[1] = WindowReport(10.0, ["b"], np.array([0.25]), {})
        assert json.loads(first)["nodes"][0]["node_id"] == "a"
        assert json.loads(next(lines))["nodes"][0]["node_id"] == "b"
