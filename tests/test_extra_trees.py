"""Randomized-tree ensemble: fitting, routing, probabilities, serialization."""

import copy
import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botfuse import extra_trees
from botfuse.extra_trees import (
    TreeEnsemble,
    _build_tree,
    _choose_split,
    deserialize_ensemble,
    fit,
    load_ensemble,
    predict_proba,
    save_ensemble,
    serialize_ensemble,
)
from fork_checks import assert_no_child_left, counted_forks, in_process_only
from oracles import leaf_values, oracle_proba, route, route_one

_LEAF = -1


def _separable(rng, n=100, d=2, margin=1.0):
    """Two blobs separated along feature 0."""
    X = rng.standard_normal((n, d)) * 0.3
    y = (rng.random(n) < 0.5).astype(np.int64)
    X[:, 0] += np.where(y == 1, margin, -margin)
    return X, y


def _depth(tree, node=0):
    if tree["feature"][node] == _LEAF:
        return 0
    return 1 + max(_depth(tree, tree["left"][node]), _depth(tree, tree["right"][node]))


# Tree 0 is a single leaf (1 of 4 positive). Tree 1 splits feature 0 at 0.5,
# then its right side splits feature 2 at -1.0.
_HAND_WRITTEN = {
    "format": "botfuse-trees", "version": 1, "n_features": 3, "n_trees": 2,
    "k_features": 1, "min_samples_split": 2, "seed": 0,
    "trees": [
        {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
         "counts": [[3, 1]]},
        {"feature": [0, -1, 2, -1, -1], "threshold": [0.5, 0.0, -1.0, 0.0, 0.0],
         "left": [1, -1, 3, -1, -1], "right": [2, -1, 4, -1, -1],
         "counts": [[4, 7], [3, 0], [1, 7], [1, 1], [0, 6]]},
    ],
}


def _hand_written(edit=None) -> bytes:
    payload = copy.deepcopy(_HAND_WRITTEN)
    if edit is not None:
        edit(payload["trees"])
    return json.dumps(payload).encode()


# Reference grower, one attribute at a time: each node scans every attribute
# of the node, draws one scalar ``rng.uniform`` per drawn attribute and scores
# the cuts one by one. ``fit`` must grow byte-identical trees from the same
# generator.


def _oracle_entropy(c0: int, c1: int) -> float:
    n = c0 + c1
    h = 0.0
    for c in sorted((c0, c1)):
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def _oracle_draw_cut(rng, lo: float, hi: float) -> float | None:
    # Threshold must fall strictly inside (lo, hi); routing is < left, >= right.
    u = rng.uniform(lo, hi)
    if lo < u < hi:
        return float(u)
    u = 0.5 * (lo + hi)
    if lo < u < hi:
        return float(u)
    u = float(np.nextafter(lo, hi))
    return u if lo < u < hi else None


def _oracle_choose_split(X, y, idx, k, rng, c0, c1):
    n = idx.size
    if c0 == 0 or c1 == 0:
        return None
    sub = X[idx]
    mins = sub.min(axis=0)
    maxs = sub.max(axis=0)
    candidates = np.nonzero(mins < maxs)[0]
    if candidates.size == 0:
        return None
    k_eff = min(k, candidates.size)
    chosen = rng.choice(candidates, size=k_eff, replace=False)

    parent_h = _oracle_entropy(c0, c1)
    best = None
    for f in chosen:
        t = _oracle_draw_cut(rng, float(mins[f]), float(maxs[f]))
        if t is None:
            continue
        lmask = sub[:, f] < t
        nl = int(lmask.sum())
        nr = n - nl
        l1 = int(y[idx[lmask]].sum())
        l0 = nl - l1
        gain = (
            parent_h
            - (nl / n) * _oracle_entropy(l0, l1)
            - (nr / n) * _oracle_entropy(c0 - l0, c1 - l1)
        )
        if best is None or gain > best[0]:
            best = (gain, int(f), t, lmask)
    if best is None:
        return None
    _, f, t, lmask = best
    return f, t, idx[lmask], idx[~lmask]


def _oracle_build_tree(X, y, k, rng) -> dict:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[list[int]] = []

    stack: list[tuple[np.ndarray, int, bool]] = [(np.arange(y.size), _LEAF, False)]
    while stack:
        idx, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent != _LEAF:
            (left if is_left else right)[parent] = node_id
        c1 = int(y[idx].sum())
        c0 = idx.size - c1
        counts.append([c0, c1])
        split = _oracle_choose_split(X, y, idx, k, rng, c0, c1)
        if split is None:
            feature.append(_LEAF)
            threshold.append(0.0)
            left.append(_LEAF)
            right.append(_LEAF)
            continue
        f, t, idx_l, idx_r = split
        feature.append(f)
        threshold.append(t)
        left.append(_LEAF)
        right.append(_LEAF)
        stack.append((idx_r, node_id, False))
        stack.append((idx_l, node_id, True))

    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "counts": np.asarray(counts, dtype=np.int64),
    }


def _oracle_fit(X, y, n_trees, seed) -> TreeEnsemble:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    k = math.ceil(math.sqrt(X.shape[1]))
    trees = [
        _oracle_build_tree(
            X, y, k, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        )
        for i in range(n_trees)
    ]
    return TreeEnsemble(n_features=X.shape[1], seed=seed, trees=trees)


class _FixedDraws:
    """Generator stand-in that keeps the attribute order and draws ``u`` for
    every cut, so a cut at the range's end forces the fallbacks."""

    def __init__(self, u: float):
        self.u = u

    def choice(self, a, size, replace):
        return np.asarray(a)[:size]

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.u

    def random(self, size):
        return np.full(size, self.u)


class _LoggedTakes(np.ndarray):
    """Feature-major training matrix that logs the axis and the indices of
    every ``take``, so a test can count the cells a split search gathers."""

    def take(self, indices, axis=None):
        self.log.append((axis, np.asarray(indices)))
        return np.asarray(self).take(indices, axis=axis)


def _adjacent(base: float, steps) -> np.ndarray:
    """``base`` moved up by each of ``steps`` ulps."""
    out = []
    for s in steps:
        v = base
        for _ in range(s):
            v = np.nextafter(v, np.inf)
        out.append(v)
    return np.asarray(out, dtype=np.float64)


_BASES = (0.0, 1.0, -3.5, 5e-324, 1.7e308, -1.7e308, 1e-300)
_COLUMN_KINDS = ("normal", "constant", "few", "step", "relu", "ulps")


@st.composite
def _training_sets(draw):
    """Small training sets whose columns are constant, constant only inside
    some nodes, heavily tied, or a few ulps wide; rows may repeat, and the
    leading positives may be copies of one row."""
    n_distinct = draw(st.integers(2, 40))
    repeats = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=6))
    base = draw(st.sampled_from(_BASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = len(kinds)
    X = rng.standard_normal((n_distinct, d))
    steps = np.floor(2 * X[:, 0])
    for j, kind in enumerate(kinds):
        if kind == "constant":
            X[:, j] = base
        elif kind == "few":
            X[:, j] = rng.integers(0, 3, n_distinct)
        elif kind == "step":
            X[:, j] = steps  # constant inside nodes cut on column 0
        elif kind == "relu":
            X[:, j] = np.maximum(X[:, j], 0.0)
        elif kind == "ulps":
            X[:, j] = _adjacent(base, rng.integers(0, draw(st.integers(1, 3)) + 1, n_distinct))
    X = np.repeat(X, repeats, axis=0)
    n = X.shape[0]
    # Labels are drawn after the repeat, so equal rows may disagree.
    y = (rng.random(n) < draw(st.sampled_from([0.1, 0.5]))).astype(np.int64)
    y[rng.choice(n, 2, replace=False)] = [0, 1]
    order = rng.permutation(n)
    X, y = X[order], y[order]
    if draw(st.booleans()):
        # A node lists its positives first, so these copies lead every node
        # that holds them, whose first rows then show no variation.
        pos = np.flatnonzero(y == 1)
        X[pos[:draw(st.integers(2, 10))]] = X[pos[0]]
    return X, y, draw(st.integers(0, 2**16))


class TestFit:
    def test_separable_training_accuracy_is_one(self):
        rng = np.random.default_rng(0)
        X, y = _separable(rng, n=200)
        ens = fit(X, y, n_trees=50, seed=0)
        assert np.array_equal(predict_proba(ens, X) >= 0.5, y == 1)

    def test_constant_features_give_single_leaves(self):
        X = np.full((30, 3), 7.0)
        y = np.array([0] * 20 + [1] * 10)
        ens = fit(X, y, n_trees=10, seed=1)
        for tree in ens.trees:
            assert len(tree["feature"]) == 1
            assert tree["feature"][0] == _LEAF
            assert tree["counts"][0].tolist() == [20, 10]
        # Majority class everywhere.
        assert not (predict_proba(ens, X) >= 0.5).any()

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        X, y = _separable(rng)
        a = serialize_ensemble(fit(X, y, n_trees=20, seed=5))
        b = serialize_ensemble(fit(X, y, n_trees=20, seed=5))
        c = serialize_ensemble(fit(X, y, n_trees=20, seed=6))
        assert a == b
        assert a != c

    def test_default_k_is_ceil_sqrt_d(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 10))
        y = (rng.random(40) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        payload = json.loads(serialize_ensemble(fit(X, y, n_trees=2)))
        assert (payload["k_features"], payload["min_samples_split"]) == (4, 2)

    def test_input_validation(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 2))
        with pytest.raises(ValueError, match="single class"):
            fit(X, np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="binary"):
            fit(X, np.arange(10))
        with pytest.raises(ValueError, match="do not align"):
            fit(X, np.array([0, 1]))
        with pytest.raises(ValueError, match="zero features"):
            fit(np.empty((4, 0)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match="at least 2"):
            fit(X[:1], np.array([0]))
        y = np.array([0, 1] * 5)
        with pytest.raises(ValueError, match="n_trees"):
            fit(X, y, n_trees=0)

    def test_thresholds_strictly_inside_node_ranges(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((120, 4))
        y = (X[:, 0] + 0.3 * rng.standard_normal(120) > 0).astype(np.int64)
        ens = fit(X, y, n_trees=10, seed=5)
        for tree in ens.trees:
            # Re-derive the sample set reaching every node and check the cut.
            reach = {0: np.arange(120)}
            for node in range(len(tree["feature"])):
                f = tree["feature"][node]
                idx = reach[node]
                if f == _LEAF:
                    continue
                vals = X[idx, f]
                t = tree["threshold"][node]
                assert vals.min() < t < vals.max()
                lmask = vals < t
                assert 0 < lmask.sum() < idx.size
                reach[tree["left"][node]] = idx[lmask]
                reach[tree["right"][node]] = idx[~lmask]

    def test_leaf_counts_sum_to_samples(self):
        rng = np.random.default_rng(6)
        X, y = _separable(rng, n=80)
        ens = fit(X, y, n_trees=5, seed=6)
        for tree in ens.trees:
            leaves = tree["feature"] == _LEAF
            assert tree["counts"][leaves].sum() == 80
            assert tree["counts"][0].tolist() == [int((y == 0).sum()), int((y == 1).sum())]


class TestFastSplitSearch:
    """The split search against the reference grower."""

    @settings(max_examples=150, deadline=None)
    @given(_training_sets())
    def test_fit_bytes_equal_the_reference(self, case):
        X, y, seed = case
        fast = fit(X, y, n_trees=3, seed=seed)
        slow = _oracle_fit(X, y, 3, seed)
        assert serialize_ensemble(fast) == serialize_ensemble(slow)

    def test_probe_reads_both_ends_of_a_node(self):
        # Ten positives, copies of one row, lead the node; its ten negatives
        # differ from them in every attribute but the last, which is constant.
        # Only that attribute and the k drawn ones may be gathered over the
        # whole node.
        n, d, k = 20, 9, 3
        X = np.zeros((n, d))
        X[10:, :-1] = np.random.default_rng(40).standard_normal((10, d - 1))
        Xt = np.ascontiguousarray(X.T).view(_LoggedTakes)
        Xt.log = []
        split = _choose_split(Xt, np.arange(n), k, np.random.default_rng(41), 10, 10)
        assert split is not None and split[0] < d - 1
        assert [i.tolist() for axis, i in Xt.log if axis == 1] == [[0, 1, 2, 3, 16, 17, 18, 19]]
        # A gather's flat index is attribute * n + row.
        gathered = np.concatenate([i.ravel() // n for axis, i in Xt.log if axis is None])
        cells = np.bincount(gathered, minlength=d).tolist()
        assert cells[-1] == n
        assert sorted(cells[:-1]) == [0] * (d - 1 - k) + [n] * k

    @pytest.mark.parametrize("u", [0.0, 1.0])
    @pytest.mark.parametrize("base", _BASES)
    def test_fallback_cuts_match_the_reference(self, base, u):
        # A draw at the range's end is never strictly inside, so every cut
        # comes from a fallback: the midpoint across a 2-ulp column, nextafter
        # where lo + hi overflows, and no cut at all across a 1-ulp column.
        X = np.column_stack([
            _adjacent(base, [0, 2, 2, 0, 2, 0] * 2),
            _adjacent(base, [0, 1, 1, 0, 0, 1] * 2),
            np.arange(12, dtype=np.float64),
        ])
        y = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0])
        fast = _build_tree(np.ascontiguousarray(X.T), y == 1, 3, _FixedDraws(u))
        slow = _oracle_build_tree(X, y, 3, _FixedDraws(u))
        for key in slow:
            assert fast[key].tobytes() == slow[key].tobytes(), key

    @pytest.mark.parametrize("column, expected", [
        ([0.0, 1.0], 0.5),  # the midpoint
        ([1e308, 1.5e308], float(np.nextafter(1e308, np.inf))),  # lo + hi overflows
        (_adjacent(1.0, [0, 1]).tolist(), None),  # no float strictly inside
    ])
    @pytest.mark.parametrize("u", [0.0, 1.0])
    def test_fallback_cut_values(self, column, expected, u):
        X = np.array(column * 2)[:, None]
        y = np.array([0, 1, 1, 0])
        tree = _build_tree(np.ascontiguousarray(X.T), y == 1, 1, _FixedDraws(u))
        if expected is None:
            assert tree["feature"].tolist() == [_LEAF]
        else:
            assert tree["feature"][0] == 0 and tree["threshold"][0] == expected

    def test_scalar_uniform_draws_equal_one_vector_draw(self):
        # fit draws a node's k cut-points as lo + (hi - lo) * rng.random(k);
        # the trees keep their bytes only while that equals k scalar
        # rng.uniform(lo, hi) calls and leaves the generator in the same state.
        rng = np.random.default_rng(11)
        size = 2000
        lo = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
        hi = lo + np.abs(lo) * 10.0 ** rng.uniform(-15, 3, size)
        edges = np.array([[0.0, 5e-324], [-1e308, 7e307], [1.0, np.nextafter(1.0, 2.0)],
                          [-2.0, -1.0], [1e-310, 3e-310], [-1.7e308, -1.6e308]])
        lo, hi = np.concatenate([lo, edges[:, 0]]), np.concatenate([hi, edges[:, 1]])
        assert np.isfinite(hi - lo).all() and (lo < hi).all()
        scalar_rng = np.random.default_rng(12)
        vector_rng = np.random.default_rng(12)
        scalar = np.array([scalar_rng.uniform(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
        vector = lo + (hi - lo) * vector_rng.random(lo.size)
        assert scalar.tobytes() == vector.tobytes()
        assert scalar_rng.random() == vector_rng.random()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_fit_refuses_non_finite_input(self, value):
        X = np.arange(12, dtype=np.float64).reshape(6, 2)
        X[3, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            fit(X, np.array([0, 1] * 3))

    def test_fit_refuses_a_range_that_overflows(self):
        X = np.zeros((4, 2))
        X[:, 1] = [-1e308, 1e308, 0.0, 1.0]
        with pytest.raises(ValueError, match="range of feature 1 overflows"):
            fit(X, np.array([0, 1, 0, 1]))


def _golden_matrix():
    """The training matrix that ``FIT_GOLDEN`` in test_golden_digests.py pins."""
    rng = np.random.default_rng(20261018)
    X = rng.standard_normal((2000, 32))
    y = (rng.random(2000) < 0.05).astype(np.int64)
    X[y == 1, :4] += 1.0
    X[:, 16:] = np.maximum(X[:, 16:], 0.0)
    return X, y


class TestForkedFit:
    """With two CPUs, fit grows half the forest in one forked worker."""

    @staticmethod
    def _both_ways(X, y, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            forked = serialize_ensemble(fit(X, y, **kwargs))
        with pytest.MonkeyPatch.context() as mp:
            in_process_only(mp)
            in_process = serialize_ensemble(fit(X, y, **kwargs))
        assert_no_child_left()
        return forked, in_process, len(forks)

    @pytest.mark.parametrize("n_trees", [1, 2, 3, 7])
    def test_golden_matrix_bytes_equal_the_in_process_fit(self, n_trees):
        X, y = _golden_matrix()
        forked, in_process, forks = self._both_ways(X, y, n_trees=n_trees, seed=3)
        assert forked == in_process
        assert forks == (1 if n_trees >= 2 else 0)

    @settings(max_examples=40, deadline=None)
    @given(_training_sets(), st.sampled_from([1, 2, 3, 7]))
    def test_bytes_equal_the_in_process_fit(self, case, n_trees):
        X, y, seed = case
        forked, in_process, forks = self._both_ways(X, y, n_trees=n_trees, seed=seed)
        assert forked == in_process
        assert forks == (1 if n_trees >= 2 else 0)

    def test_a_failing_worker_raises_and_is_reaped(self):
        parent, build = os.getpid(), extra_trees._build_tree

        def build_in_parent_only(*args):
            if os.getpid() != parent:
                raise MemoryError("the worker ran out of memory")
            return build(*args)

        X, y = _separable(np.random.default_rng(30))
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            mp.setattr(extra_trees, "_build_tree", build_in_parent_only)
            with pytest.raises(RuntimeError, match="tree worker exited with code 1 "
                                                   "after sending 0 of its 3 trees: "
                                                   "MemoryError: the worker ran out of memory$"):
                fit(X, y, n_trees=5)
        assert forks == [parent]
        assert_no_child_left()

    def test_a_failing_parent_half_propagates_and_the_worker_is_reaped(self):
        parent, build = os.getpid(), extra_trees._build_tree
        grown = []

        def build_slowly_in_worker(*args):
            if os.getpid() != parent:
                time.sleep(30)  # outlives the test unless the parent stops it
            elif len(grown) == 1:
                raise KeyError("second tree")
            grown.append(1)
            return build(*args)

        X, y = _separable(np.random.default_rng(31))
        with pytest.MonkeyPatch.context() as mp:
            counted_forks(mp)
            mp.setattr(extra_trees, "_build_tree", build_slowly_in_worker)
            start = time.monotonic()
            with pytest.raises(KeyError, match="second tree"):
                fit(X, y, n_trees=4)
        assert time.monotonic() - start < 15
        assert_no_child_left()


class TestPredict:
    def test_proba_matches_per_tree_routing_oracle(self):
        rng = np.random.default_rng(8)
        X, y = _separable(rng, n=150, d=4, margin=0.6)
        ens = fit(X, y, n_trees=20, seed=8)
        Q = rng.standard_normal((40, 4))
        got = predict_proba(ens, Q)
        acc = np.zeros(40)
        for tree in ens.trees:
            for i in range(40):
                c0, c1 = tree["counts"][route_one(tree, Q[i])]
                acc[i] += c1 / (c0 + c1)
        assert np.array_equal(got, acc / ens.n_trees)

    def test_vectorized_routing_matches_recursive(self):
        rng = np.random.default_rng(9)
        X, y = _separable(rng, n=100, d=3)
        ens = fit(X, y, n_trees=10, seed=9)
        Q = rng.standard_normal((30, 3))
        for tree in ens.trees:
            vec = route(tree, Q)
            rec = np.array([route_one(tree, q) for q in Q])
            assert np.array_equal(vec, rec)

    def test_pure_leaves_give_certainty(self):
        rng = np.random.default_rng(10)
        X, y = _separable(rng, n=100, margin=3.0)
        ens = fit(X, y, n_trees=30, seed=10)
        probe = np.array([[6.0, 0.0], [-6.0, 0.0]])
        p = predict_proba(ens, probe)
        assert p[0] == 1.0
        assert p[1] == 0.0

    def test_proba_bounds(self):
        rng = np.random.default_rng(11)
        X, y = _separable(rng, n=120, margin=0.4)
        ens = fit(X, y, n_trees=15, seed=11)
        Q = rng.standard_normal((60, 2)) * 2
        p = predict_proba(ens, Q)
        assert ((0.0 <= p) & (p <= 1.0)).all()

    def test_non_finite_input_rejected(self):
        ens = deserialize_ensemble(_hand_written())
        for bad in (np.nan, np.inf, -np.inf):
            Q = np.zeros((3, 3))
            Q[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                predict_proba(ens, Q)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        X, y = _separable(rng)
        ens = fit(X, y, n_trees=3, seed=12)
        with pytest.raises(ValueError, match="expected n x 2"):
            predict_proba(ens, np.zeros((4, 3)))

    def test_memorizes_training_data(self):
        # Continuous features have no duplicate rows, splitting stops only at
        # purity, so every training point sits in a leaf of its own class.
        rng = np.random.default_rng(13)
        X = rng.standard_normal((70, 3))
        y = (rng.random(70) < 0.5).astype(np.int64)
        y[:2] = [0, 1]
        ens = fit(X, y, n_trees=7, seed=13)
        p = predict_proba(ens, X)
        assert np.array_equal(p >= 0.5, y == 1)
        assert np.array_equal(p, y.astype(np.float64))


class TestPackedRouting:
    """All trees routed together must equal the per-tree oracle bit for bit."""

    def _impure_forest(self, seed=20, n_trees=40):
        # Every row three times, a fifth of the labels flipped: equal rows
        # that disagree admit no cut and end in impure leaves.
        rng = np.random.default_rng(seed)
        X, y = _separable(rng, n=100, d=5, margin=0.3)
        X, y = np.repeat(X, 3, axis=0), np.repeat(y, 3)
        flip = rng.random(y.size) < 0.2
        y[flip] = 1 - y[flip]
        return fit(X, y, n_trees=n_trees, seed=seed), rng

    def test_impure_leaves_match_oracle_in_tree_order(self):
        ens, rng = self._impure_forest()
        leaves = ens.trees[0]["counts"][ens.trees[0]["feature"] == _LEAF]
        assert (leaves.min(axis=1) > 0).any()
        Q = rng.standard_normal((200, 5))
        expect = oracle_proba(ens, Q)
        assert np.array_equal(predict_proba(ens, Q), expect)
        # The check is sharp: summing each row's leaf values along a
        # contiguous axis (pairwise) gives other bits for some rows.
        values = np.stack([leaf_values(t, Q) for t in ens.trees], axis=1)
        assert not np.array_equal(values.sum(axis=1) / ens.n_trees, expect)

    def test_zero_and_one_row_inputs(self):
        ens, rng = self._impure_forest(seed=21)
        assert predict_proba(ens, np.zeros((0, 5))).shape == (0,)
        Q = rng.standard_normal((20, 5))
        lone = np.concatenate([predict_proba(ens, q[None]) for q in Q])
        assert lone.tobytes() == oracle_proba(ens, Q).tobytes()
        assert lone.tobytes() == predict_proba(ens, Q).tobytes()
        # The check is sharp: one reduce down a lone row's contiguous
        # (n_trees, 1) column of leaf values sums pairwise, with other bits
        # for some rows.
        values = np.stack([leaf_values(t, Q) for t in ens.trees], axis=1)
        pairwise = np.concatenate([np.add.reduce(v[:, None], axis=0) for v in values])
        assert not np.array_equal(pairwise / ens.n_trees, lone)

    def test_trees_of_different_depths(self):
        ens, rng = self._impure_forest(seed=22, n_trees=6)
        X, y = _separable(rng, n=200, d=5, margin=0.2)
        deep = fit(X, y, n_trees=6, seed=22)
        single_leaf = deserialize_ensemble(_hand_written()).trees[0]
        single_leaf = {**single_leaf, "counts": np.array([[2, 9]])}
        trees = [deep.trees[0], single_leaf, *ens.trees[:3], single_leaf, *deep.trees[1:]]
        mixed = TreeEnsemble(n_features=5, seed=0, trees=trees)
        depths = {_depth(t) for t in trees}
        assert 0 in depths and len(depths) >= 4
        Q = rng.standard_normal((150, 5))
        assert np.array_equal(predict_proba(mixed, Q), oracle_proba(mixed, Q))

    def test_hand_written_forest(self):
        ens = deserialize_ensemble(_hand_written())
        Q = np.array([
            [0.0, 0.0, 0.0],    # tree 1: left leaf, 0/3
            [1.0, 0.0, -2.0],   # tree 1: right then left, 1/2
            [1.0, 0.0, 0.0],    # tree 1: right then right, 6/6
            [0.5, 9.0, -1.0],   # both thresholds hit exactly: >= goes right
        ])
        expect = (0.25 + np.array([0.0, 0.5, 1.0, 1.0])) / 2
        assert np.array_equal(predict_proba(ens, Q), expect)
        assert np.array_equal(predict_proba(ens, Q), oracle_proba(ens, Q))


class TestTreeValidation:
    def test_hand_written_forest_is_valid(self):
        assert deserialize_ensemble(_hand_written()).n_trees == 2

    @pytest.mark.parametrize("edit, message", [
        # A root that is its own child would make routing loop forever.
        (lambda t: t[1]["left"].__setitem__(0, 0), r"tree 1 node 0: children"),
        (lambda t: t[1]["right"].__setitem__(2, 999), r"tree 1 node 2: children"),
        (lambda t: t[1]["right"].__setitem__(2, 1), r"tree 1 node 2: children"),
        (lambda t: t[1]["feature"].__setitem__(2, 7), r"tree 1 node 2: feature outside \[0, 3\)"),
        (lambda t: t[1]["feature"].__setitem__(0, -2), r"tree 1 node 0: feature outside"),
        (lambda t: t[1]["counts"].__setitem__(1, [0, 0]), r"tree 1 node 1: counts sum to 0"),
        (lambda t: t[1]["counts"].__setitem__(3, [-1, 2]), r"tree 1 node 3: counts are negative"),
        (lambda t: t[1]["left"].__setitem__(1, 3), r"tree 1 node 1: leaf has a child"),
        (lambda t: t[1]["threshold"].__setitem__(0, float("inf")), r"tree 1 node 0: threshold"),
        (lambda t: t[0]["threshold"].append(1.0), r"tree 0: feature, threshold"),
        (lambda t: t[0].__setitem__("feature", []), r"tree 0: feature, threshold"),
        (lambda t: t[0].__setitem__("counts", [3, 1]), r"tree 0: counts must have shape \(1, 2\)"),
        (lambda t: t[0].pop("left"), r"tree 0: missing field 'left'"),
        (lambda t: t[0].__setitem__("feature", ["a"]), r"tree 0: field 'feature' is not numeric"),
        (lambda t: t.__setitem__(0, [1, 2]), r"tree 0: expected an object"),
    ])
    def test_malformed_tree_rejected(self, edit, message):
        with pytest.raises(ValueError, match=message):
            deserialize_ensemble(_hand_written(edit))

    @pytest.mark.parametrize("key", [
        "n_features", "n_trees", "k_features", "min_samples_split", "seed",
    ])
    @pytest.mark.parametrize("value", [None, True, 2.0, "2"])
    def test_header_integers_must_be_json_integers(self, key, value):
        payload = copy.deepcopy(_HAND_WRITTEN)
        payload[key] = value
        with pytest.raises(ValueError, match=f"field '{key}' must be an integer"):
            deserialize_ensemble(json.dumps(payload).encode())

    @pytest.mark.parametrize("value", ["bogus", None, 0, ["per_vector"]])
    def test_norm_mode_must_be_known(self, value):
        payload = copy.deepcopy(_HAND_WRITTEN)
        payload["norm_mode"] = value
        with pytest.raises(ValueError, match="field 'norm_mode' must be one of"):
            deserialize_ensemble(json.dumps(payload).encode())
        payload["norm_mode"] = "per_dimension"
        assert deserialize_ensemble(json.dumps(payload).encode()).norm_mode == "per_dimension"

    @pytest.mark.parametrize("fields, message", [
        ({"window_len": None}, "field 'window_len' must be a number, got None"),
        ({"stride": False}, "field 'stride' must be a number, got False"),
        ({"stride": [5.0]}, r"field 'stride' must be a number, got \[5.0\]"),
        ({"window_len": -1}, "window_len must be finite and > 0, got -1.0"),
        ({"stride": -math.inf}, "stride must be finite and > 0, got -inf"),
        ({"window_len": 10 ** 400}, "window_len must be finite and > 0, got inf"),
        ({"stride": 70.0}, "stride 70.0 exceeds window length 60.0"),
    ])
    def test_windowing_must_be_usable(self, fields, message):
        payload = copy.deepcopy(_HAND_WRITTEN)
        payload.update(fields)
        with pytest.raises(ValueError, match=f"^(ensemble )?{message}$"):
            deserialize_ensemble(json.dumps(payload).encode())

    def test_trees_must_be_a_non_empty_list(self):
        payload = copy.deepcopy(_HAND_WRITTEN)
        payload["trees"] = {"0": payload["trees"][0]}
        with pytest.raises(ValueError, match="'trees' must be a list"):
            deserialize_ensemble(json.dumps(payload).encode())
        payload.update(trees=[], n_trees=0)
        with pytest.raises(ValueError, match="no trees"):
            deserialize_ensemble(json.dumps(payload).encode())


class TestLabelFlipSymmetry:
    def test_flipped_labels_build_mirrored_trees(self):
        rng = np.random.default_rng(14)
        X, y = _separable(rng, n=90, d=3, margin=0.5)
        a = fit(X, y, n_trees=25, seed=14)
        b = fit(X, 1 - y, n_trees=25, seed=14)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta["feature"], tb["feature"])
            assert np.array_equal(ta["threshold"], tb["threshold"])
            assert np.array_equal(ta["left"], tb["left"])
            assert np.array_equal(ta["right"], tb["right"])
            assert np.array_equal(ta["counts"], tb["counts"][:, ::-1])

    def test_flipped_probabilities_complement(self):
        rng = np.random.default_rng(15)
        X, y = _separable(rng, n=90, margin=0.5)
        a = fit(X, y, n_trees=25, seed=15)
        b = fit(X, 1 - y, n_trees=25, seed=15)
        Q = rng.standard_normal((30, 2))
        np.testing.assert_allclose(
            predict_proba(a, Q), 1.0 - predict_proba(b, Q), atol=1e-12
        )


class TestMonotoneRescaling:
    def test_heldout_accuracy_stable_under_monotone_transforms(self):
        # Rank-preserving feature transforms should not change how learnable
        # the sample is; compare mean held-out accuracy over many seeds.
        accs_raw, accs_mono = [], []
        for seed in range(24):
            rng = np.random.default_rng(100 + seed)
            X, y = _separable(rng, n=120, d=3, margin=1.0)
            Xm = np.empty_like(X)
            Xm[:, 0] = np.exp(X[:, 0])
            Xm[:, 1] = X[:, 1] ** 3
            Xm[:, 2] = np.arctan(X[:, 2])
            tr, te = np.arange(80), np.arange(80, 120)
            a = fit(X[tr], y[tr], n_trees=25, seed=seed)
            b = fit(Xm[tr], y[tr], n_trees=25, seed=seed)
            accs_raw.append(float(((predict_proba(a, X[te]) >= 0.5) == y[te]).mean()))
            accs_mono.append(float(((predict_proba(b, Xm[te]) >= 0.5) == y[te]).mean()))
        assert np.mean(accs_raw) >= 0.97
        assert np.mean(accs_mono) >= 0.97
        assert abs(np.mean(accs_raw) - np.mean(accs_mono)) < 0.02


class TestSerialization:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(16)
        X, y = _separable(rng)
        ens = fit(X, y, n_trees=8, seed=16)
        blob = serialize_ensemble(ens)
        ens2 = deserialize_ensemble(blob)
        assert serialize_ensemble(ens2) == blob
        assert ens2.n_features == ens.n_features
        Q = rng.standard_normal((20, 2))
        assert np.array_equal(predict_proba(ens, Q), predict_proba(ens2, Q))

    def test_norm_mode_round_trips_and_default_stays_implicit(self):
        import json

        rng = np.random.default_rng(19)
        X, y = _separable(rng)
        ens = fit(X, y, n_trees=2, seed=19)
        assert ens.norm_mode == "per_vector"
        assert "norm_mode" not in json.loads(serialize_ensemble(ens))
        ens.norm_mode = "per_dimension"
        blob = serialize_ensemble(ens)
        assert json.loads(blob)["norm_mode"] == "per_dimension"
        assert deserialize_ensemble(blob).norm_mode == "per_dimension"

    def test_windowing_round_trips_and_default_stays_implicit(self):
        rng = np.random.default_rng(19)
        X, y = _separable(rng)
        ens = fit(X, y, n_trees=2, seed=19)
        assert (ens.window_len, ens.stride) == (60.0, 10.0)
        payload = json.loads(serialize_ensemble(ens))
        assert "window_len" not in payload and "stride" not in payload
        ens.window_len, ens.stride = 30.0, 5.0
        blob = serialize_ensemble(ens)
        assert b'"stride":5.0' in blob and b'"window_len":30.0' in blob
        back = deserialize_ensemble(blob)
        assert (back.window_len, back.stride) == (30.0, 5.0)
        assert serialize_ensemble(back) == blob
        # A JSON integer is a number too.
        payload.update(window_len=30, stride=5)
        back = deserialize_ensemble(json.dumps(payload).encode())
        assert (back.window_len, back.stride) == (30.0, 5.0)

    def test_corrupt_payloads_rejected(self):
        rng = np.random.default_rng(17)
        X, y = _separable(rng)
        blob = serialize_ensemble(fit(X, y, n_trees=2, seed=17))
        with pytest.raises(ValueError, match="not valid JSON"):
            deserialize_ensemble(blob[:10])
        with pytest.raises(ValueError, match="format"):
            deserialize_ensemble(b'{"format":"other"}')
        import json

        payload = json.loads(blob)
        payload["version"] = 42
        with pytest.raises(ValueError, match="version"):
            deserialize_ensemble(json.dumps(payload).encode())
        payload = json.loads(blob)
        del payload["trees"]
        with pytest.raises(ValueError, match="missing field"):
            deserialize_ensemble(json.dumps(payload).encode())

    def test_save_and_load(self, tmp_path):
        rng = np.random.default_rng(18)
        X, y = _separable(rng)
        ens = fit(X, y, n_trees=4, seed=18)
        path = tmp_path / "trees.json"
        save_ensemble(ens, path)
        assert serialize_ensemble(load_ensemble(path)) == serialize_ensemble(ens)
        with pytest.raises(FileNotFoundError):
            load_ensemble(tmp_path / "missing.json")

    def test_declared_tree_count_must_match(self):
        for n_trees in (1, 3):
            payload = copy.deepcopy(_HAND_WRITTEN)
            payload["n_trees"] = n_trees
            with pytest.raises(ValueError, match=f"declares {n_trees} trees but holds 2"):
                deserialize_ensemble(json.dumps(payload).encode())

    def test_hand_written_growth_settings_resave_as_the_rule(self):
        # Three features: the rule draws k = 2 and splits down to 2 rows.
        payload = copy.deepcopy(_HAND_WRITTEN)
        payload.update(k_features=3, min_samples_split=7)
        back = json.loads(serialize_ensemble(deserialize_ensemble(json.dumps(payload).encode())))
        assert (back["k_features"], back["min_samples_split"]) == (2, 2)
        assert back["trees"] == payload["trees"]
