"""Scoring, ranking AUC, stratified cross-validation, and the text tables."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import botfuse
from botfuse import extra_trees
from botfuse.metrics import (
    MetricSet,
    average_ranks,
    compute_metrics,
    format_metrics_table,
    format_sweep_table,
    kfold_cv,
    rank_auc,
    stratified_folds,
    summarize_folds,
)
from fork_checks import assert_no_child_left, counted_forks, in_process_only


def _pairs_auc(y, p):
    """All-pairs comparison with half credit for ties."""
    y = np.asarray(y)
    p = np.asarray(p, dtype=np.float64)
    pos = p[y == 1]
    neg = p[y != 1]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (pos.size * neg.size)


class TestRankAuc:
    def test_perfect_and_inverted_ranking(self):
        y = np.array([0, 0, 1, 1])
        assert rank_auc(y, [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert rank_auc(y, [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_constant_scores_give_half(self):
        assert rank_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_matches_all_pairs_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            y = (rng.random(n) < 0.5).astype(np.int64)
            y[:2] = [0, 1]
            # Quantized scores force plenty of ties.
            p = rng.integers(0, 8, size=n) / 8.0
            assert rank_auc(y, p) == _pairs_auc(y, p)

    def test_matches_scipy_rankdata_bit_for_bit(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(2, 300))
            levels = int(rng.integers(1, 12))
            p = rng.integers(0, levels, size=n) / levels
            if trial % 4 == 0:
                p = np.concatenate([p, rng.random(n)])
            y = (rng.random(p.size) < 0.4).astype(np.int64)
            y[:2] = [0, 1]
            ranks = stats.rankdata(p, method="average")
            assert average_ranks(p).tobytes() == ranks.tobytes()
            n_pos = int(y.sum())
            n_neg = y.size - n_pos
            expected = (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
            assert rank_auc(y, p) == expected

    def test_nan_score_gives_nan(self):
        assert np.isnan(average_ranks(np.array([0.2, np.nan, 0.2]))).all()
        assert np.isnan(rank_auc([0, 1, 1], [0.1, np.nan, 0.3]))

    def test_cli_import_does_not_load_scipy_stats(self):
        env = dict(os.environ, PYTHONPATH=str(Path(botfuse.__file__).resolve().parents[1]))
        code = "import sys, botfuse.cli; assert 'scipy.stats' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_cli_round_trip_does_not_load_scipy_sparse(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(botfuse.__file__).resolve().parents[1]))
        code = """
import sys
from botfuse.cli import main
loaded = [m for m in sys.modules if m.startswith("scipy") and m != "scipy.sparse._sparsetools"]
assert not loaded, loaded
f, g, m, t = (sys.argv[1] + "/" + name for name in ("f.csv", "g", "m.bin", "t.json"))
for argv in (
    ["synth", "--kind", "flows", "--out", f, "--n-background", "40", "--n-bots", "6",
     "--duration", "300", "--seed", "3"],
    ["synth", "--kind", "graphs", "--out", g, "--n-graphs", "2", "--n-background", "30",
     "--n-bots", "6", "--seed", "1"],
    ["pretrain", "--data", g, "--depth", "2", "--max-epochs", "2", "--out", m],
    ["train", "--flows", f, "--model", m, "--n-trees", "5", "--out", t],
    ["detect", "--flows", f, "--model", m, "--ensemble", t, "--out", t + ".jsonl"],
    ["eval", "--flows", f, "--model", m, "--k", "2", "--n-trees", "5"],
):
    assert main(argv) == 0, argv
assert "scipy.sparse" not in sys.modules
assert "scipy.stats" not in sys.modules
"""
        subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True)

    def test_single_class_returns_none(self):
        assert rank_auc([1, 1], [0.2, 0.8]) is None
        assert rank_auc([0, 0], [0.2, 0.8]) is None

    def test_mirroring_labels_and_scores_preserves_auc(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = (rng.random(20) < 0.5).astype(np.int64)
            y[:2] = [0, 1]
            p = rng.integers(0, 5, size=20) / 5.0
            assert rank_auc(1 - y, 1.0 - p) == rank_auc(y, p)


class TestComputeMetrics:
    def test_hand_built_confusion(self):
        m = compute_metrics([1, 1, 0, 0], [0.9, 0.4, 0.6, 0.1])
        assert (m.tp, m.fp, m.tn, m.fn) == (1, 1, 1, 1)
        assert m.accuracy == 0.5
        assert m.precision == 0.5
        assert m.recall == 0.5
        assert m.fpr == 0.5
        assert m.f1 == 0.5
        assert m.roc_auc == 0.75

    def test_perfect_predictor(self):
        m = compute_metrics([0, 1, 0, 1], [0.1, 0.9, 0.2, 0.8])
        assert (m.tp, m.fp, m.tn, m.fn) == (2, 0, 2, 0)
        assert m.accuracy == m.precision == m.recall == m.f1 == 1.0
        assert m.fpr == 0.0
        assert m.roc_auc == 1.0

    def test_probability_equal_to_threshold_counts_positive(self):
        m = compute_metrics([1, 0], [0.5, 0.5], threshold=0.5)
        assert (m.tp, m.fp) == (1, 1)

    def test_degenerate_denominators_settle_to_zero(self):
        m = compute_metrics([0, 0], [0.1, 0.2])
        assert m.tn == 2
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert m.accuracy == 1.0
        assert m.roc_auc is None

    def test_mirrored_problem_swaps_confusion_cells(self):
        rng = np.random.default_rng(2)
        y = (rng.random(30) < 0.4).astype(np.int64)
        y[:2] = [0, 1]
        # Scores off the 0.5 threshold so the mirrored prediction flips exactly.
        p = rng.integers(0, 10, size=30) / 10.0 + 0.05
        m = compute_metrics(y, p)
        mm = compute_metrics(1 - y, 1.0 - p)
        assert (mm.tp, mm.fp, mm.tn, mm.fn) == (m.tn, m.fn, m.tp, m.fp)
        assert mm.accuracy == m.accuracy
        assert mm.recall == pytest.approx(1.0 - m.fpr, abs=1e-12)

    def test_to_dict_round_trip(self):
        m = compute_metrics([0, 1], [0.2, 0.9])
        d = m.to_dict()
        assert d["tp"] == 1 and d["tn"] == 1
        assert set(d) == {
            "tp", "fp", "tn", "fn",
            "accuracy", "precision", "recall", "fpr", "f1", "roc_auc",
        }

    def test_input_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            compute_metrics([0, 1], [0.5])
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([], [])


class TestStratifiedFolds:
    def test_partition_and_per_class_balance(self):
        y = np.array([1] * 6 + [0] * 9)
        folds = stratified_folds(y, k=3, seed=0)
        assert len(folds) == 3
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(15))
        for f in folds:
            assert int((y[f] == 1).sum()) == 2
            assert int((y[f] == 0).sum()) == 3

    def test_class_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(3)
        y = (rng.random(47) < 0.3).astype(np.int64)
        y[:2] = [0, 1]
        folds = stratified_folds(y, k=5, seed=1)
        for cls in (0, 1):
            counts = [int((y[f] == cls).sum()) for f in folds]
            assert max(counts) - min(counts) <= 1

    def test_leave_one_out_layout(self):
        y = np.array([0, 1] * 8)
        folds = stratified_folds(y, k=16, seed=0)
        assert all(f.size == 1 for f in folds)

    def test_determinism_and_seed_sensitivity(self):
        y = np.array([0] * 20 + [1] * 20)
        a = stratified_folds(y, k=4, seed=7)
        b = stratified_folds(y, k=4, seed=7)
        c = stratified_folds(y, k=4, seed=8)
        assert all(np.array_equal(x, z) for x, z in zip(a, b))
        assert any(not np.array_equal(x, z) for x, z in zip(a, c))

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="k must be"):
            stratified_folds(np.array([0, 1]), k=1)
        with pytest.raises(ValueError, match="cannot make"):
            stratified_folds(np.array([0, 1]), k=3)


class TestSummarize:
    def test_mean_std_and_none_propagation(self):
        def ms(acc, auc):
            return MetricSet(
                tp=1, fp=0, tn=1, fn=0, accuracy=acc, precision=1.0,
                recall=1.0, fpr=0.0, f1=1.0, roc_auc=auc,
            )

        summary = summarize_folds([ms(0.8, None), ms(0.6, None)])
        assert summary["mean"]["accuracy"] == pytest.approx(0.7)
        assert summary["std"]["accuracy"] == pytest.approx(0.1)
        assert summary["mean"]["roc_auc"] is None
        # A lone None is dropped from the aggregation rather than poisoning it.
        summary2 = summarize_folds([ms(1.0, 0.9), ms(1.0, None)])
        assert summary2["mean"]["roc_auc"] == pytest.approx(0.9)


def _blobs(n=40, seed=0, margin=2.5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2)) * 0.3
    y = np.arange(n) % 2
    X[:, 0] += np.where(y == 1, margin, -margin)
    return X, y


class TestKfoldCv:
    def test_separable_leave_one_out_is_perfect(self):
        X, y = _blobs(n=20)
        fold_metrics, summary = kfold_cv(X, y, k=20, seed=0, n_trees=20)
        assert len(fold_metrics) == 20
        assert summary["mean"]["accuracy"] == 1.0

    def test_ten_fold_summary_shape(self):
        X, y = _blobs(n=50)
        fold_metrics, summary = kfold_cv(X, y, k=10, seed=0, n_trees=10)
        assert len(fold_metrics) == 10
        assert set(summary) == {"mean", "std"}
        assert summary["mean"]["recall"] >= 0.9

    def test_determinism(self):
        X, y = _blobs(n=30, margin=0.5)
        a, _ = kfold_cv(X, y, k=5, seed=3, n_trees=10)
        b, _ = kfold_cv(X, y, k=5, seed=3, n_trees=10)
        assert [m.to_dict() for m in a] == [m.to_dict() for m in b]

    def test_errors(self):
        X, y = _blobs(n=10)
        with pytest.raises(ValueError, match="disagree"):
            kfold_cv(X, y[:-1], k=2)
        with pytest.raises(ValueError, match="single-class"):
            kfold_cv(np.zeros((4, 2)), np.array([0, 0, 0, 1]), k=2)


class TestForkedKfold:
    """With two CPUs, kfold_cv scores the second half of its folds in one
    forked worker, and the forests inside either half grow in-process."""

    @pytest.mark.parametrize("n, k", [(40, 2), (40, 3), (40, 5), (40, 10), (21, 21)])
    def test_fold_metrics_equal_the_in_process_path(self, n, k):
        X, y = _blobs(n, margin=0.2)
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            forked = kfold_cv(X, y, k=k, seed=4, n_trees=6, threshold=0.4)
        with pytest.MonkeyPatch.context() as mp:
            in_process_only(mp)
            in_process = kfold_cv(X, y, k=k, seed=4, n_trees=6, threshold=0.4)
        assert [m.to_dict() for m in forked[0]] == [m.to_dict() for m in in_process[0]]
        assert forked[1] == in_process[1]
        # One fork for every k: for an odd k the worker scores one fold more.
        assert forks == [os.getpid()]
        assert_no_child_left()

    def test_a_single_class_split_is_refused_before_any_fork(self):
        # The one positive lands in the last fold, after two folds that fit.
        y = np.array([0, 0, 0, 0, 0, 1])
        assert [5 in f for f in stratified_folds(y, 3)] == [False, False, True]
        X = np.random.default_rng(0).standard_normal((6, 2))
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            with pytest.raises(ValueError, match="training split for fold 2 is single-class"):
                kfold_cv(X, y, k=3)
        assert forks == []

    def test_a_failing_worker_raises_and_is_reaped(self):
        parent, fit = os.getpid(), extra_trees.fit

        def fit_in_parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("the worker ran out of memory")
            return fit(*args, **kwargs)

        X, y = _blobs(40)
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            mp.setattr(extra_trees, "fit", fit_in_parent_only)
            with pytest.raises(RuntimeError, match="fold worker exited with code 1 "
                                                   "after sending 0 of its 5 folds: "
                                                   "MemoryError: the worker ran out of memory$"):
                kfold_cv(X, y, k=10, n_trees=4)
        assert forks == [parent]
        assert_no_child_left()

    def test_a_failing_parent_half_propagates_and_the_worker_is_reaped(self):
        parent, fit = os.getpid(), extra_trees.fit

        def fit_slowly_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(30)  # outlives the test unless the parent stops it
                return fit(*args, **kwargs)
            raise KeyError("first fold")

        X, y = _blobs(40)
        with pytest.MonkeyPatch.context() as mp:
            counted_forks(mp)
            mp.setattr(extra_trees, "fit", fit_slowly_in_worker)
            start = time.monotonic()
            with pytest.raises(KeyError, match="first fold"):
                kfold_cv(X, y, k=4, n_trees=4)
        assert time.monotonic() - start < 15
        assert_no_child_left()


class TestFormatting:
    def test_metrics_table_layout(self):
        summary = summarize_folds(
            [
                MetricSet(
                    tp=1, fp=0, tn=1, fn=0, accuracy=1.0, precision=1.0,
                    recall=1.0, fpr=0.0, f1=1.0, roc_auc=None,
                )
            ]
        )
        text = format_metrics_table(summary)
        lines = text.strip().split("\n")
        assert lines[0].startswith("metric")
        assert len(lines) == 7
        assert "roc_auc" in lines[-1] and "n/a" in lines[-1]
        assert "1.0000" in lines[1]

    def test_sweep_table_layout(self):
        rows = [
            {
                "arch": "c2",
                "depth": 12,
                "mean": {
                    "accuracy": 0.5, "precision": 0.25, "recall": 1.0,
                    "fpr": 0.125, "f1": 0.4, "roc_auc": None,
                },
            }
        ]
        text = format_sweep_table(rows)
        lines = text.strip().split("\n")
        assert lines[0].split()[:2] == ["arch", "depth"]
        assert "12" in lines[1] and "0.2500" in lines[1] and "n/a" in lines[1]
