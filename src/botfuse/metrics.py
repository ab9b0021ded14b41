"""Detection metrics, stratified cross-validation, and their text tables."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import extra_trees
from .extra_trees import DEFAULT_THRESHOLD, check_threshold, verdicts
from .forking import in_two_halves

METRIC_FIELDS = ("accuracy", "precision", "recall", "fpr", "f1", "roc_auc")

# Cross-validation fold count.
DEFAULT_K = 10


@dataclass
class MetricSet:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    fpr: float
    f1: float
    roc_auc: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; each tie group gets its members' mean rank.

    A group of ``c`` equal values ending at rank ``e`` shares ``e - (c - 1) / 2``,
    a half-integer, so the ranks are exact in float64. A NaN makes every rank
    NaN.
    """
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse.reshape(-1)]


def rank_auc(y_true: np.ndarray, y_prob: np.ndarray) -> float | None:
    """Probability a random positive outranks a random negative, ties half.

    Computed from the rank-sum statistic; returns None when only one class
    is present.
    """
    y_true = np.asarray(y_true)
    pos = y_true == 1
    n_pos = int(pos.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(np.asarray(y_prob, dtype=np.float64))
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def compute_metrics(
    y_true: np.ndarray,
    y_prob: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
) -> MetricSet:
    """Confusion-count metrics at the threshold plus the rank-statistic AUC."""
    y_true = np.asarray(y_true).astype(np.int64)
    y_prob = np.asarray(y_prob, dtype=np.float64)
    if y_true.shape != y_prob.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_prob.shape}")
    if y_true.size == 0:
        raise ValueError("empty input")

    pred = verdicts(y_prob, threshold)
    actual = y_true == 1
    tp = int((pred & actual).sum())
    fp = int((pred & ~actual).sum())
    tn = int((~pred & ~actual).sum())
    fn = int((~pred & actual).sum())

    n = tp + fp + tn + fn
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    return MetricSet(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        fpr=fpr,
        f1=f1,
        roc_auc=rank_auc(y_true, y_prob),
    )


def check_k(k: int) -> None:
    """Refuse fewer than two cross-validation folds."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")


def stratified_folds(y: np.ndarray, k: int, seed: int = 0) -> list[np.ndarray]:
    """Per-class round-robin assignment; fold sizes differ by at most 1 per class.

    The round-robin cursor carries over between classes so all k folds fill
    whenever k <= n, which keeps k = n (leave-one-out) valid.
    """
    y = np.asarray(y)
    check_k(k)
    if k > y.size:
        raise ValueError(f"cannot make {k} folds from {y.size} samples")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    for cls in np.unique(y):
        idx = rng.permutation(np.nonzero(y == cls)[0])
        for sample in idx:
            folds[cursor % k].append(int(sample))
            cursor += 1
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def summarize_folds(fold_metrics: list[MetricSet]) -> dict:
    summary = {"mean": {}, "std": {}}
    for name in METRIC_FIELDS:
        values = [getattr(m, name) for m in fold_metrics]
        values = [v for v in values if v is not None]
        if values:
            summary["mean"][name] = float(np.mean(values))
            summary["std"][name] = float(np.std(values))
        else:
            summary["mean"][name] = None
            summary["std"][name] = None
    return summary


def kfold_cv(
    X: np.ndarray,
    y: np.ndarray,
    k: int = DEFAULT_K,
    seed: int = 0,
    n_trees: int = extra_trees.DEFAULT_N_TREES,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[list[MetricSet], dict]:
    """Stratified k-fold: fit the ensemble on k-1 folds, score the held-out one.

    Returns per-fold metrics and their unweighted mean/stddev. Supports
    leave-one-out (k = n); every training split must still contain both
    classes, which is checked before any fold is fitted.

    With two CPUs the caller scores the first ``k // 2`` folds and one
    forked worker the rest (``forking.in_two_halves``); the forests inside a
    half grow in-process.
    """
    check_threshold(threshold)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}")
    folds = stratified_folds(y, k, seed)
    for i, test_idx in enumerate(folds):
        if np.unique(np.delete(y, test_idx)).size < 2:
            raise ValueError(f"training split for fold {i} is single-class; lower k")

    def score(i: int) -> MetricSet:
        test_idx = folds[i]
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        ensemble = extra_trees.fit(X[train_idx], y[train_idx], n_trees=n_trees, seed=seed + i)
        probs = extra_trees.predict_proba(ensemble, X[test_idx])
        return compute_metrics(y[test_idx], probs, threshold)

    fold_metrics = in_two_halves(score, k, "fold")
    return fold_metrics, summarize_folds(fold_metrics)


def format_metrics_table(summary: dict) -> str:
    """Aligned mean/std table for one cross-validation run."""
    lines = ["metric     mean     std"]
    for name in METRIC_FIELDS:
        mean = summary["mean"][name]
        std = summary["std"][name]
        mtxt = "n/a" if mean is None else f"{mean:.4f}"
        stxt = "n/a" if std is None else f"{std:.4f}"
        lines.append(f"{name:<9}  {mtxt:<7}  {stxt}")
    return "\n".join(lines) + "\n"


def format_sweep_table(rows: list[dict]) -> str:
    """Aligned plain-text comparison table, one row per depth."""
    header = ["arch", "depth"] + list(METRIC_FIELDS)
    lines = []
    for row in rows:
        cells = [str(row["arch"]), str(row["depth"])]
        for name in METRIC_FIELDS:
            v = row["mean"][name]
            cells.append("n/a" if v is None else f"{v:.4f}")
        lines.append(cells)
    widths = [max(len(h), *(len(line[i]) for line in lines)) if lines else len(h)
              for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header)]
    out.extend(fmt.format(*line) for line in lines)
    return "\n".join(out) + "\n"
