"""Extremely randomized trees for binary node classification.

Every tree is grown on the full training sample (no bootstrap) by one rule:
at each node k = ⌈√d⌉ attributes are drawn without replacement among those
that vary in the node, probed first at both ends of its rows, and a node
splits until it is pure or admits no cut. Rows are listed positives first
and a split keeps that order, so a node's first c1 rows are its positives.
One gather takes the drawn attributes for the node's rows from the
feature-major training matrix. Per attribute, the first of a uniform random
cut-point, the midpoint and the float after the low end that lies strictly
inside the node's value range is the cut, and the best information gain wins.

Trees are independent, so where two CPUs are available ``fit`` grows the
second half of the forest in one forked worker while the calling process
grows the first; each tree draws from its own stream, so the ensemble has the
same bytes either way.

An ensemble holds its trees, the number of attributes they split on, the
fit's seed and the windowing and normalization of its training rows. Its
tree count is the length of its tree list. A file also records n_trees,
k_features and min_samples_split: n_trees must count the file's trees, and
the two growth settings are written from the rule, not kept when read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .flow_ingest import DEFAULT_STRIDE, DEFAULT_WINDOW_LEN, check_windowing
from .forking import in_two_halves

ENSEMBLE_FORMAT = "botfuse-trees"
ENSEMBLE_FORMAT_VERSION = 1

DEFAULT_N_TREES = 100
DEFAULT_NORM_MODE = "per_vector"
NORM_MODES = (DEFAULT_NORM_MODE, "per_dimension")
# Bot probability at or above which a row is flagged.
DEFAULT_THRESHOLD = 0.5

_LEAF = -1


@dataclass(frozen=True, eq=False)
class PackedForest:
    """Every tree of an ensemble in one node table, for routing all (tree,
    row) pairs together. Tree i owns the global node ids
    ``offsets[i]:offsets[i + 1]`` and its root is ``offsets[i]``. The next node
    is ``child[2 * node + go_right]``; a leaf points to itself on both sides
    and has feature 0, so a pair that reached its leaf stays there."""

    offsets: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    internal: np.ndarray
    value: np.ndarray


def _check_tree(i: int, tree: dict, n_features: int) -> None:
    """Refuse a tree that routing could index out of range, loop on, or
    turn into a nan probability; the error names the tree and the node."""
    feature, left, right = tree["feature"], tree["left"], tree["right"]
    threshold, counts = tree["threshold"], tree["counts"]
    m = feature.shape[0] if feature.ndim == 1 else -1
    if m < 1 or any(a.shape != (m,) for a in (threshold, left, right)):
        raise ValueError(
            f"tree {i}: feature, threshold, left and right must be equal-length "
            f"non-empty lists, got shapes {feature.shape}, {threshold.shape}, "
            f"{left.shape}, {right.shape}"
        )
    if counts.shape != (m, 2):
        raise ValueError(f"tree {i}: counts must have shape ({m}, 2), got {counts.shape}")
    node = np.arange(m)
    leaf = feature == _LEAF
    checks = (
        (leaf & ((left != _LEAF) | (right != _LEAF)), "leaf has a child"),
        (~leaf & ((feature < 0) | (feature >= n_features)),
         f"feature outside [0, {n_features})"),
        (~leaf & ((left <= node) | (left >= m) | (right <= node) | (right >= m)),
         f"children must lie in (node, {m})"),
        (~np.isfinite(threshold), "threshold is not finite"),
        ((counts < 0).any(axis=1), "counts are negative"),
        (counts.sum(axis=1) <= 0, "counts sum to 0"),
    )
    for bad, what in checks:
        if bad.any():
            raise ValueError(f"tree {i} node {int(np.flatnonzero(bad)[0])}: {what}")


def _pack(trees: list[dict]) -> PackedForest:
    sizes = [t["feature"].size for t in trees]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    feature = np.concatenate([t["feature"] for t in trees])
    internal = feature != _LEAF
    ids = np.arange(offsets[-1])
    left = np.concatenate([t["left"] + o for t, o in zip(trees, offsets)])
    right = np.concatenate([t["right"] + o for t, o in zip(trees, offsets)])
    child = np.stack([np.where(internal, left, ids), np.where(internal, right, ids)], axis=1)
    counts = np.concatenate([t["counts"] for t in trees])
    return PackedForest(
        offsets=offsets,
        feature=np.where(internal, feature, 0),
        threshold=np.concatenate([t["threshold"] for t in trees]),
        child=child.ravel(),
        internal=internal,
        # c1 / (c0 + c1) as the per-tree reference computes it, bit for bit.
        value=counts[:, 1] / counts.sum(axis=1),
    )


@dataclass(eq=False)
class TreeEnsemble:
    """Fitted forest: flat node arrays per tree, the fit's seed, and the normalization
    mode, window length and stride of its training rows, which detection must reuse.
    ``n_trees`` is the length of ``trees``, and no growth setting is held. Construction
    checks every tree and packs them into ``packed``."""

    n_features: int
    seed: int
    trees: list[dict]
    norm_mode: str = DEFAULT_NORM_MODE
    window_len: float = DEFAULT_WINDOW_LEN
    stride: float = DEFAULT_STRIDE
    packed: PackedForest = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.trees:
            raise ValueError("ensemble holds no trees")
        for i, tree in enumerate(self.trees):
            _check_tree(i, tree, self.n_features)
        self.packed = _pack(self.trees)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _entropy(c0: int, c1: int) -> float:
    # Summed smaller-count-first so swapping the classes gives the identical
    # float, keeping tie-breaks stable under label inversion.
    if c0 == 0 or c1 == 0:
        return 0.0
    n = c0 + c1
    p, q = (c0 / n, c1 / n) if c0 <= c1 else (c1 / n, c0 / n)
    return 0.0 - p * math.log2(p) - q * math.log2(q)


# Rows that decide which attributes vary in a node, half from each end (its
# head rows, all positives, are its most alike): an attribute that varies
# among them varies in the node, and only the others need the full scan.
_PROBE_ROWS = 8


def _features_per_node(d: int) -> int:
    """k, the attributes each node draws among the d it could split on."""
    return math.ceil(math.sqrt(d))


# A node splits until it is pure or admits no cut, which a file records as
# the rule's fewest rows to split: two.
_MIN_SAMPLES_SPLIT = 2


def _cut_inside(lo: float, hi: float, u: float) -> float | None:
    """The first of the drawn cut, the midpoint (inf where lo + hi overflows)
    and the float after lo that lies strictly inside (lo, hi), or None."""
    for cut in (lo + (hi - lo) * u, 0.5 * (lo + hi), math.nextafter(lo, hi)):
        if lo < cut < hi:  # routing is < left, >= right
            return cut
    return None


def _choose_split(Xt, idx, k, rng, c0, c1):
    """Best of k random cuts at the node holding rows ``idx``, or None.

    Returns (feature, threshold, left rows, right rows, left class counts);
    ``idx`` and both row lists hold their positives first. ``Xt`` is the
    feature-major training matrix. Draws the attribute subset, then its k cuts."""
    n = idx.size
    if c0 == 0 or c1 == 0:
        return None

    def gather(rows):
        return Xt.take(rows[:, None] * Xt.shape[1] + idx)

    half = _PROBE_ROWS // 2
    probe = Xt.take(np.concatenate((idx[:half], idx[half:][-half:])), axis=1)
    varies = (probe != probe[:, :1]).any(axis=1)
    flat = (~varies).nonzero()[0]
    if n > _PROBE_ROWS and flat.size:
        varies[flat] = (gather(flat) != probe[flat, :1]).any(axis=1)
    candidates = varies.nonzero()[0]
    if candidates.size == 0:
        return None
    chosen = rng.choice(candidates, size=min(k, candidates.size), replace=False)
    cols = gather(chosen)
    draws = zip(cols.min(axis=1).tolist(), cols.max(axis=1).tolist(),
                rng.random(chosen.size).tolist())
    cut = [_cut_inside(lo, hi, u) for lo, hi, u in draws]
    # An attribute without a cut compares against nan and sends no row left.
    goes_left = cols < np.array(cut, dtype=np.float64)[:, None]
    n_left = goes_left.sum(axis=1).tolist()
    pos_left = goes_left[:, :c1].sum(axis=1).tolist()

    parent_h = _entropy(c0, c1)
    best = None
    for j, (t, nl, l1) in enumerate(zip(cut, n_left, pos_left)):
        if t is None:
            continue
        l0 = nl - l1
        gain = parent_h - nl / n * _entropy(l0, l1) - (n - nl) / n * _entropy(c0 - l0, c1 - l1)
        if best is None or gain > best[0]:
            best = (gain, j)
    if best is None:
        return None
    j = best[1]
    mask, l1 = goes_left[j], pos_left[j]
    return int(chosen[j]), cut[j], idx[mask], idx[~mask], (n_left[j] - l1, l1)


def _build_tree(Xt, y, k, rng) -> dict:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[list[int]] = []

    # Explicit stack, left child processed first: node ids follow a fixed
    # pre-order so identical draws give identical arrays. Each entry carries
    # its rows' class counts, which the parent's split already knows; rows
    # are listed positives first, so no node reads the labels.
    c1 = int(np.count_nonzero(y))
    stack = [(np.argsort(~y, kind="stable"), _LEAF, False, y.size - c1, c1)]
    while stack:
        idx, parent, is_left, c0, c1 = stack.pop()
        node_id = len(feature)
        if parent != _LEAF:
            (left if is_left else right)[parent] = node_id
        counts.append([c0, c1])
        split = _choose_split(Xt, idx, k, rng, c0, c1)
        left.append(_LEAF)
        right.append(_LEAF)
        if split is None:
            feature.append(_LEAF)
            threshold.append(0.0)
            continue
        f, t, idx_l, idx_r, (l0, l1) = split
        feature.append(f)
        threshold.append(t)
        stack.append((idx_r, node_id, False, c0 - l0, c1 - l1))
        stack.append((idx_l, node_id, True, l0, l1))

    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "counts": np.asarray(counts, dtype=np.int64),
    }


def check_threshold(threshold: float) -> None:
    """Refuse a bot-probability threshold outside [0, 1], nan included."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")


def verdicts(probabilities: np.ndarray, threshold: float) -> np.ndarray:
    """Whether each row is flagged: its bot probability is at least the
    threshold (a nan probability is never flagged)."""
    return probabilities >= threshold


def check_n_trees(n_trees: int) -> None:
    """Refuse a forest of fewer than one tree."""
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")


def _own_tree(tree: dict) -> dict:
    """A tree received from the worker, as a tree grown here holds it.
    Unpickled arrays are views over pickle buffers with private dtype copies:
    three times the small-object memory of a grown tree."""
    return {key: tree[key].astype(dtype) for key, dtype in _TREE_DTYPES.items()}


def fit(
    X: np.ndarray, y: np.ndarray, n_trees: int = DEFAULT_N_TREES, seed: int = 0
) -> TreeEnsemble:
    """Grow the ensemble on the full sample with per-tree derived seeds."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"X {X.shape} and y {y.shape} do not align")
    n, d = X.shape
    if d == 0:
        raise ValueError("cannot fit on zero features")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    classes = np.unique(y)
    if not np.array_equal(classes, [0, 1]):
        if classes.size == 1:
            raise ValueError("training data contains a single class")
        raise ValueError(f"labels must be binary 0/1, got classes {classes.tolist()}")
    check_n_trees(n_trees)

    # A nan would drop its attribute from every node that holds it, and an
    # infinite range has no cut-point inside it.
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    with np.errstate(over="ignore"):
        span = X.max(axis=0) - X.min(axis=0)
    if not np.isfinite(span).all():
        raise ValueError(
            f"the range of feature {int(np.flatnonzero(~np.isfinite(span))[0])} "
            "overflows float64"
        )

    k = _features_per_node(d)
    Xt = np.ascontiguousarray(X.T)
    y = y == 1

    def grow(i: int) -> dict:
        # Derived per-tree stream: tree i gets the same draws whichever
        # process grows it and in whatever order.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        return _build_tree(Xt, y, k, rng)

    trees = in_two_halves(grow, n_trees, "tree", adopt=_own_tree)

    return TreeEnsemble(n_features=d, seed=seed, trees=trees)


# Routing steps between drops of the (tree, row) pairs that reached a leaf:
# dropping costs about as much as one step, and most leaves are several
# steps deep.
_STEPS_PER_COMPACTION = 4


def _route_packed(packed: PackedForest, X: np.ndarray) -> np.ndarray:
    """Leaf node id of every (tree, row) pair, shape (n_trees, n_rows)."""
    n, d = X.shape
    n_trees = packed.offsets.size - 1
    flat = X.ravel()
    node = np.repeat(packed.offsets[:-1], n)
    pairs = np.flatnonzero(packed.internal[node])
    cur = node[pairs]
    row_start = (pairs % n) * d
    while pairs.size:
        for _ in range(_STEPS_PER_COMPACTION):
            # Inputs are finite, so >= is exactly "not < threshold".
            go_right = flat[row_start + packed.feature[cur]] >= packed.threshold[cur]
            cur = packed.child[2 * cur + go_right]
        node[pairs] = cur
        live = np.flatnonzero(packed.internal[cur])
        pairs, cur, row_start = pairs[live], cur[live], row_start[live]
    return node.reshape(n_trees, n)


def _check_input(ensemble: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise ValueError(
            f"expected n x {ensemble.n_features} input, got {X.shape}"
        )
    # A nan compares false against every threshold and would route silently.
    if not np.isfinite(X).all():
        raise ValueError("input contains non-finite values")
    return X


def predict_proba(ensemble: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Probability of the positive class: unweighted mean of leaf frequencies."""
    X = _check_input(ensemble, X)
    leaf_values = ensemble.packed.value[_route_packed(ensemble.packed, X)]
    # One tree after another: numpy reduces the outer (tree) axis row after
    # row. A lone input row is one contiguous column, which numpy would sum
    # pairwise, in another order and with other bits once leaves are impure.
    if X.shape[0] == 1:
        total = 0.0
        for value in leaf_values[:, 0].tolist():
            total += value
        return np.array([total]) / ensemble.n_trees
    return np.add.reduce(leaf_values, axis=0) / ensemble.n_trees


# The per-tree arrays of the file format and their in-memory dtypes.
_TREE_DTYPES = {
    "feature": np.int64,
    "threshold": np.float64,
    "left": np.int64,
    "right": np.int64,
    "counts": np.int64,
}


def serialize_ensemble(ensemble: TreeEnsemble) -> bytes:
    """Canonical JSON encoding (sorted keys, no whitespace) for stable bytes. norm_mode,
    window_len and stride are left out at their defaults, so older files keep their bytes.
    k_features and min_samples_split are written from the growth rule."""
    payload = {
        "format": ENSEMBLE_FORMAT,
        "version": ENSEMBLE_FORMAT_VERSION,
        "n_features": ensemble.n_features,
        "n_trees": ensemble.n_trees,
        "k_features": _features_per_node(ensemble.n_features),
        "min_samples_split": _MIN_SAMPLES_SPLIT,
        "seed": ensemble.seed,
        "trees": [{key: t[key].tolist() for key in _TREE_DTYPES} for t in ensemble.trees],
    }
    for key, default in (("norm_mode", DEFAULT_NORM_MODE), ("window_len", DEFAULT_WINDOW_LEN),
                         ("stride", DEFAULT_STRIDE)):
        if getattr(ensemble, key) != default:
            payload[key] = getattr(ensemble, key)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _tree_from_json(i: int, t) -> dict:
    if not isinstance(t, dict):
        raise ValueError(f"tree {i}: expected an object, got {type(t).__name__}")
    tree = {}
    for key, dtype in _TREE_DTYPES.items():
        if key not in t:
            raise ValueError(f"tree {i}: missing field {key!r}")
        try:
            tree[key] = np.asarray(t[key], dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"tree {i}: field {key!r} is not numeric: {exc}") from exc
    return tree


def deserialize_ensemble(data: bytes) -> TreeEnsemble:
    """Refuse what detection cannot use. Absent norm_mode, window_len and stride take defaults.

    n_trees must count the trees. k_features and min_samples_split must be integers but
    are not kept, so a hand-written file with other values re-saves with the rule's."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"ensemble payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != ENSEMBLE_FORMAT:
        raise ValueError("ensemble payload has wrong format marker")
    if payload.get("version") != ENSEMBLE_FORMAT_VERSION:
        raise ValueError(f"unsupported ensemble version {payload.get('version')!r}")
    integers = ("n_features", "n_trees", "k_features", "min_samples_split", "seed")
    for key in (*integers, "trees"):
        if key not in payload:
            raise ValueError(f"ensemble payload missing field {key!r}")
    for key in integers:
        value = payload[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"ensemble field {key!r} must be an integer, got {value!r}")
    norm_mode = payload.get("norm_mode", DEFAULT_NORM_MODE)
    if norm_mode not in NORM_MODES:
        raise ValueError(
            f"ensemble field 'norm_mode' must be one of {NORM_MODES}, got {norm_mode!r}"
        )
    windowing = {}
    for key, default in (("window_len", DEFAULT_WINDOW_LEN), ("stride", DEFAULT_STRIDE)):
        value = payload.get(key, default)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"ensemble field {key!r} must be a number, got {value!r}")
        # Through its text, an integer past float range becomes inf, refused below.
        windowing[key] = float(str(value))
    check_windowing(**windowing)
    if not isinstance(payload["trees"], list):
        raise ValueError("ensemble field 'trees' must be a list")
    trees = [_tree_from_json(i, t) for i, t in enumerate(payload["trees"])]
    if len(trees) != payload["n_trees"]:
        raise ValueError(
            f"ensemble declares {payload['n_trees']} trees but holds {len(trees)}"
        )
    return TreeEnsemble(n_features=payload["n_features"], seed=payload["seed"], trees=trees,
                        norm_mode=norm_mode, **windowing)


def save_ensemble(ensemble: TreeEnsemble, path) -> None:
    Path(path).write_bytes(serialize_ensemble(ensemble))


def load_ensemble(path) -> TreeEnsemble:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"ensemble file not found: {path}")
    return deserialize_ensemble(path.read_bytes())
