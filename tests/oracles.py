"""Slow reference implementations that the fast paths must equal.

One copy of each oracle, shared by the unit tests and the acceptance suite:

- `dense_propagation`: degree-normalized propagation, dense and elementwise;
- `brute_force_features`: per-node flow statistics, one record at a time;
- `route_one`, `route`, `leaf_values`, `oracle_proba`: Extra-Trees routing
  and probabilities, tree by tree;
- `pairs_auc`: ROC-AUC from every positive/negative pair;
- `gradcheck`: analytic GCN gradients against central differences.

Floats are added with ``+=`` in a stated order, never with the builtin
``sum()``, which is compensated from Python 3.12 and so adds in no order the
code under test uses.
"""

import numpy as np

from botfuse.gcn_core import backward, forward, masked_cross_entropy

_LEAF = -1


def dense_propagation(graph):
    """D^-1/2 A D^-1/2 of the graph's undirected adjacency A, elementwise; an
    isolated node's row and column are zero and a self-pair counts once."""
    n = graph.n
    A = np.zeros((n, n))
    for i, j in graph.edges:
        A[i, j] = 1.0
        A[j, i] = 1.0
    d = A.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0, 1.0 / np.sqrt(d), 0.0)
    return (dinv[:, None] * A) * dinv[None, :]


def brute_force_features(records):
    """Node id -> (conn, fail_conn, dur, src_bytes_avg, dst_bytes_avg), added
    up with ``+=`` in record order, the source role before the destination's."""
    sums = {}
    for r in records:
        success = r.src_bytes > 0 and r.dst_bytes > 0
        for node, sent, recv in ((r.src_ip, r.src_bytes, r.dst_bytes),
                                 (r.dst_ip, r.dst_bytes, r.src_bytes)):
            s = sums.setdefault(node, [0, 0, 0.0, 0.0, 0.0, 0])
            if success:
                s[0] += 1
                s[2] += r.duration
            else:
                s[1] += 1
            s[3] += sent
            s[4] += recv
            s[5] += 1
    return {
        node: (conn, fail, dur / conn if conn else 0.0, sent / n, recv / n)
        for node, (conn, fail, dur, sent, recv, n) in sums.items()
    }


def route_one(tree, x):
    """Leaf one sample reaches in one tree, one node at a time (value <
    threshold goes left)."""
    node = 0
    while tree["feature"][node] != _LEAF:
        if x[tree["feature"][node]] < tree["threshold"][node]:
            node = tree["left"][node]
        else:
            node = tree["right"][node]
    return node


def route(tree, X):
    """Leaf index reached by each row of X in one tree, all rows a level at a
    time: the routing oracle for the packed routing in predict_proba."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    feature, threshold = tree["feature"], tree["threshold"]
    active = feature[node] != _LEAF
    while active.any():
        rows = np.nonzero(active)[0]
        cur = node[rows]
        goleft = X[rows, feature[cur]] < threshold[cur]
        node[rows] = np.where(goleft, tree["left"][cur], tree["right"][cur])
        active = feature[node] != _LEAF
    return node


def leaf_values(tree, Q):
    """Positive fraction of the leaf each row of Q reaches in one tree."""
    c = tree["counts"][route(tree, Q)]
    return c[:, 1] / c.sum(axis=1)


def oracle_proba(ens, Q):
    """Per-tree routing, leaf frequencies added one tree after another."""
    acc = np.zeros(Q.shape[0])
    for tree in ens.trees:
        acc += leaf_values(tree, Q)
    return acc / ens.n_trees


def pairs_auc(y, p):
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


def _loss_of(model, P, X0, labels, mask):
    logits = forward(model, P, X0) @ model.head_weight + model.head_bias
    loss, _ = masked_cross_entropy(logits, labels, mask)
    return loss


def gradcheck(model, P, X0, labels, mask, eps=1e-5, floor=1e-6):
    """Worst elementwise relative error between the analytic gradients and
    central differences, over every parameter."""
    _, grads = backward(model, P, X0, labels, mask)
    worst = 0.0
    for param, grad in zip(model.parameters(), grads):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = param[ix]
            param[ix] = orig + eps
            hi = _loss_of(model, P, X0, labels, mask)
            param[ix] = orig - eps
            lo = _loss_of(model, P, X0, labels, mask)
            param[ix] = orig
            fd = (hi - lo) / (2 * eps)
            rel = abs(grad[ix] - fd) / max(abs(grad[ix]), abs(fd), floor)
            worst = max(worst, rel)
    return worst
