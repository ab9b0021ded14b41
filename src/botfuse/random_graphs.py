"""Random graph generators that give networkx's edges for the same seed.

Each generator follows the networkx 3.x algorithm of the same name and draws
from ``random.Random(seed)``, as networkx does for an integer seed, so the
edges match ``nx.<generator>(..., seed=seed).edges()``. Nodes are
``0 .. n - 1``; edges come back as an (m, 2) int64 array of (u, v) pairs with
u < v, in the order ``Graph.edges()`` lists them.
"""

from __future__ import annotations

import random
from collections import defaultdict

import numpy as np

# Uniform draws that gnp_edges takes from the generator per call.
DRAW_BLOCK = 1 << 16


def _edge_array(pairs) -> np.ndarray:
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _graph_order(n: int, pairs) -> np.ndarray:
    """Distinct, loop-free edges added to a graph on nodes 0 .. n - 1 in this
    order, listed as ``Graph.edges()`` lists them: node by node, each node's
    neighbours above it in the order they were linked."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return _edge_array([(u, v) for u in range(n) for v in adj[u] if v > u])


def complete_edges(n: int) -> np.ndarray:
    """Every pair of the n nodes, as ``complete_graph``."""
    rows, cols = np.triu_indices(max(n, 0), 1)
    return np.column_stack((rows, cols)).astype(np.int64)


def gnp_edges(n: int, p: float, seed: int) -> np.ndarray:
    """Each pair kept with probability p, as ``gnp_random_graph``.

    networkx draws one ``random()`` per pair in ``combinations(range(n), 2)``
    order. A numpy MT19937 loaded with the state of ``random.Random(seed)``
    gives the same doubles, so they are drawn here in blocks of DRAW_BLOCK
    and only the kept pair indices are decoded: memory is O(block + edges).
    """
    if p >= 1:
        return complete_edges(n)
    if p <= 0 or n < 2:
        return _edge_array([])
    _, words, _ = random.Random(seed).getstate()
    bitgen = np.random.MT19937()
    bitgen.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(words[:-1], dtype=np.uint32), "pos": words[-1]},
    }
    draws = np.random.Generator(bitgen)
    total = n * (n - 1) // 2
    kept = [
        start + np.flatnonzero(draws.random(min(DRAW_BLOCK, total - start)) < p)
        for start in range(0, total, DRAW_BLOCK)
    ]
    index = np.concatenate(kept)
    # Pair (i, j) of the combinations order has index starts[i] + j - i - 1.
    i = np.arange(n - 1, dtype=np.int64)
    starts = i * (2 * n - i - 1) // 2
    rows = np.searchsorted(starts, index, side="right") - 1
    return np.column_stack((rows, index - starts[rows] + rows + 1))


def barabasi_albert_edges(n: int, m: int, seed: int) -> np.ndarray:
    """Preferential attachment from a star on m + 1 nodes, as
    ``barabasi_albert_graph``."""
    if m < 1 or m >= n:
        raise ValueError(f"preferential attachment needs 1 <= m < n, got m={m}, n={n}")
    rng = random.Random(seed)
    pairs = [(0, v) for v in range(1, m + 1)]
    # Each node repeated once per incident edge.
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        pairs.extend((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return _graph_order(n, pairs)


def _suitable(edges: set, potential_edges: dict) -> bool:
    """Whether some two leftover stubs could still be paired."""
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _try_pairing(d: int, n: int, rng: random.Random) -> set | None:
    """One run of the pairing model; None when it gets stuck."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * d
    while stubs:
        potential_edges: dict[int, int] = defaultdict(int)
        rng.shuffle(stubs)
        stubiter = iter(stubs)
        for s1, s2 in zip(stubiter, stubiter):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                potential_edges[s1] += 1
                potential_edges[s2] += 1
        if not _suitable(edges, potential_edges):
            return None
        stubs = [node for node, potential in potential_edges.items() for _ in range(potential)]
    return edges


def random_regular_edges(d: int, n: int, seed: int) -> np.ndarray:
    """A random d-regular graph by the pairing model, retried until it
    succeeds, as ``random_regular_graph``."""
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 <= d < n:
        raise ValueError(f"regular graph needs 0 <= d < n, got d={d}, n={n}")
    if d == 0:
        return _edge_array([])
    rng = random.Random(seed)
    edges = _try_pairing(d, n, rng)
    while edges is None:
        edges = _try_pairing(d, n, rng)
    return _graph_order(n, edges)
