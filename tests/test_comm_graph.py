"""Directed communication graph construction and the normalized propagation matrix."""

import json
import re

import numpy as np
import pytest
import scipy.sparse as sp

from botfuse.comm_graph import (
    LABEL_BOT,
    LABEL_LEGIT,
    LABEL_UNKNOWN,
    CommGraph,
    build_graph,
    graph_from_json,
    graph_to_json,
    load_graph,
    propagation_matrix,
    save_graph,
)
from botfuse.flow_features import extract_node_features
from botfuse.flow_ingest import FlowRecord, Proto, WindowSlice


def _flow(src, dst, up=100, down=50):
    return FlowRecord(
        ts_start=0.0, duration=1.0, proto=Proto.TCP, src_ip=src, src_port=1,
        dst_ip=dst, dst_port=2, src_bytes=up, dst_bytes=down,
    )


def _window(records):
    return WindowSlice(window_start=0.0, window_len=60.0, records=records)


def _graph_from_flows(records):
    w = _window(records)
    return build_graph(w, extract_node_features(w))


def _random_graph(rng, n=None, p=0.1):
    """Directed random graph without self loops, as a CommGraph."""
    if n is None:
        n = int(rng.integers(2, 201))
    edges = set()
    n_edges = int(p * n * n)
    for _ in range(n_edges):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((int(i), int(j)))
    return CommGraph(
        nodes=[f"n{i:04d}" for i in range(n)],
        edges=edges,
        features=np.zeros((n, 5)),
    )


def _dense_oracle(graph):
    n = graph.n
    A = np.zeros((n, n))
    for i, j in graph.edges:
        A[i, j] = 1.0
        A[j, i] = 1.0
    deg = A.sum(axis=1)
    inv = np.zeros(n)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.diag(inv) @ A @ np.diag(inv)


def _spectral_radius(P):
    """Largest absolute eigenvalue of the symmetric matrix P, computed densely."""
    return float(np.abs(np.linalg.eigvalsh(P.toarray())).max())


class TestBuildGraph:
    def test_one_directional_edge(self):
        g = _graph_from_flows([_flow("A", "B", up=100, down=0)])
        assert g.edges.tolist() == [[g.nodes.index("A"), g.nodes.index("B")]]

    def test_bidirectional_edge(self):
        g = _graph_from_flows([_flow("A", "B", up=100, down=50)])
        a, b = g.nodes.index("A"), g.nodes.index("B")
        assert g.edges.tolist() == sorted([[a, b], [b, a]])

    def test_duplicate_flows_dedup(self):
        g = _graph_from_flows([_flow("A", "B"), _flow("B", "A")])
        a, b = g.nodes.index("A"), g.nodes.index("B")
        assert g.edges.tolist() == sorted([[a, b], [b, a]])

    def test_self_addressed_flow_dropped_and_counted(self):
        g = _graph_from_flows([_flow("A", "A"), _flow("A", "B")])
        assert g.dropped_self_loops == 1
        assert all(i != j for i, j in g.edges)

    def test_edges_match_brute_force_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            hosts = [f"10.0.{k}.{k % 3}" for k in range(int(rng.integers(1, 12)))]
            records = [
                _flow(hosts[int(rng.integers(len(hosts)))], hosts[int(rng.integers(len(hosts)))],
                      up=int(rng.choice([0, 100])), down=int(rng.choice([0, 50])))
                for _ in range(int(rng.integers(1, 40)))
            ]
            g = _graph_from_flows(records)
            nodes = sorted({ip for r in records for ip in (r.src_ip, r.dst_ip)})
            index = {node: i for i, node in enumerate(nodes)}
            pairs = set()
            for r in records:
                if r.src_ip == r.dst_ip:
                    continue
                if r.src_bytes:
                    pairs.add((index[r.src_ip], index[r.dst_ip]))
                if r.dst_bytes:
                    pairs.add((index[r.dst_ip], index[r.src_ip]))
            assert g.nodes == nodes
            assert g.edges.dtype == np.int64
            assert g.edges.shape == (len(pairs), 2)
            assert g.edges.tolist() == [list(p) for p in sorted(pairs)]
            assert g.dropped_self_loops == sum(r.src_ip == r.dst_ip for r in records)

    def test_node_order_lexicographic(self):
        g = _graph_from_flows([_flow("zeta", "alpha"), _flow("mid", "alpha")])
        assert g.nodes == sorted(g.nodes)

    def test_features_row_aligned(self):
        records = [_flow("A", "B", up=100, down=0), _flow("C", "B")]
        w = _window(records)
        feats = extract_node_features(w)
        g = build_graph(w, feats)
        assert g.nodes == feats.nodes
        for node in g.nodes:
            assert g.features[g.nodes.index(node)].tolist() == feats.matrix[feats.nodes.index(node)].tolist()

    def test_missing_features_rejected(self):
        w = _window([_flow("A", "B")])
        feats = extract_node_features(_window([_flow("A", "C")]))
        with pytest.raises(ValueError, match="missing features for endpoint 'B'"):
            build_graph(w, feats)
        feats = extract_node_features(_window([_flow("A", "B"), _flow("A", "C")]))
        with pytest.raises(ValueError, match="feature rows do not match"):
            build_graph(w, feats)

    def test_window_graphs_carry_no_labels(self):
        assert _graph_from_flows([_flow("A", "B")]).labels is None


class TestEdgeCanonicalization:
    def test_any_pair_collection_is_sorted_and_deduplicated(self):
        expect = [[0, 1], [0, 2], [2, 0]]
        for edges in ({(2, 0), (0, 2), (0, 1)}, [(2, 0), (0, 1), (2, 0), (0, 2)],
                      np.array([[2, 0], [0, 2], [0, 1], [0, 1]], dtype=np.int32)):
            g = CommGraph(nodes=["a", "b", "c"], edges=edges, features=np.zeros((3, 5)))
            assert g.edges.dtype == np.int64
            assert g.edges.tolist() == expect

    def test_no_edges_is_an_empty_pair_array(self):
        for edges in (set(), [], np.empty((0, 2))):
            g = CommGraph(nodes=["a"], edges=edges, features=np.zeros((1, 5)))
            assert g.edges.shape == (0, 2)
            assert g.edges.dtype == np.int64

    def test_rejects_non_pairs_and_out_of_range(self):
        with pytest.raises(ValueError, match="bad edge"):
            CommGraph(nodes=["a", "b"], edges=[(0, 1, 1)], features=np.zeros((2, 5)))
        with pytest.raises(ValueError, match="out of range"):
            CommGraph(nodes=["a", "b"], edges=[(0, 2)], features=np.zeros((2, 5)))
        with pytest.raises(ValueError, match="out of range"):
            CommGraph(nodes=["a", "b"], edges=[(-1, 0)], features=np.zeros((2, 5)))


class TestPropagationMatrix:
    def test_mutual_pair_closed_form(self):
        g = _graph_from_flows([_flow("A", "B")])
        P = propagation_matrix(g).toarray()
        assert P.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_star_closed_form(self):
        records = [_flow("hub", f"leaf{i}") for i in range(4)]
        g = _graph_from_flows(records)
        P = propagation_matrix(g).toarray()
        h = g.nodes.index("hub")
        for i in range(4):
            leaf = g.nodes.index(f"leaf{i}")
            assert P[h, leaf] == 0.5
            assert P[leaf, h] == 0.5
            assert P[leaf, leaf] == 0.0
        assert P[h, h] == 0.0

    def test_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = _random_graph(rng, n=int(rng.integers(2, 60)))
            P = propagation_matrix(g).toarray()
            assert np.abs(P - _dense_oracle(g)).max() < 1e-12

    def test_equals_dense_oracle_exactly_in_canonical_form(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            g = _random_graph(rng, n=int(rng.integers(1, 120)), p=float(rng.uniform(0, 0.2)))
            if trial % 3 == 0 and g.n:
                # Self-pairs count once towards a node's degree.
                loops = rng.integers(0, g.n, size=3)
                g = CommGraph(nodes=g.nodes, edges=np.concatenate(
                    (g.edges, np.column_stack((loops, loops)))), features=g.features)
            P = propagation_matrix(g)
            assert P.has_canonical_format
            assert np.array_equal(P.toarray(), _dense_oracle(g))

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = _random_graph(rng, n=50)
            P = propagation_matrix(g)
            assert (P != P.T).nnz == 0

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = _random_graph(rng, n=int(rng.integers(5, 80)))
            P = propagation_matrix(g)
            assert _spectral_radius(P) <= 1.0 + 1e-9

    def test_regular_graph_preserves_all_ones(self):
        # Ring: every node has degree 2, so the all-ones vector is fixed.
        n = 12
        edges = {(i, (i + 1) % n) for i in range(n)}
        g = CommGraph(nodes=[f"n{i:02d}" for i in range(n)], edges=edges,
                      features=np.zeros((n, 5)))
        P = propagation_matrix(g)
        np.testing.assert_allclose(P @ np.ones(n), np.ones(n), atol=1e-12)

    def test_isolated_nodes_zero_rows(self):
        g = CommGraph(nodes=["a", "b", "c"], edges={(0, 1)}, features=np.zeros((3, 5)))
        P = propagation_matrix(g).toarray()
        assert P[2].tolist() == [0.0, 0.0, 0.0]
        assert P[:, 2].tolist() == [0.0, 0.0, 0.0]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        g = _random_graph(rng, n=30)
        P = propagation_matrix(g).toarray()
        # Renaming nodes reverses their sort order and thus permutes indices.
        renamed = [f"z{29 - i:04d}" for i in range(30)]
        perm = np.argsort(renamed)  # new index of old node i is perm^-1; build map
        new_index = {old: int(np.nonzero(perm == old)[0][0]) for old in range(30)}
        g2 = CommGraph(
            nodes=sorted(renamed),
            edges={(new_index[i], new_index[j]) for i, j in g.edges},
            features=np.zeros((30, 5)),
        )
        P2 = propagation_matrix(g2).toarray()
        for i in range(30):
            for j in range(30):
                assert P2[new_index[i], new_index[j]] == P[i, j]

    def test_sparse_output_type(self):
        g = _graph_from_flows([_flow("A", "B")])
        assert sp.issparse(propagation_matrix(g))


class TestSpectralRadius:
    def test_known_two_cycle(self):
        g = _graph_from_flows([_flow("A", "B")])
        P = propagation_matrix(g)
        assert _spectral_radius(P) == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix(self):
        g = CommGraph(nodes=["a", "b"], edges=set(), features=np.zeros((2, 5)))
        assert _spectral_radius(propagation_matrix(g)) == 0.0


class TestInterchangeFormat:
    def _sample(self):
        g = _graph_from_flows([_flow("A", "B"), _flow("C", "B", up=10, down=0)])
        g.labels = np.array([LABEL_BOT, LABEL_LEGIT, LABEL_UNKNOWN], dtype=np.int8)
        g.meta["architecture"] = "c2"
        return g

    def test_round_trip(self):
        g = self._sample()
        g2 = graph_from_json(graph_to_json(g))
        assert g2.nodes == g.nodes
        assert np.array_equal(g2.edges, g.edges)
        assert g2.labels.tolist() == g.labels.tolist()
        assert g2.features.tolist() == g.features.tolist()
        assert g2.meta == g.meta

    def test_file_round_trip(self, tmp_path):
        g = self._sample()
        path = tmp_path / "graph.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.nodes == g.nodes
        assert np.array_equal(g2.edges, g.edges)

    def test_missing_features_default_to_zeros(self):
        payload = graph_to_json(self._sample())
        payload["features"] = None
        g = graph_from_json(payload)
        assert g.features.shape == (3, 5)
        assert not g.features.any()

    def test_schema_violations(self):
        good = graph_to_json(self._sample())

        bad = dict(good); bad["format"] = "something-else"
        with pytest.raises(ValueError, match="format"):
            graph_from_json(bad)

        bad = dict(good); bad["version"] = 99
        with pytest.raises(ValueError, match="version"):
            graph_from_json(bad)

        bad = dict(good); del bad["edges"]
        with pytest.raises(ValueError, match="missing field"):
            graph_from_json(bad)

        bad = dict(good); bad["nodes"] = bad["nodes"][:-1]
        with pytest.raises(ValueError, match="node list"):
            graph_from_json(bad)

        bad = dict(good); bad["edges"] = [[0, 1, 2]]
        with pytest.raises(ValueError, match="bad edge"):
            graph_from_json(bad)

        bad = dict(good); bad["edges"] = [[0, 99]]
        with pytest.raises(ValueError, match="out of range"):
            graph_from_json(bad)

        bad = dict(good); bad["labels"] = ["bot", "weird", "legit"]
        with pytest.raises(ValueError, match="unknown label"):
            graph_from_json(bad)

        for field, value, message in (
            ("n", 3.0, "n must be an integer >= 0, got 3.0"),
            ("n", True, "n must be an integer >= 0, got True"),
            ("n", -1, "n must be an integer >= 0, got -1"),
            ("labels", 5, "labels must be a list or null"),
            ("labels", "bot", "labels must be a list or null"),
            ("meta", 5, "meta must be an object or null"),
            ("meta", [], "meta must be an object or null"),
            ("labels", [[1], "bot", "legit"], "unknown label [1]"),
            ("features", [[{}] * 5] * 3, "features must be numbers"),
            ("features", [["x"] * 5] * 3, "features must be numbers"),
            ("features", [["1.0"] * 5] * 3, "features must be numbers"),
            ("features", [[True] * 5] * 3, "features must be numbers"),
            ("features", [[0.0] * 4 + [False]] * 3, "features must be numbers"),
            ("features", [[1e308, 2, 3, 4, 10**400]] * 3, "features must be numbers"),
        ):
            bad = dict(good); bad[field] = value
            with pytest.raises(ValueError, match=re.escape(f"graph schema violation: {message}")):
                graph_from_json(bad)

        bad = dict(good)
        bad["features"] = [[1.0, 2.0]] * bad["n"]
        with pytest.raises(ValueError, match="feature matrix shape"):
            graph_from_json(bad)

        with pytest.raises(ValueError, match="top-level"):
            graph_from_json([1, 2, 3])

    def test_edge_list_errors_name_the_pair(self):
        good = graph_to_json(self._sample())
        assert good["edges"] == [[0, 1], [1, 0], [2, 1]]
        for edges, message in (
            ([[0, 1], [2]], "bad edge [2]"),
            ([[]], "bad edge []"),
            ([[0, 1], 7], "bad edge 7"),
            ([[0, 1], [1, -1], [0, 3]], "edge [1, -1] out of range"),
            ([[0, 1], [0, 10**30]], f"bad edge [0, {10**30}]"),
            ([[0, 1], [0.5, 1]], "bad edge [0.5, 1]"),
            ([[1.9, 0]], "bad edge [1.9, 0]"),
            ([[1.0, 0]], "bad edge [1.0, 0]"),
            ([["1", 0]], "bad edge ['1', 0]"),
            ([[0, True]], "bad edge [0, True]"),
            ({"0": 1}, "bad edge list {'0': 1}"),
        ):
            bad = dict(good); bad["edges"] = edges
            with pytest.raises(ValueError, match=re.escape(f"graph schema violation: {message}")):
                graph_from_json(bad)
        empty = dict(good); empty["edges"] = []
        assert graph_from_json(empty).edges.shape == (0, 2)

    def test_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph(tmp_path / "missing.json")
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_graph(bad)

    def test_serialized_json_is_plain_text(self, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(self._sample(), path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "botfuse-graph"
        assert payload["version"] == 1
