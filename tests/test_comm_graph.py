"""Directed communication graph construction and the normalized propagation matrix."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import botfuse
from botfuse.comm_graph import (
    CommGraph,
    Propagation,
    build_graph,
    graph_from_json,
    graph_to_json,
    load_graph,
    propagation_matrix,
    save_graph,
)
from botfuse.flow_features import extract_node_features
from botfuse.flow_ingest import FlowRecord, Label, Proto, WindowSlice, encode_flows, slice_windows
from botfuse.synth_flows import FlowBenchSpec, generate_flow_benchmark
from csr_checks import as_scipy
from oracles import dense_propagation


def _flow(src, dst, up=100, down=50):
    return FlowRecord(
        ts_start=0.0, duration=1.0, proto=Proto.TCP, src_ip=src, src_port=1,
        dst_ip=dst, dst_port=2, src_bytes=up, dst_bytes=down,
    )


def _window(records):
    return WindowSlice(0.0, encode_flows(records))


def _graph_from_flows(records):
    return build_graph(_window(records))


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
    return CommGraph(nodes=[f"n{i:04d}" for i in range(n)], edges=edges)


def _spectral_radius(P):
    """Largest absolute eigenvalue of the symmetric matrix P, computed densely."""
    return float(np.abs(np.linalg.eigvalsh(as_scipy(P).toarray())).max())


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
        assert build_graph(w).nodes == w.node_index[0]
        assert len(extract_node_features(w)) == len(w.node_index[0])

    def test_features_and_graph_share_the_windows_one_node_list(self):
        flows = encode_flows(generate_flow_benchmark(FlowBenchSpec(duration=60.0, seed=3)))
        w = max(slice_windows(flows), key=lambda w: len(w.table))
        assert len(w.node_index[0]) > 10
        assert build_graph(w).nodes is w.node_index[0]
        assert len(extract_node_features(w)) == len(w.node_index[0])

    def test_window_graphs_carry_no_labels_or_features(self):
        g = _graph_from_flows([_flow("A", "B")])
        assert g.labels is None
        assert "features" not in graph_to_json(g)


class TestEdgeCanonicalization:
    def test_any_pair_collection_is_sorted_and_deduplicated(self):
        expect = [[0, 1], [0, 2], [2, 0]]
        for edges in ({(2, 0), (0, 2), (0, 1)}, [(2, 0), (0, 1), (2, 0), (0, 2)],
                      np.array([[2, 0], [0, 2], [0, 1], [0, 1]], dtype=np.int32)):
            g = CommGraph(nodes=["a", "b", "c"], edges=edges)
            assert g.edges.dtype == np.int64
            assert g.edges.tolist() == expect

    @pytest.mark.parametrize("nodes, edges, message", [
        # As code i*n + j, (0, 3) on two nodes would decode as the self-loop (1, 1).
        (["a", "b"], [(0, 3)], "edge [0, 3] out of range for 2 nodes"),
        # A negative index would reach propagation_matrix, and fail in np.bincount.
        (["a", "b", "c"], [(0, 1), (0, -1)], "edge [0, -1] out of range for 3 nodes"),
    ])
    def test_pairs_outside_the_node_range_are_refused(self, nodes, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CommGraph(nodes=nodes, edges=edges)

    def test_no_edges_is_an_empty_pair_array(self):
        for edges in (set(), [], np.empty((0, 2))):
            g = CommGraph(nodes=["a"], edges=edges)
            assert g.edges.shape == (0, 2)
            assert g.edges.dtype == np.int64


class TestPropagationMatrix:
    def test_mutual_pair_closed_form(self):
        g = _graph_from_flows([_flow("A", "B")])
        P = as_scipy(propagation_matrix(g)).toarray()
        assert P.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_star_closed_form(self):
        records = [_flow("hub", f"leaf{i}") for i in range(4)]
        g = _graph_from_flows(records)
        P = as_scipy(propagation_matrix(g)).toarray()
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
            P = as_scipy(propagation_matrix(g)).toarray()
            assert np.abs(P - dense_propagation(g)).max() < 1e-12

    def test_equals_dense_oracle_exactly_in_canonical_form(self):
        rng = np.random.default_rng(5)
        for trial in range(60):
            g = _random_graph(rng, n=int(rng.integers(1, 120)), p=float(rng.uniform(0, 0.2)))
            if trial % 3 == 0 and g.n:
                # Self-pairs count once towards a node's degree.
                loops = rng.integers(0, g.n, size=3)
                g = CommGraph(nodes=g.nodes, edges=np.concatenate(
                    (g.edges, np.column_stack((loops, loops)))))
            P = as_scipy(propagation_matrix(g))
            assert P.has_canonical_format
            assert np.array_equal(P.toarray(), dense_propagation(g))

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = _random_graph(rng, n=50)
            P = as_scipy(propagation_matrix(g))
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
        g = CommGraph(nodes=[f"n{i:02d}" for i in range(n)], edges=edges)
        P = as_scipy(propagation_matrix(g))
        np.testing.assert_allclose(P @ np.ones(n), np.ones(n), atol=1e-12)

    def test_isolated_nodes_zero_rows(self):
        g = CommGraph(nodes=["a", "b", "c"], edges={(0, 1)})
        P = as_scipy(propagation_matrix(g)).toarray()
        assert P[2].tolist() == [0.0, 0.0, 0.0]
        assert P[:, 2].tolist() == [0.0, 0.0, 0.0]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        g = _random_graph(rng, n=30)
        P = as_scipy(propagation_matrix(g)).toarray()
        # Renaming nodes reverses their sort order and thus permutes indices.
        renamed = [f"z{29 - i:04d}" for i in range(30)]
        perm = np.argsort(renamed)  # new index of old node i is perm^-1; build map
        new_index = {old: int(np.nonzero(perm == old)[0][0]) for old in range(30)}
        g2 = CommGraph(
            nodes=sorted(renamed),
            edges={(new_index[i], new_index[j]) for i, j in g.edges},
        )
        P2 = as_scipy(propagation_matrix(g2)).toarray()
        for i in range(30):
            for j in range(30):
                assert P2[new_index[i], new_index[j]] == P[i, j]

    def test_sparse_output_type(self):
        g = _graph_from_flows([_flow("A", "B")])
        P = propagation_matrix(g)
        assert isinstance(P, Propagation)
        assert sp.issparse(as_scipy(P))
        assert (P.nnz, P.getnnz(axis=1).tolist()) == (2, [1, 1])


class TestSpectralRadius:
    def test_known_two_cycle(self):
        g = _graph_from_flows([_flow("A", "B")])
        P = propagation_matrix(g)
        assert _spectral_radius(P) == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix(self):
        g = CommGraph(nodes=["a", "b"], edges=set())
        assert _spectral_radius(propagation_matrix(g)) == 0.0


def _operands(rng, n, width):
    """Dense n x width float64 operands holding signed zeros and subnormals:
    C-ordered, Fortran-ordered and strided views of them, and a view with
    negative strides."""
    Y = rng.standard_normal((n, width))
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310])
    picked = rng.random(Y.shape) < 0.3
    Y[picked] = rng.choice(special, size=int(picked.sum()))
    wide = rng.standard_normal((2 * n, 2 * width))
    wide[::2, ::2] = Y
    return [Y, np.asfortranarray(Y), wide[::2, ::2], wide[::-2, ::-2]]


def _assert_same_bits(P, Y):
    got, want = P @ Y, as_scipy(P) @ Y
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape == (P.shape[0], Y.shape[1])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestPropagationProduct:
    """`Propagation @ Y` against scipy's csr_matrix product, bit for bit."""

    def test_random_graphs_with_isolated_nodes_and_self_pairs(self):
        rng = np.random.default_rng(11)
        isolated = 0
        for trial in range(40):
            g = _random_graph(rng, n=int(rng.integers(2, 80)), p=float(rng.uniform(0, 0.05)))
            if trial % 2 == 0:
                loops = rng.integers(0, g.n, size=4)
                g = CommGraph(nodes=g.nodes, edges=np.concatenate(
                    (g.edges, np.column_stack((loops, loops)))))
            P = propagation_matrix(g)
            isolated += int((P.getnnz(axis=1) == 0).sum())
            for width in (1, 5, 32):
                for Y in _operands(rng, g.n, width):
                    _assert_same_bits(P, Y)
        assert isolated > 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_small_and_edgeless_graphs(self, n):
        rng = np.random.default_rng(n)
        graphs = [CommGraph(nodes=[f"n{i}" for i in range(n)], edges=set())]
        if n:
            graphs.append(CommGraph(nodes=graphs[0].nodes, edges={(0, 0), (0, n - 1)}))
        for g in graphs:
            P = propagation_matrix(g)
            assert P.shape == (n, n)
            for width in (1, 5, 32):
                for Y in _operands(rng, n, width):
                    _assert_same_bits(P, Y)

    def test_edgeless_product_is_positive_zero(self):
        P = propagation_matrix(CommGraph(nodes=["a", "b", "c"], edges=set()))
        Y = np.full((3, 4), -0.0)
        assert (P @ Y).view(np.int64).tolist() == [[0] * 4] * 3

    def test_shape_mismatch_is_refused(self):
        P = propagation_matrix(CommGraph(nodes=["a", "b"], edges={(0, 1)}))
        for Y in (np.ones(2), np.ones((3, 2)), np.ones((2, 2, 1))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                P @ Y

    @pytest.mark.parametrize("first", ["botfuse.comm_graph", "scipy.sparse"])
    def test_either_import_order_gives_the_same_product(self, first):
        """A child interpreter per import order: scipy.sparse loaded before
        or after botfuse's kernel, and the product equal in every case."""
        second = ({"botfuse.comm_graph", "scipy.sparse"} - {first}).pop()
        code = f"""
import hashlib, sys
import {first}
import {second}
import numpy as np
from botfuse.comm_graph import CommGraph, propagation_matrix
rng = np.random.default_rng(4)
g = CommGraph(nodes=[str(i) for i in range(50)], edges=rng.integers(0, 50, size=(120, 2)))
P = propagation_matrix(g)
Y = rng.standard_normal((50, 8))
A = scipy.sparse.csr_matrix((P.data, P.indices, P.indptr), shape=P.shape)
assert np.array_equal((P @ Y).view(np.int64), (A @ Y).view(np.int64))
print(hashlib.sha256((P @ Y).tobytes()).hexdigest())
"""
        env = dict(os.environ, PYTHONPATH=str(Path(botfuse.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.strip()
        rng = np.random.default_rng(4)
        g = CommGraph(nodes=[str(i) for i in range(50)], edges=rng.integers(0, 50, size=(120, 2)))
        here = propagation_matrix(g) @ rng.standard_normal((50, 8))
        assert out == hashlib.sha256(here.tobytes()).hexdigest()


class TestInterchangeFormat:
    def _sample(self):
        g = _graph_from_flows([_flow("A", "B"), _flow("C", "B", up=10, down=0)])
        g.labels = np.array([Label.BOT, Label.LEGIT, Label.UNKNOWN], dtype=object)
        g.meta["architecture"] = "c2"
        return g

    def test_round_trip(self):
        g = self._sample()
        g2 = graph_from_json(graph_to_json(g))
        assert g2.nodes == g.nodes
        assert np.array_equal(g2.edges, g.edges)
        assert g2.labels.tolist() == g.labels.tolist()
        assert g2.meta == g.meta

    def test_file_round_trip(self, tmp_path):
        g = self._sample()
        path = tmp_path / "graph.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.nodes == g.nodes
        assert np.array_equal(g2.edges, g.edges)

    def test_labels_are_saved_by_name_and_load_as_members(self, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(self._sample(), path)
        assert json.loads(path.read_text())["labels"] == ["bot", "legit", "unknown"]
        labels = load_graph(path).labels
        assert labels.dtype == object
        assert [type(label) for label in labels] == [Label] * 3
        assert labels.tolist() == [Label.BOT, Label.LEGIT, Label.UNKNOWN]

    def test_window_graph_round_trips(self):
        g = _graph_from_flows([_flow("A", "B"), _flow("C", "B", up=10, down=0)])
        payload = graph_to_json(g)
        assert "features" not in payload and payload["labels"] is None
        g2 = graph_from_json(json.loads(json.dumps(payload)))
        assert g2.nodes == g.nodes
        assert g2.edges.dtype == np.int64
        assert np.array_equal(g2.edges, g.edges)
        assert g2.labels is None
        assert graph_to_json(g2) == payload

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
        ):
            bad = dict(good); bad[field] = value
            with pytest.raises(ValueError, match=re.escape(f"graph schema violation: {message}")):
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
            ([[0, 1], [0, 10**30]], f"edge [0, {10**30}] out of range"),
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
