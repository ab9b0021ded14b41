"""Per-node flow-feature aggregation within one window."""

import numpy as np
import pytest

from botfuse.flow_ingest import FlowRecord, Label, Proto, WindowSlice, encode_flows
from botfuse.flow_features import (
    FEATURE_DIM,
    FEATURE_NAMES,
    extract_node_features,
)


def _flow(src, dst, dur=1.0, up=100, down=50, ts=0.0):
    return FlowRecord(
        ts_start=ts,
        duration=dur,
        proto=Proto.TCP,
        src_ip=src,
        src_port=1000,
        dst_ip=dst,
        dst_port=80,
        src_bytes=up,
        dst_bytes=down,
        label=Label.UNKNOWN,
    )


def _window(records):
    return WindowSlice(0.0, encode_flows(records))


def _rows(window):
    """Node id -> (conn, fail_conn, dur, src_bytes_avg, dst_bytes_avg)."""
    return dict(zip(window.node_index[0], map(tuple, extract_node_features(window).tolist())))


def _random_flows(rng, n, n_nodes=40, int_valued=False):
    flows = []
    for _ in range(n):
        src, dst = rng.choice(n_nodes, size=2, replace=False)
        dur = float(rng.integers(0, 10)) if int_valued else float(rng.uniform(0, 10))
        up = int(rng.integers(0, 3)) * int(rng.integers(0, 500))
        down = int(rng.integers(0, 3)) * int(rng.integers(0, 500))
        flows.append(_flow(f"n{src:02d}", f"n{dst:02d}", dur=dur, up=up, down=down))
    return flows


def _brute_force(records):
    """Independent per-node recomputation from scratch."""
    roles = {}
    for r in records:
        ok = r.src_bytes > 0 and r.dst_bytes > 0
        for node, sent, recv in ((r.src_ip, r.src_bytes, r.dst_bytes),
                                 (r.dst_ip, r.dst_bytes, r.src_bytes)):
            e = roles.setdefault(node, {"ok": [], "fail": [], "sent": [], "recv": []})
            (e["ok"] if ok else e["fail"]).append(r.duration)
            e["sent"].append(sent)
            e["recv"].append(recv)
    out = {}
    for node, e in roles.items():
        n_flows = len(e["sent"])
        out[node] = (
            len(e["ok"]),
            len(e["fail"]),
            sum(e["ok"]) / len(e["ok"]) if e["ok"] else 0.0,
            sum(e["sent"]) / n_flows if n_flows else 0.0,
            sum(e["recv"]) / n_flows if n_flows else 0.0,
        )
    return out


def _conn_counts(up, down):
    """(conn, fail_conn) of both endpoints of one flow."""
    feats = _rows(_window([_flow("a", "b", up=up, down=down)]))
    return feats["a"][:2], feats["b"][:2]


class TestClassifySuccess:
    """A flow succeeds when payload moved in both directions."""

    def test_bidirectional_payload(self):
        assert _conn_counts(500, 300) == ((1, 0), (1, 0))

    def test_unanswered_probe(self):
        assert _conn_counts(40, 0) == ((0, 1), (0, 1))

    def test_no_payload_at_all(self):
        assert _conn_counts(0, 0) == ((0, 1), (0, 1))


class TestExtractNodeFeatures:
    def test_feature_name_constants(self):
        assert FEATURE_DIM == 5
        assert FEATURE_NAMES == ("conn", "fail_conn", "dur", "src_bytes_avg", "dst_bytes_avg")

    def test_single_flow_bookkeeping(self):
        feats = _rows(_window([_flow("A", "B", dur=2.0, up=100, down=50)]))
        assert feats["A"] == (1, 0, 2.0, 100.0, 50.0)
        assert feats["B"] == (1, 0, 2.0, 50.0, 100.0)

    def test_scanner_all_failed(self):
        records = [_flow("A", f"t{i}", dur=1.0, up=40, down=0) for i in range(10)]
        a = _rows(_window(records))["A"]
        assert a == (0, 10, 0.0, 40.0, 0.0)

    def test_every_endpoint_gets_an_entry(self):
        rng = np.random.default_rng(0)
        records = _random_flows(rng, 100)
        window = _window(records)
        endpoints = {r.src_ip for r in records} | {r.dst_ip for r in records}
        assert window.node_index[0] == sorted(endpoints)
        assert extract_node_features(window).shape == (len(endpoints), FEATURE_DIM)

    def test_brute_force_oracle_exact(self):
        rng = np.random.default_rng(1)
        records = _random_flows(rng, 300)
        feats = _rows(_window(records))
        oracle = _brute_force(records)
        assert set(feats) == set(oracle)
        for node, expected in oracle.items():
            assert feats[node] == expected, node

    def test_participation_accounting_identity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            records = _random_flows(rng, 200)
            total = extract_node_features(_window(records))[:, :2].sum()
            assert total == 2 * len(records)

    def test_record_order_is_irrelevant(self):
        # Integer-valued fields make the sums exact in any order.
        rng = np.random.default_rng(2)
        records = _random_flows(rng, 150, int_valued=True)
        base = _window(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        other = _window(shuffled)
        assert other.node_index[0] == base.node_index[0]
        assert extract_node_features(other).tolist() == extract_node_features(base).tolist()

    def test_duration_sums_follow_record_order(self):
        # N is a destination twice before it is a source. Summed in record
        # order its durations give 1 + 2**-52; summing its source-role flows
        # before its destination-role flows would give 1.0.
        tiny = 2.0 ** -53
        records = [_flow("A", "N", dur=tiny), _flow("B", "N", dur=tiny), _flow("N", "C", dur=1.0)]
        dur = _rows(_window(records))["N"][2]
        assert dur == ((tiny + tiny) + 1.0) / 3
        assert dur != ((1.0 + tiny) + tiny) / 3

    def test_record_order_float_durations_close(self):
        rng = np.random.default_rng(3)
        records = _random_flows(rng, 150)
        base = _window(records)
        other = _window(records[::-1])
        assert other.node_index[0] == base.node_index[0]
        np.testing.assert_allclose(extract_node_features(base), extract_node_features(other),
                                   rtol=1e-12)

    def test_byte_scaling_affects_only_averages(self):
        rng = np.random.default_rng(4)
        records = _random_flows(rng, 100)
        scaled = [
            FlowRecord(
                ts_start=r.ts_start, duration=r.duration, proto=r.proto,
                src_ip=r.src_ip, src_port=r.src_port, dst_ip=r.dst_ip,
                dst_port=r.dst_port, src_bytes=4 * r.src_bytes,
                dst_bytes=4 * r.dst_bytes, label=r.label,
            )
            for r in records
        ]
        base = extract_node_features(_window(records))
        quad = extract_node_features(_window(scaled))
        assert np.array_equal(quad[:, :3], base[:, :3])
        assert np.array_equal(quad[:, 3:], 4 * base[:, 3:])

    def test_self_addressed_flow_counts_both_roles(self):
        window = _window([_flow("A", "A", up=10, down=20)])
        assert window.node_index[0] == ["A"]
        conn, _, _, sent, received = extract_node_features(window)[0]
        assert conn == 2
        assert sent == 15.0
        assert received == 15.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty window"):
            extract_node_features(_window([]))

    def test_matrix_layout(self):
        window = _window([_flow("B", "A", dur=2.0, up=100, down=50)])
        assert window.node_index[0] == ["A", "B"]
        matrix = extract_node_features(window)
        assert matrix.shape == (2, FEATURE_DIM)
        assert matrix.dtype == np.float64
        assert matrix.tolist() == [[1.0, 0.0, 2.0, 50.0, 100.0],
                                   [1.0, 0.0, 2.0, 100.0, 50.0]]
