"""Labeled synthetic flow traces: layout, labeling, cadence, determinism."""

import numpy as np
import pytest

from botfuse.flow_ingest import Label, derive_node_labels, encode_flows, slice_windows
from botfuse.synth_flows import FlowBenchSpec, generate_flow_benchmark


def _spec(arch="c2", **kw):
    base = dict(
        architecture=arch,
        n_background=60,
        n_bots=8,
        n_scanners=2,
        n_background_flows=150,
        scan_flows_per_host=30,
        seed=0,
    )
    base.update(kw)
    return FlowBenchSpec(**base)


def _key(r):
    return (r.ts_start, r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.src_bytes)


class TestSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="architecture"):
            FlowBenchSpec(architecture="hybrid")
        with pytest.raises(ValueError, match="at least 2 background"):
            FlowBenchSpec(n_background=1)
        with pytest.raises(ValueError, match="at least 2 background"):
            FlowBenchSpec(n_bots=0)
        with pytest.raises(ValueError, match="4-regular mesh needs more than 4 bots"):
            FlowBenchSpec(architecture="p2p", n_bots=4)


class TestGenerate:
    def test_determinism(self):
        a = generate_flow_benchmark(_spec())
        b = generate_flow_benchmark(_spec())
        assert a == b
        c = generate_flow_benchmark(_spec(seed=1))
        assert a != c

    def test_sorted_by_time_then_endpoints(self):
        records = generate_flow_benchmark(_spec())
        keys = [(r.ts_start, r.src_ip, r.dst_ip, r.src_port) for r in records]
        assert keys == sorted(keys)

    def test_timestamps_and_payload_sanity(self):
        spec = _spec()
        for r in generate_flow_benchmark(spec):
            assert 0.0 <= r.ts_start < spec.duration
            assert r.duration > 0.0
            assert r.src_bytes > 0
            assert r.dst_bytes >= 0

    def test_node_labels_follow_roles(self):
        records = generate_flow_benchmark(_spec())
        labels = derive_node_labels(records)
        # Every bot and the controller source labeled command traffic; the
        # direction alternation guarantees both channel endpoints originate.
        for ip, lab in labels.items():
            if ip.startswith("10.1.") or ip.startswith("10.2."):
                assert lab is Label.BOT
            else:
                assert lab in (Label.LEGIT, Label.UNKNOWN)
        assert sum(1 for ip in labels if ip.startswith("10.1.")) == 8
        assert sum(1 for ip in labels if ip.startswith("10.2.")) == 1
        assert all(
            labels[ip] is Label.LEGIT for ip in labels if ip.startswith("10.3.")
        )

    def test_p2p_has_no_controllers(self):
        records = generate_flow_benchmark(_spec("p2p"))
        ips = {r.src_ip for r in records} | {r.dst_ip for r in records}
        assert not any(ip.startswith("10.2.") for ip in ips)
        # Command flows run between bot pairs.
        bot_flows = [r for r in records if r.label is Label.BOT]
        assert bot_flows
        for r in bot_flows:
            assert r.src_ip.startswith("10.1.") and r.dst_ip.startswith("10.1.")

    def test_c2_command_flows_touch_the_controller(self):
        records = generate_flow_benchmark(_spec())
        for r in records:
            if r.label is Label.BOT:
                assert "10.2.0.1" in (r.src_ip, r.dst_ip)

    def test_scanners_spray_failed_connections(self):
        spec = _spec()
        records = generate_flow_benchmark(spec)
        for i in (1, 2):
            mine = [r for r in records if r.src_ip == f"10.3.0.{i}"]
            assert len(mine) == spec.scan_flows_per_host
            assert all(r.dst_bytes == 0 for r in mine)
            assert all(r.label is Label.LEGIT for r in mine)

    def test_stealth_bots_beat_slower(self):
        # A quarter of 8 bots marks the first two stealth; their single
        # command edge runs at the slow period so far fewer flows touch them.
        records = [r for r in generate_flow_benchmark(_spec()) if r.label is Label.BOT]
        touch = lambda ip: sum(1 for r in records if ip in (r.src_ip, r.dst_ip))
        stealth, regular = touch("10.1.0.0"), touch("10.1.0.7")
        assert stealth >= 2
        assert regular > stealth

    def test_windows_cover_the_trace(self):
        records = generate_flow_benchmark(_spec())
        windows = slice_windows(encode_flows(records), 60.0, 10.0)
        assert len(windows) >= 7
        bot_windows = sum(
            1 for w in windows if any(r.label is Label.BOT for r in w.records)
        )
        assert bot_windows == len(windows)

    def test_benchmark_graphs_stay_sparse(self):
        # The detector relies on fragmented per-window graphs; guard the
        # generator against densification regressions.
        from botfuse.comm_graph import build_graph

        records = generate_flow_benchmark(_spec())
        windows = slice_windows(encode_flows(records), 60.0, 10.0)
        ratios = []
        for w in windows:
            g = build_graph(w)
            ratios.append(len(g.edges) / (g.n * (g.n - 1)))
        assert float(np.mean(ratios)) < 0.10
