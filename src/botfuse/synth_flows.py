"""Synthetic labeled flow benchmark.

Generates a sparse flow trace with three behaviour classes so that neither
signal alone is sufficient:

* background hosts with hub-weighted traffic (popular servers look like
  coordination hubs, stressing topology-only detection),
* scanner hosts that spray failed connections (noisy flow statistics and
  star-shaped fan-out on legitimate hosts),
* bots that keep a command channel alive: a star to the one controller or a
  random 4-regular mesh among peers. A quarter of them are "stealth" bots
  whose command-channel cadence and payload sizes match quiet background
  hosts, so only the communication structure gives them away.

Traffic density is kept low on purpose: per-window communication graphs of
real traces are fragmented into many small components, and the detection
pipeline relies on that sparsity. Flows sourced by bots and controllers
carry the positive label; everything else is labeled legitimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow_ingest import FlowRecord, Label, Proto
from .pretrain import ARCH_C2, ARCH_P2P, ARCHITECTURES, MESH_DEGREE
from .random_graphs import random_regular_edges

# Share of bots whose command channel runs at the stealth cadence, and the
# mean seconds between beats of an ordinary and of a stealth channel.
STEALTH_FRAC = 0.25
HEARTBEAT_PERIOD = 12.0
STEALTH_PERIOD = 45.0

# The one controller of a centralized botnet.
CONTROLLER_IP = "10.2.0.1"


@dataclass
class FlowBenchSpec:
    architecture: str = ARCH_C2
    n_background: int = 400
    n_bots: int = 16
    n_scanners: int = 4
    duration: float = 120.0
    n_background_flows: int = 800
    scan_flows_per_host: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be c2 or p2p, got {self.architecture!r}")
        if self.n_background < 2 or self.n_bots < 1:
            raise ValueError("need at least 2 background hosts and 1 bot")
        if self.architecture == ARCH_P2P and self.n_bots <= MESH_DEGREE:
            raise ValueError(
                f"a {MESH_DEGREE}-regular mesh needs more than {MESH_DEGREE} bots, "
                f"got {self.n_bots}"
            )


def _bg_ip(i: int) -> str:
    return f"10.0.{i // 256}.{i % 256}"


def _bot_ip(i: int) -> str:
    return f"10.1.{i // 256}.{i % 256}"


def _scan_ip(i: int) -> str:
    return f"10.3.0.{i + 1}"


def _success_bytes(rng: np.random.Generator) -> tuple[int, int]:
    # Heavy-tailed payloads typical of ordinary sessions.
    up = int(rng.lognormal(7.0, 1.0)) + 40
    down = int(rng.lognormal(8.0, 1.2)) + 40
    return up, down


def _beacon_bytes(rng: np.random.Generator) -> tuple[int, int]:
    # Short fixed-size command-channel chatter.
    return int(rng.integers(64, 160)), int(rng.integers(64, 160))


def _flow(
    rng,
    ts: float,
    src: str,
    dst: str,
    label: Label,
    success: bool,
    bytes_pair: tuple[int, int] | None = None,
    proto: Proto = Proto.TCP,
) -> FlowRecord:
    if success:
        up, down = bytes_pair if bytes_pair is not None else _success_bytes(rng)
        dur = float(rng.exponential(4.0)) + 0.05
    else:
        up, down = int(rng.integers(40, 200)), 0
        dur = float(rng.uniform(0.0, 3.0))
    return FlowRecord(
        ts_start=float(ts),
        duration=dur,
        proto=proto,
        src_ip=src,
        src_port=int(rng.integers(1024, 65535)),
        dst_ip=dst,
        dst_port=int(rng.choice([80, 443, 53, 8080, 22, 6667])),
        src_bytes=up,
        dst_bytes=down,
        label=label,
    )


def generate_flow_benchmark(spec: FlowBenchSpec) -> list[FlowRecord]:
    """Labeled flow trace for one benchmark scenario, sorted by start time."""
    ss = np.random.SeedSequence(spec.seed)
    rng, mesh_rng = (np.random.default_rng(c) for c in ss.spawn(2))

    n_bg = spec.n_background
    bg_hosts = [_bg_ip(i) for i in range(n_bg)]
    bots = [_bot_ip(i) for i in range(spec.n_bots)]
    scanners = [_scan_ip(i) for i in range(spec.n_scanners)]

    # Hub-weighted destination draw: a few background hosts see most traffic.
    hub_w = 1.0 / (np.arange(n_bg) + 1.0)
    hub_w /= hub_w.sum()

    records: list[FlowRecord] = []

    def draw_pair() -> tuple[str, str]:
        while True:
            s = int(rng.integers(0, n_bg))
            d = int(rng.choice(n_bg, p=hub_w))
            if s != d:
                return bg_hosts[s], bg_hosts[d]

    for _ in range(spec.n_background_flows):
        src, dst = draw_pair()
        ts = float(rng.uniform(0.0, spec.duration))
        success = bool(rng.random() < 0.9)
        proto = Proto.UDP if rng.random() < 0.15 else Proto.TCP
        records.append(_flow(rng, ts, src, dst, Label.LEGIT, success, proto=proto))

    for scanner in scanners:
        for _ in range(spec.scan_flows_per_host):
            dst = bg_hosts[int(rng.integers(0, n_bg))]
            ts = float(rng.uniform(0.0, spec.duration))
            records.append(_flow(rng, ts, scanner, dst, Label.LEGIT, success=False))

    n_stealth = int(round(STEALTH_FRAC * spec.n_bots))
    stealth = set(bots[:n_stealth])

    # Command-channel edges. An edge incident to a stealth bot runs at the
    # slow cadence with background-like payloads, so neither endpoint's flow
    # statistics stand out; the channel stays visible only structurally.
    if spec.architecture == ARCH_C2:
        channel_edges = [(bot, CONTROLLER_IP) for bot in bots]
    else:
        mesh_seed = int(mesh_rng.integers(0, 2**31 - 1))
        mesh = random_regular_edges(MESH_DEGREE, spec.n_bots, mesh_seed)
        channel_edges = [(bots[u], bots[v]) for u, v in mesh.tolist()]

    for a, b in channel_edges:
        quiet = a in stealth or b in stealth
        period = STEALTH_PERIOD if quiet else HEARTBEAT_PERIOD
        t = float(rng.uniform(0.0, period))
        beat = 0
        while t < spec.duration:
            pair = _success_bytes(rng) if quiet else _beacon_bytes(rng)
            # Alternate direction so both endpoints source traffic.
            src, dst = (a, b) if beat % 2 == 0 else (b, a)
            records.append(_flow(rng, t, src, dst, Label.BOT, True, bytes_pair=pair))
            t += period * float(rng.uniform(0.85, 1.15))
            beat += 1

    records.sort(key=lambda r: (r.ts_start, r.src_ip, r.dst_ip, r.src_port))
    return records
