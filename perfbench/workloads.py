"""Workloads of the botfuse benchmark and the inputs they run on.

Every input is written before anything is timed: synthetic traces from
``botfuse.synth_flows.FlowBenchSpec`` with a little ingest noise added
(non-TCP/UDP rows, self-addressed flows and malformed lines, which the
program skips or counts), in canonical CSV or in Argus binetflow layout.
The detect workloads score a trace made from the workload seed; models are
built from a fixed reference trace (see ``generate``). Alongside the
scored trace goes ``expected.json``, the oracle the output checks use: the
flow-row count, every window's endpoint set and the per-node ground-truth
labels.

Run as a script to generate the inputs of one workload into a directory:

    python3 perfbench/workloads.py <workload> <seed> <scale> <out_dir>

The benchmark does that in a child process, so the generator's memory never
shows in the measured process's peak RSS.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Seed of the reference 1x traces that models are built from.
REFERENCE_SEED = 0

WINDOW_LEN = 60.0
STRIDE = 10.0

# Binetflow start times are wall-clock; traces are placed on the CTU-13
# capture day (2011-08-10 09:00:00 UTC) at microsecond resolution.
CAPTURE_EPOCH_US = 1_312_966_800 * 10**6
_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

BINETFLOW_HEADER = (
    "StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,"
    "sTos,dTos,TotPkts,TotBytes,SrcBytes,Label"
)


@dataclass(frozen=True)
class Scale:
    """Trace sizes and CLI options of one benchmark scale.

    ``base`` holds the FlowBenchSpec fields of a 1x trace. A long trace
    multiplies duration and background flows by ``long_factor``.
    """

    base: dict
    long_factor: int
    pretrain_args: tuple = ()
    train_args: tuple = ()
    eval_args: tuple = ()


SCALES = {
    # 1x is the FlowBenchSpec default: 400 hosts, 16 bots, 800 flows / 120 s.
    "full": Scale(
        base=dict(n_background=400, n_bots=16, n_background_flows=800),
        long_factor=10,
        eval_args=("--k", "10"),
    ),
    # Seconds-long runs for the benchmark's own tests.
    "tiny": Scale(
        base=dict(n_background=60, n_bots=6, n_background_flows=200, scan_flows_per_host=20),
        long_factor=3,
        pretrain_args=("--n-graphs", "3", "--max-epochs", "2"),
        train_args=("--n-trees", "5"),
        eval_args=("--k", "3", "--n-trees", "5"),
    ),
}


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    ``trace`` is the shape of the scored trace ("1x" or "long").
    Detect workloads train on the reference 1x trace during set-up and time
    ``detect`` on a trace of their own; the build workload times pretrain,
    train and eval on the reference 1x trace.
    """

    name: str
    arch: str
    trace: str
    fmt: str
    detect: bool
    why: str

    @property
    def trace_file(self) -> str:
        return "trace.binetflow" if self.fmt == "binetflow" else "trace.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "detect-long", "c2", "long", "binetflow", True,
            "many small windows read from binetflow: per-window fixed cost, 6x "
            "window overlap and tree routing on small batches dominate detect",
        ),
        Workload(
            "build-p2p", "p2p", "1x", "canonical", False,
            "model building: tree fit and GCN backward dominate pretrain, train "
            "and eval; detect does not run",
        ),
    )
}


def cli_calls(w: Workload, scale: Scale, work: Path) -> tuple[list, list]:
    """(set-up calls, timed calls) as argv lists for ``botfuse.cli.main``."""
    model, trees = str(work / "model.bin"), str(work / "trees.json")
    trace = str(work / w.trace_file)
    pretrain = ["pretrain", "--arch", w.arch, "--out", model,
                "--report", str(work / "pretrain.jsonl"), *scale.pretrain_args]

    def train(flows: str) -> list:
        return ["train", "--flows", flows, "--model", model, "--out", trees, *scale.train_args]

    if w.detect:
        detect = ["detect", "--flows", trace, "--format", w.fmt, "--arch", w.arch,
                  "--model", model, "--ensemble", trees, "--no-timings",
                  "--out", str(work / "report.jsonl")]
        return [pretrain, train(str(work / "train.csv"))], [detect]
    evaluate = ["eval", "--flows", trace, "--model", model,
                "--out", str(work / "eval.json"), *scale.eval_args]
    return [], [pretrain, train(trace), evaluate]


def spec_fields(trace: str, scale: Scale) -> dict:
    fields = dict(scale.base)
    if trace == "long":
        fields["duration"] = 120.0 * scale.long_factor
        fields["n_background_flows"] *= scale.long_factor
    return fields


def add_noise(records: list, seed: int) -> tuple[list, int]:
    """Append non-TCP/UDP and self-addressed copies of some flows.

    Returns the records, re-sorted as the generator sorts them, and the
    number of malformed lines the writer should add. One non-TCP/UDP row
    per 100 flows, one self-addressed flow per 500, one malformed line per
    1000.
    """
    import dataclasses

    import numpy as np

    from botfuse.flow_ingest import Proto

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB0,)))
    n = len(records)
    extra = [dataclasses.replace(records[i], proto=Proto.OTHER)
             for i in rng.integers(0, n, size=n // 100)]
    extra += [dataclasses.replace(records[i], dst_ip=records[i].src_ip)
              for i in rng.integers(0, n, size=n // 500)]
    out = records + extra
    out.sort(key=lambda r: (r.ts_start, r.src_ip, r.dst_ip, r.src_port))
    return out, max(1, n // 1000)


def to_capture_time(records: list) -> list:
    """Move start times onto the capture day at microsecond resolution."""
    import dataclasses

    return [
        dataclasses.replace(r, ts_start=(CAPTURE_EPOCH_US + round(r.ts_start * 1e6)) / 10**6)
        for r in records
    ]


def _binetflow_row(r) -> list:
    from botfuse.flow_ingest import Label, Proto

    started = _UNIX_EPOCH + timedelta(microseconds=round(r.ts_start * 1e6))
    proto = r.proto.value if r.proto is not Proto.OTHER else "icmp"
    success = r.src_bytes > 0 and r.dst_bytes > 0
    state = {"tcp": "FSPA_FSPA" if success else "S_", "udp": "CON"}.get(proto, "ECO")
    total = r.src_bytes + r.dst_bytes
    label = {Label.BOT: "flow=From-Botnet-V42", Label.LEGIT: "flow=Normal-V42"}.get(
        r.label, "flow=Background"
    )
    return [
        started.strftime("%Y/%m/%d %H:%M:%S.%f"), repr(r.duration), proto,
        r.src_ip, r.src_port, "<->" if r.dst_bytes else "->", r.dst_ip, r.dst_port,
        state, 0, 0, 1 + total // 1000, total, r.src_bytes, label,
    ]


def write_binetflow(records, path, malformed: int = 0) -> None:
    """Write flows in the Argus binetflow column layout botfuse reads.

    Start times are written at microsecond resolution, the format's own, so
    records whose start times lie on that grid (see ``to_capture_time``)
    parse back to equal records. ``malformed`` truncated lines are appended.
    """
    with Path(path).open("w", newline="") as handle:
        handle.write(BINETFLOW_HEADER + "\n")
        writer = csv.writer(handle)
        for r in records:
            writer.writerow(_binetflow_row(r))
        for i in range(malformed):
            handle.write(f"2011/08/10 09:00:{i % 60:02d}.000000,0.5,tcp\n")


def write_canonical(records, path, malformed: int = 0) -> None:
    from botfuse.flow_ingest import write_flows_csv

    write_flows_csv(records, path)
    with Path(path).open("a", newline="") as handle:
        for i in range(malformed):
            handle.write(f"{float(i)!r},0.5,tcp,10.9.9.9\n")


def expected_outputs(records, n_rows: int) -> dict:
    """Oracle for the output checks: each window's endpoints and node labels.

    Windows follow the documented rule: starts aligned to the stride at or
    before the first TCP/UDP flow, a flow in every window whose half-open
    interval holds its start time, empty windows omitted.
    """
    from botfuse.flow_ingest import Label, Proto, derive_node_labels

    kept = sorted((r for r in records if r.proto is not Proto.OTHER), key=lambda r: r.ts_start)
    times = [r.ts_start for r in kept]
    first = math.floor(times[0] / STRIDE) * STRIDE
    windows = []
    for k in range(int(math.floor((times[-1] - first) / STRIDE)) + 1):
        start = first + k * STRIDE
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_left(times, start + WINDOW_LEN)
        if hi > lo:
            nodes = sorted({ip for r in kept[lo:hi] for ip in (r.src_ip, r.dst_ip)})
            windows.append([start, len(nodes), digest_lines(nodes)])
    labels = {
        node: int(label is Label.BOT)
        for node, label in sorted(derive_node_labels(kept).items())
        if label is not Label.UNKNOWN
    }
    return {"flow_rows": n_rows, "windows": windows, "labels": labels}


def digest_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def make_trace(arch: str, trace: str, scale: Scale, seed: int) -> tuple[list, int]:
    from botfuse.synth_flows import FlowBenchSpec, generate_flow_benchmark

    spec = FlowBenchSpec(architecture=arch, seed=seed, **spec_fields(trace, scale))
    return add_noise(generate_flow_benchmark(spec), seed)


def generate(w: Workload, scale: Scale, seed: int, out: Path) -> None:
    """Write the inputs of one workload run into ``out``.

    Models are built from the reference 1x trace of the architecture, the
    same in every run: how long tree fitting takes depends threefold on
    which hosts a trace makes hard to separate, so training on a new trace
    per seed would swamp every timing with input variance. The detect
    workloads score a trace made from the workload seed.
    """
    out.mkdir(parents=True, exist_ok=True)
    scored_seed = seed + 1 if w.detect else REFERENCE_SEED  # never the reference for detect
    records, malformed = make_trace(w.arch, w.trace, scale, scored_seed)
    if w.fmt == "binetflow":
        records = to_capture_time(records)
        write_binetflow(records, out / w.trace_file, malformed)
    else:
        write_canonical(records, out / w.trace_file, malformed)
    expected = expected_outputs(records, len(records) + malformed)
    (out / "expected.json").write_text(json.dumps(expected))
    if w.detect:
        train, malformed = make_trace(w.arch, "1x", scale, REFERENCE_SEED)
        write_canonical(train, out / "train.csv", malformed)


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    name, seed, scale, out = argv
    sys.path.insert(0, str(ROOT / "src"))
    generate(WORKLOADS[name], SCALES[scale], int(seed), Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
