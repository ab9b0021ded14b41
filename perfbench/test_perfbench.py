"""Tests of the benchmark itself, at the tiny scale.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import SCALES, make_trace, to_capture_time, write_binetflow  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 5


def test_binetflow_writer_round_trips(tmp_path):
    from botfuse.flow_ingest import Proto, parse_flow_file

    records, malformed = make_trace("p2p", "1x", SCALES["tiny"], seed=4)
    records = to_capture_time(records)
    assert any(r.proto is Proto.OTHER for r in records)
    path = tmp_path / "trace.binetflow"
    write_binetflow(records, path, malformed)
    parsed = parse_flow_file(path, "binetflow")
    assert parsed.records == records
    assert parsed.malformed == malformed


def run(workload: str, trace: int) -> tuple[list[str], dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads(
        (HERE / "results" / f"{workload}-tiny-seed{SEED}-trace{trace}.json").read_text()
    )
    return lines, result, record


def assert_prints(metrics: list[dict], lines: list[str], result: dict) -> None:
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_and_outputs_repeat(workload):
    lines, result, first = run(workload, 0)
    assert_prints(BENCH["end_to_end"], lines, result)
    assert any(line.startswith("machine ") for line in lines)
    assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))
    _, _, second = run(workload, 0)
    assert first["digests"] == second["digests"]
    assert first["quality"] == second["quality"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_print_and_counts_repeat(workload):
    lines, result, first = run(workload, 1)
    assert_prints(BENCH["per_layer"], lines, result)
    spans = first["spans"]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    assert all(s["parent"] is None or s["parent"] < s["id"] for s in spans)
    _, second_result, second = run(workload, 1)
    assert first["digests"] == second["digests"]
    for name, m in result["metrics"].items():
        if m["unit"] != "s":
            assert second_result["metrics"][name] == m, name
    if workload != "build-p2p":
        assert result["metrics"]["flow_ingest.malformed"]["value"] > 0
        assert result["metrics"]["comm_graph.dropped_self_loops"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
