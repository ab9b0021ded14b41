"""Byte-for-byte reproducibility of a small CLI round trip, of a forest fit
at a realistic size, and of the synthetic graphs and flow traces.

The round trip runs in a child process with BLAS pinned to one thread: the
model's bytes depend on the order in which BLAS sums its products, so they
are only reproducible at a fixed thread count. Tree fitting uses no BLAS.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from botfuse.comm_graph import graph_to_json
from botfuse.extra_trees import fit, serialize_ensemble
from botfuse.flow_ingest import write_flows_csv
from botfuse.pretrain import default_pretrain_dataset
from botfuse.synth_flows import FlowBenchSpec, generate_flow_benchmark

SRC = Path(__file__).resolve().parent.parent / "src"

ROUND_TRIP = """
import sys
from botfuse.cli import main

def run(*argv):
    if main(list(argv)) != 0:
        sys.exit(f"botfuse {argv[0]} failed")

run("synth", "--kind", "graphs", "--out", "graphs", "--n-graphs", "4",
    "--n-background", "40", "--n-bots", "8", "--seed", "1")
run("synth", "--kind", "flows", "--out", "flows.csv", "--n-background", "40",
    "--n-bots", "8", "--seed", "2")
run("pretrain", "--data", "graphs", "--depth", "2", "--max-epochs", "5",
    "--patience", "2", "--out", "model.bin")
run("features", "--flows", "flows.csv", "--out", "features.jsonl")
run("train", "--flows", "flows.csv", "--model", "model.bin", "--n-trees", "5",
    "--out", "trees.json")
run("detect", "--flows", "flows.csv", "--model", "model.bin", "--ensemble",
    "trees.json", "--no-timings", "--out", "report.jsonl")
run("eval", "--flows", "flows.csv", "--model", "model.bin", "--k", "3",
    "--n-trees", "5", "--out", "eval.json")
"""

GOLDEN = {
    "model.bin": "e985fd9d1c31986e31747aaec0681bbd88972e99ad83cc4d7c5b3f265c048099",
    "trees.json": "71d0f04234ae22fea214fe46fb5750f395c084c4829b92944b3d09ee144d6df4",
    "report.jsonl": "93a8c90483fb7134c2e4286563e5c0cff9137c53c5a5f983db52eed08077d8b4",
    "eval.json": "bbc3727c72e4a30242c768fd77d54c421443dcd38baf99011e901c82c0197a12",
    "features.jsonl": "d31d353c63684fce3f8437af837048b0625eb7e76f0a2159c93965c6706a5001",
}


def test_cli_round_trip_is_byte_identical(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", ROUND_TRIP], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


# 20 trees on a 2000 x 32 matrix with 115 positives (5.75%); half of the
# columns are rectified, so many nodes hold columns that are constant there.
FIT_GOLDEN = "088717d66b4261fe3f1f41c91ff070d9a1b66c9a3fdb2c769999ff3862a5986c"


def test_forest_fit_is_byte_identical():
    rng = np.random.default_rng(20261018)
    X = rng.standard_normal((2000, 32))
    y = (rng.random(2000) < 0.05).astype(np.int64)
    X[y == 1, :4] += 1.0
    X[:, 16:] = np.maximum(X[:, 16:], 0.0)
    assert int(y.sum()) == 115
    ensemble = fit(X, y, n_trees=20, seed=3)
    assert hashlib.sha256(serialize_ensemble(ensemble)).hexdigest() == FIT_GOLDEN


# Digests of graph_to_json: the default pretraining datasets (Erdős–Rényi
# backgrounds, a star or a random regular mesh on top). They pin the random
# graph generators.
GRAPH_GOLDEN = {
    "c2": "1469f207c9934c7a0acc5762a9e929947b441a524447f677b28cd104325d7578",
    "p2p": "7317fac2b7a26cc8c41e8c393237f533d8744d22fb53f46c1db90fcdcc94f9ae",
}


def _graphs_digest(graphs) -> str:
    payload = json.dumps([graph_to_json(g) for g in graphs], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_synthetic_graphs_are_byte_identical():
    digests = {
        "c2": _graphs_digest(default_pretrain_dataset("c2", n_graphs=2)),
        "p2p": _graphs_digest(default_pretrain_dataset("p2p", n_graphs=2)),
    }
    assert digests == GRAPH_GOLDEN


# A p2p flow trace: its bot channels follow the random regular mesh's edge order.
FLOWS_GOLDEN = "ca6e70a8554c6dcefab455eeb1fe3b4c2fc5ef8f03c22dc2254a452a18a46994"


def test_p2p_flow_trace_is_byte_identical(tmp_path):
    records = generate_flow_benchmark(FlowBenchSpec(architecture="p2p", seed=3))
    write_flows_csv(records, tmp_path / "flows.csv")
    digest = hashlib.sha256((tmp_path / "flows.csv").read_bytes()).hexdigest()
    assert digest == FLOWS_GOLDEN
