#!/usr/bin/env python3
"""botfuse benchmark: one workload as a single-client closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; botfuse is imported from ``src/``.
The inputs are generated from ``--seed`` before anything is timed. Set-up
(imports, plus pretrain and train for the detect workloads) is repeated
three times and its median reported. The timed loop then calls
``botfuse.cli.main`` in-process, each call only after the previous one
returned, until ``--seconds`` have passed. Every call's output is checked
(see ``checks.py``); a nonzero exit or a failed check counts as a failed
op. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and a results file with the
machine block, samples, digests and (traced runs) spans is written to
``perfbench/results/``.

End-to-end metrics (``--trace 0``):

* ``flows_per_s``: flow rows of the workload's trace / median wall time of
  one loop iteration (``detect`` on detect-long; ``pretrain``, ``train`` and
  ``eval`` on build-p2p);
* ``setup_s``: median time for a fresh interpreter to start and import
  botfuse, plus the median set-up pass;
* ``peak_rss_mb``: peak resident set of this process.

The median wall time of each CLI command is printed on a ``calls`` line
and kept in the results file with its sample count.

Detection quality is printed on a ``quality`` line and kept in the results
file, not reported as a metric: F1 and ROC AUC of the detect report against
the trace's ground truth on detect-long, the cross-validated means of ``eval``
on build-p2p. It is deterministic, and checked exactly at the recorded seed.

``--trace 1`` runs one set-up pass and alternates untraced and traced
iterations. It reports the per-layer metrics of ``tracing.PER_LAYER`` as
the totals of one set-up pass plus one traced iteration, and
``trace.overhead_s``, the traced minus the untraced iteration wall time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Checker, load_golden  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import SCALES, WORKLOADS, cli_calls  # noqa: E402

END_TO_END = {"flows_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PASSES = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Run BLAS on one thread, well under ``nproc``.

    The benchmark is one client on one thread. On a shared 2-vCPU host a
    second BLAS thread made detect slower and its times spread wider, as it
    waits on a core the host hands out unevenly.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def child_import_s() -> float:
    """Wall time for a fresh interpreter to start and import the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import botfuse.cli"], check=True, env=env, timeout=60)
    return time.perf_counter() - start


class Runner:
    """Issues CLI calls one at a time, timing and checking each."""

    def __init__(self, main, checker: Checker, tracer: Tracer | None):
        self.main = main
        self.checker = checker
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = defaultdict(list)

    def _invoke(self, argv: list[str]) -> int:
        try:
            return self.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not the end of the run
            traceback.print_exc()
            return 1

    def call(self, argv: list[str], traced: bool) -> float:
        gc.collect()
        sink = io.StringIO()
        tracing = self.tracer.installed() if traced else nullcontext()
        with tracing:
            span = self.tracer.span(f"cli.{argv[0]}") if traced else nullcontext()
            start = time.perf_counter()
            with redirect_stdout(sink), redirect_stderr(sink), span:
                rc = self._invoke(argv)
            wall = time.perf_counter() - start
        self.attempted += 1
        errors = self.checker.check(argv) if rc == 0 else [f"exit {rc}: {sink.getvalue()[-2000:]}"]
        if errors:
            self.failed += 1
            self.problems.extend(f"{argv[0]}: {e}" for e in errors)
            print(f"FAILED {argv[0]}: {errors}", file=sys.stderr)
        else:
            self.walls[argv[0]].append(wall)
        return wall


def bench(args, work: Path) -> dict:
    workload, scale = WORKLOADS[args.workload], SCALES[args.scale]
    start = time.perf_counter()
    main = importlib.import_module("botfuse.cli").main
    import_s = time.perf_counter() - start

    expected = json.loads((work / "expected.json").read_text())
    golden = load_golden(workload.name, args.scale, args.seed)
    tracer = Tracer() if args.trace else None
    runner = Runner(main, Checker(workload.arch, work, expected, golden), tracer)
    setup, timed = cli_calls(workload, scale, work)

    n_setup = 1 if args.trace else SETUP_PASSES
    imports = [] if args.trace else [child_import_s() for _ in range(n_setup)]
    passes = [sum(runner.call(argv, bool(args.trace)) for argv in setup) for _ in range(n_setup)]

    iterations: dict[bool, list[float]] = {False: [], True: []}
    loop_start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer.group = f"iter{k}"
        iterations[traced].append(sum(runner.call(argv, traced) for argv in timed))
        k += 1
        if time.perf_counter() - loop_start >= args.seconds and \
                (not args.trace or iterations[True]):
            break

    if not runner.checker.quality:
        raise RuntimeError(f"no successful call to measure: {runner.problems[:3]}")
    if args.trace:
        groups = [f"iter{i}" for i in range(1, k, 2)]
        values = tracer.per_layer(groups)
        values["trace.overhead_s"] = (statistics.median(iterations[True])
                                      - statistics.median(iterations[False]))
        units = PER_LAYER
    else:
        values = {
            "flows_per_s": expected["flow_rows"] / statistics.median(iterations[False]),
            "setup_s": statistics.median(imports) + statistics.median(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    errors = runner.problems + (tracer.errors if tracer else [])
    return {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": errors,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "calls": {cmd: {"median_s": statistics.median(w), "n": len(w)}
                  for cmd, w in runner.walls.items()},
        "quality": runner.checker.quality,
        "import_s": {"this_process": import_s, "fresh_interpreter": imports},
        "setup_passes_s": passes,
        "iterations_s": {"untraced": iterations[False], "traced": iterations[True]},
        "call_walls_s": dict(runner.walls),
        "digests": runner.checker.digests,
        "spans": tracer.span_records() if tracer else [],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "botfuse" / "__init__.py").is_file():
        print(f"error: no botfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gen = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed),
             args.scale, str(work)],
            capture_output=True, text=True, timeout=150,
        )
        if gen.returncode != 0:
            print(f"error: input generation failed\n{gen.stderr}", file=sys.stderr)
            return 1
        result = bench(args, work)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print("calls " + json.dumps(result["calls"], sort_keys=True))
    print("quality " + json.dumps(result["quality"], sort_keys=True))
    print(f"results {out.relative_to(ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
