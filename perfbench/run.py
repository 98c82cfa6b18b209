"""Benchmark launcher: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace {0,1}``, run from the root of a checkout.

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``campaign`` — one pass of the Tables II/III trial loop per op;
* ``serve`` — open-loop multi-tenant validation through the coalescer;
* ``release`` — one vendor release per op (Algorithm 1 + Algorithm 2 +
  package with discrimination scores).  Not in ``BENCHMARK.json``: its
  scatter-heavy conv backward slows by up to 2x when the host is busy, so
  its run-to-run spread is wider than any bound the benchmark may set.
  Run it by hand, in alternating pairs, to study the backward pass.

Each run starts ``workloads.py`` in a fresh process with OpenBLAS, OpenMP
and MKL pinned to one thread (a two-thread pool on a two-core host stalls).
``--trace 1`` first makes the same untraced run, then a traced one, and
reports the traced run's per-layer metrics plus ``trace.overhead_pct``, the
traced median op time against the untraced one, each divided by its own
run's median probe time.

The last stdout line is the result object; the line before it is a
``{"meta": ...}`` record with the sample count, the host probe timed before
each segment of the run and after the last, and the thread settings.
Exits non-zero, printing no result, when the run fails or the checkout has
no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set in every measured process, recorded in the meta line
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: every child process of one run ends within this many seconds (a whole
#: run may take 180)
RUN_BUDGET_S = 170


def run_child(args: argparse.Namespace, trace: int, extra: list, deadline: float) -> tuple:
    """Run one workload process; returns ``(meta, result)``."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        *extra,
    ]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    return meta, json.loads(lines[-1])


def host_relative_p50(meta: dict) -> float:
    """A run's median op time over its median probe time: the two processes
    of a traced run are compared on this, so a change in host speed between
    them does not read as tracing overhead."""
    return meta["op_p50_ms"] / statistics.median(meta["probe_ms"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("release", "campaign", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        meta, result = run_child(args, 0, extra, deadline)
        if args.trace:
            traced_meta, traced = run_child(args, 1, extra, deadline)
            overhead = (host_relative_p50(traced_meta) / host_relative_p50(meta) - 1.0) * 100.0
            traced["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            traced["attempted"] += result["attempted"]
            traced["failed"] += result["failed"]
            traced["correct"] = traced["correct"] and result["correct"]
            meta = {"untraced": meta, "traced": traced_meta}
            result = traced
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": {**meta, "threads": THREAD_ENV}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
