"""Run the benchmark on several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median.  Every end-to-end metric must spread less than its bound
in ``BENCHMARK.json``; the target is a third of the bound.
Run from the root of a checkout::

    python3 perfbench/steadiness.py --workloads campaign serve \\
        --seeds 1 2 3 4 5 6 7 8 9 10

Each run's result and meta lines are appended to ``--log`` (JSON lines).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--log", default=".perfbench_out/steadiness.jsonl")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    log = ROOT / args.log
    log.parent.mkdir(exist_ok=True)
    worst = 0.0
    walls = []
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
            )
            wall = time.perf_counter() - start
            walls.append(wall)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall,
                                     "meta": json.loads(lines[-2])["meta"],
                                     "result": result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            s = spread(values[name])
            worst = max(worst, s / bound)
            flag = "ok" if s < bound / 3 else ("WIDE" if s <= bound else "FAIL")
            print(f"{workload:9s} {name:20s} median {statistics.median(values[name]):12.4f}"
                  f"  spread {s:.4f}  bound {bound}  {flag}")
    print(f"worst spread / bound: {worst:.3f}")
    print(f"wall time per run: mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
