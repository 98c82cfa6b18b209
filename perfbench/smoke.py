"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

Run from the root of a checkout::

    python3 perfbench/smoke.py

It asserts that:

* ``BENCHMARK.json`` names exactly the metrics the workloads emit, with
  the same units;
* every workload emits every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) by name with its unit, and a traced op's
  self times add up to the op;
* every correctness check fires on a planted wrong result: a run with
  ``--plant`` must report ``correct: false`` and count a failed op;
* ``detection_rate`` and ``queries_per_verdict`` repeat exactly on the same
  seed, on ``release`` whatever number of ops the window held, and are the
  same through the ``numpy`` campaign backend as through ``model_axis``;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import END_TO_END, OUT_DIR, PER_LAYER  # noqa: E402

WORKLOADS = ("release", "campaign", "serve")
#: the workloads BENCHMARK.json names; release is run by hand only
BENCHMARKED = ("campaign", "serve")


def bench(*args: str, cwd: Path = ROOT, seconds: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", seconds, *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )


def result(*args: str, seconds: str = "1") -> dict:
    proc = bench(*args, "--size", "smoke", seconds=seconds)
    assert proc.returncode == 0, f"{args}: exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(found: dict, expected: dict, label: str) -> None:
    assert set(found) == set(expected), (
        f"{label}: missing {sorted(set(expected) - set(found))}, "
        f"extra {sorted(set(found) - set(expected))}"
    )
    for name, metric in found.items():
        assert metric["unit"] == expected[name], f"{label}: {name} unit {metric['unit']}"
        assert math.isfinite(metric["value"]), f"{label}: {name} = {metric['value']}"


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(BENCHMARKED)
    check_metrics(
        {m["name"]: {"unit": m["unit"], "value": 0.0} for m in config["end_to_end"]},
        END_TO_END, "BENCHMARK.json end_to_end",
    )
    check_metrics(
        {m["name"]: {"unit": m["unit"], "value": 0.0} for m in config["per_layer"]},
        PER_LAYER, "BENCHMARK.json per_layer",
    )

    for workload in WORKLOADS:
        common = ("--workload", workload, "--seed", "5")
        plain = result(*common, "--trace", "0")
        assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
        check_metrics(plain["metrics"], END_TO_END, f"{workload} --trace 0")
        for name in ("setup_s", "op_p50_ms", "op_p99_ms", "peak_rss_mb"):
            assert plain["metrics"][name]["value"] > 0, f"{workload}: {name} is 0"

        traced = result(*common, "--trace", "1")
        assert traced["correct"] and traced["failed"] == 0
        check_metrics(traced["metrics"], PER_LAYER, f"{workload} --trace 1")
        gap = traced["metrics"]["trace.accounting_gap_pct"]["value"]
        assert gap < 1e-3, f"{workload}: self times miss the op time by {gap}%"

        planted = result(*common, "--trace", "0", "--plant")
        assert not planted["correct"] and planted["failed"] >= 1, (
            f"{workload}: the planted wrong verdict was not caught"
        )
        print(f"{workload}: ok ({plain['attempted']} ops)")

    exact = ("detection_rate", "queries_per_verdict")
    runs = [
        result("--workload", "campaign", "--seed", "9", "--trace", "0", *backend)
        for backend in ((), (), ("--backend", "numpy"))
    ]
    for name in exact:
        values = [run["metrics"][name]["value"] for run in runs]
        assert len(set(values)) == 1, f"campaign {name} differs: {values}"
    print("campaign: deterministic metrics repeat and match the numpy backend")

    # a one-second window and a three-second one hold different numbers of
    # ops; the release values come from a fixed prefix of op seeds
    runs = [result("--workload", "release", "--seed", "9", "--trace", "0", seconds=seconds)
            for seconds in ("1", "3")]
    assert runs[0]["attempted"] != runs[1]["attempted"], "both windows held the same ops"
    for name in exact:
        values = [run["metrics"][name]["value"] for run in runs]
        assert len(set(values)) == 1, f"release {name} differs: {values}"
    print("release: deterministic metrics repeat whatever number of ops ran")

    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "release", "--seed", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "bare checkout must fail"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare checkout: exits non-zero without a result")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
