"""CLI entry point: ``python -m repro.bench``.

Runs the engine benchmark matrix, writes ``BENCH_engine.json`` and —
when given a baseline — enforces the regression gate::

    # full matrix, write BENCH_engine.json next to the repo root
    PYTHONPATH=src python -m repro.bench

    # CI smoke: small pool, compare against the committed baseline
    PYTHONPATH=src python -m repro.bench --quick \
        --baseline benchmarks/BENCH_baseline.json --threshold 0.20

Exit status is non-zero when a workload regressed by more than the
threshold, unless ``BENCH_SKIP_REGRESSION`` is set (noisy runners), in which
case regressions are reported as warnings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.harness import (
    DEFAULT_REGRESSION_THRESHOLD,
    ENV_SKIP_REGRESSION,
    compare_reports,
    host_info,
    hosts_comparable,
    load_report,
    regression_gate_skipped,
    write_report,
)
from repro.bench.workloads import (
    DEFAULT_POOL_SIZE,
    QUICK_POOL_SIZE,
    WORKLOAD_NAMES,
    campaign_shards_speedup,
    default_backends,
    model_axis_speedup,
    run_benchmark_matrix,
    serve_coalesce_speedup,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the execution engine and gate regressions.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small pool ({QUICK_POOL_SIZE} images), two repeats — the CI smoke mode",
    )
    parser.add_argument("--output", default="BENCH_engine.json", help="report path")
    parser.add_argument(
        "--baseline",
        default=None,
        help="previous BENCH_engine.json to compare against (no gate when omitted)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="tolerated fractional slowdown vs the baseline (default 0.20)",
    )
    parser.add_argument("--pool-size", type=int, default=None, help="candidate pool size")
    parser.add_argument("--repeats", type=int, default=None, help="timed repeats per workload")
    parser.add_argument(
        "--backends",
        default=None,
        help="comma-separated backend names (default: numpy,model_axis)",
    )
    parser.add_argument(
        "--dtypes", default="float64,float32", help="comma-separated compute dtypes"
    )
    parser.add_argument(
        "--workloads",
        default=None,
        help=f"comma-separated subset of {','.join(WORKLOAD_NAMES)}",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    pool_size = args.pool_size or (QUICK_POOL_SIZE if args.quick else DEFAULT_POOL_SIZE)
    repeats = args.repeats or (2 if args.quick else 3)
    backends = args.backends.split(",") if args.backends else default_backends()
    dtypes = [d for d in args.dtypes.split(",") if d]
    workloads = args.workloads.split(",") if args.workloads else None

    host = host_info()
    print(f"host: {host['cores']} cores, numpy {host['numpy']}, python {host['python']}")
    print(f"pool: {pool_size} images; backends: {backends}; dtypes: {dtypes}")

    results = run_benchmark_matrix(
        pool_size=pool_size,
        backends=backends,
        dtypes=dtypes,
        repeats=repeats,
        workloads=workloads,
    )
    for r in results:
        print(
            f"  {r.name:<10} [{r.backend}/{r.dtype}] "
            f"{r.wall_s * 1e3:9.1f} ms  {r.throughput:10.0f} samples/s"
            + (f"  hit_rate={r.cache_hit_rate:.2f}" if r.cache_hit_rate else "")
        )
    fused = model_axis_speedup(results)
    if fused is not None:
        print(f"model-axis fused speedup vs per-copy loop (float64): {fused:.2f}x")
    sharded = campaign_shards_speedup(results)
    if sharded is not None:
        print(f"campaign shards speedup vs serial (float64): {sharded:.2f}x")
    served = serve_coalesce_speedup(results)
    if served is not None:
        print(f"serve coalescer speedup vs uncoalesced (float64): {served:.2f}x")

    report = write_report(
        results, args.output, meta={"quick": bool(args.quick), "pool_size": pool_size}
    )
    print(f"wrote {args.output} ({len(results)} results)")

    if args.baseline is None:
        return 0
    baseline = load_report(args.baseline)
    regressions = compare_reports(report, baseline, threshold=args.threshold)
    if not regressions:
        print(f"regression gate OK (threshold {args.threshold * 100:.0f}%)")
        return 0
    for reg in regressions:
        print(f"REGRESSION: {reg.describe()}", file=sys.stderr)
    if not hosts_comparable(report["host"], baseline.get("host", {})):
        print(
            f"{len(regressions)} regression(s) demoted to warnings: the "
            f"baseline was recorded on a different host "
            f"({baseline.get('host')}) — wall-clock is not comparable. "
            f"Re-record the baseline on this runner to arm the gate.",
            file=sys.stderr,
        )
        return 0
    if regression_gate_skipped():
        print(
            f"{len(regressions)} regression(s) ignored ({ENV_SKIP_REGRESSION} is set)",
            file=sys.stderr,
        )
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
