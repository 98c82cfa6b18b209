"""Benchmark-harness subsystem: measured, recorded, regression-gated speed.

``repro.bench`` turns the engine's performance from folklore into data:

* :mod:`repro.bench.harness` — the single timing/reporting codepath
  (warmed best-of-N timing, the versioned ``BENCH_engine.json`` schema,
  regression comparison against a previous report);
* :mod:`repro.bench.workloads` — the forward/gradient/mask/coverage/
  detection workload matrix across backends and compute dtypes;
* ``python -m repro.bench`` — the CLI that runs the matrix, writes the
  report and (given ``--baseline``) fails on a >threshold slowdown.

CI runs ``python -m repro.bench --quick`` as the ``bench-smoke`` job,
uploads ``BENCH_engine.json`` as an artifact, and gates against
``benchmarks/BENCH_baseline.json``; set ``BENCH_SKIP_REGRESSION=1`` to
demote the gate to warnings on noisy runners.
"""

from repro.bench.harness import (
    DEFAULT_REGRESSION_THRESHOLD,
    ENV_SKIP_REGRESSION,
    SCHEMA_VERSION,
    BenchmarkResult,
    Regression,
    best_of,
    compare_reports,
    host_info,
    hosts_comparable,
    load_report,
    measure,
    peak_rss_bytes,
    regression_gate_skipped,
    report_results,
    write_report,
)
from repro.bench.workloads import (
    CAMPAIGN_SHARDS,
    DEFAULT_POOL_SIZE,
    MODEL_AXIS_COPIES,
    QUICK_POOL_SIZE,
    WORKLOAD_NAMES,
    build_model,
    build_pool,
    campaign_shards_speedup,
    default_backends,
    model_axis_speedup,
    run_benchmark_matrix,
    run_workloads,
    serve_coalesce_speedup,
)

__all__ = [
    # harness
    "SCHEMA_VERSION",
    "ENV_SKIP_REGRESSION",
    "DEFAULT_REGRESSION_THRESHOLD",
    "BenchmarkResult",
    "Regression",
    "best_of",
    "compare_reports",
    "host_info",
    "hosts_comparable",
    "load_report",
    "measure",
    "peak_rss_bytes",
    "regression_gate_skipped",
    "report_results",
    "write_report",
    # workloads
    "CAMPAIGN_SHARDS",
    "DEFAULT_POOL_SIZE",
    "MODEL_AXIS_COPIES",
    "QUICK_POOL_SIZE",
    "WORKLOAD_NAMES",
    "build_model",
    "build_pool",
    "campaign_shards_speedup",
    "default_backends",
    "model_axis_speedup",
    "run_benchmark_matrix",
    "run_workloads",
    "serve_coalesce_speedup",
]
