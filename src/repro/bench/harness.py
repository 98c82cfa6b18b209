"""Benchmark harness: timing, reporting and regression gating.

The measure-then-fix loop of the engine work needs every speedup to be a
*recorded, comparable number* rather than a one-off console line.  This
module is the single timing/assertion codepath shared by the CLI
(``python -m repro.bench``), the CI ``bench-smoke`` job and the standalone
``benchmarks/bench_engine.py`` script:

* :func:`best_of` — warmed-up best-of-N wall-clock timing;
* :class:`BenchmarkResult` — one measured workload (name × backend × dtype)
  with wall-clock, throughput, cache hit rate and peak RSS;
* :func:`write_report` / :func:`load_report` — the ``BENCH_engine.json``
  schema, versioned and host-stamped;
* :func:`compare_reports` — regression detection against a previous report
  with a configurable threshold (only *slowdowns* beyond the threshold are
  regressions; speedups simply become the next baseline).

Wall-clock comparisons across different machines are meaningless, which is
why the regression gate is skippable via the ``BENCH_SKIP_REGRESSION``
environment variable on noisy or heterogeneous runners (mirroring
``BENCH_ENGINE_SKIP_SPEEDUP``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: bump when the BENCH_engine.json layout changes incompatibly
SCHEMA_VERSION = 1

#: set (to any non-empty value) to demote regression-gate failures to warnings
ENV_SKIP_REGRESSION = "BENCH_SKIP_REGRESSION"

#: default tolerated slowdown vs the baseline before a workload is flagged
DEFAULT_REGRESSION_THRESHOLD = 0.20

PathLike = Union[str, Path]


def best_of(fn: Callable[[], Any], repeats: int = 3, warmup: int = 1) -> Tuple[float, Any]:
    """Best wall-clock seconds over ``repeats`` timed calls of ``fn``.

    ``warmup`` untimed calls precede the measurements so allocator, index-
    cache and one-off startup effects do not pollute the numbers.
    Returns ``(best_seconds, last_value)``.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    value = None
    for _ in range(warmup):
        value = fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def peak_rss_bytes() -> int:
    """Peak resident set size of this process in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes so reports are comparable.  Note this is the process-lifetime
    high-water mark — monotone across a run, so a result's
    ``peak_rss_bytes`` means "the process had needed at most this much by
    the time this workload finished", not the workload's own footprint.
    Per-workload isolation would need one process per measurement.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux containers
        return int(peak)
    return int(peak) * 1024


@dataclass
class BenchmarkResult:
    """One measured workload on one backend × dtype configuration."""

    name: str
    backend: str
    dtype: str
    wall_s: float
    samples: int
    repeats: int
    throughput: float  # samples per second
    cache_hit_rate: float
    peak_rss_bytes: int  # process high-water mark at measurement time (monotone)
    value: Optional[float] = None  # workload-defined scalar for equivalence checks
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str, str]:
        """Identity of the configuration, used to match against a baseline."""
        return (self.name, self.backend, self.dtype)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchmarkResult":
        return cls(**data)


def measure(
    name: str,
    fn: Callable[[], Any],
    samples: int,
    backend: str = "numpy",
    dtype: str = "float64",
    repeats: int = 3,
    warmup: int = 1,
    cache_hit_rate: float = 0.0,
    value_of: Optional[Callable[[Any], float]] = None,
    **extra: Any,
) -> BenchmarkResult:
    """Time ``fn`` and package the measurement as a :class:`BenchmarkResult`."""
    wall_s, result = best_of(fn, repeats=repeats, warmup=warmup)
    value = None
    if value_of is not None:
        value = float(value_of(result))
    elif isinstance(result, (int, float, np.floating)):
        value = float(result)
    return BenchmarkResult(
        name=name,
        backend=backend,
        dtype=dtype,
        wall_s=wall_s,
        samples=int(samples),
        repeats=int(repeats),
        throughput=samples / wall_s if wall_s > 0 else float("inf"),
        cache_hit_rate=float(cache_hit_rate),
        peak_rss_bytes=peak_rss_bytes(),
        value=value,
        extra=dict(extra),
    )


def host_info() -> Dict[str, Any]:
    """Enough host context to judge whether two reports are comparable."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
        "cores": cores,
    }


def write_report(
    results: Sequence[BenchmarkResult],
    path: PathLike,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the versioned JSON report; returns the written document."""
    report = {
        "schema": SCHEMA_VERSION,
        "created_unix": time.time(),
        "host": host_info(),
        "meta": dict(meta or {}),
        "results": [r.to_dict() for r in results],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def load_report(path: PathLike) -> Dict[str, Any]:
    """Load and schema-check a report written by :func:`write_report`."""
    path = Path(path)
    report = json.loads(path.read_text())
    schema = report.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has schema {schema!r}; this build reads schema {SCHEMA_VERSION}"
        )
    if not isinstance(report.get("results"), list):
        raise ValueError(f"{path} has no results list")
    return report


def report_results(report: Dict[str, Any]) -> List[BenchmarkResult]:
    """The parsed results of a loaded report."""
    return [BenchmarkResult.from_dict(d) for d in report["results"]]


@dataclass
class Regression:
    """One workload that got slower than the baseline allows."""

    name: str
    backend: str
    dtype: str
    baseline_s: float
    current_s: float

    @property
    def slowdown(self) -> float:
        """Fractional slowdown, e.g. ``0.35`` = 35 % slower than baseline."""
        return self.current_s / self.baseline_s - 1.0

    def describe(self) -> str:
        return (
            f"{self.name} [{self.backend}/{self.dtype}]: "
            f"{self.baseline_s * 1e3:.1f} ms -> {self.current_s * 1e3:.1f} ms "
            f"(+{self.slowdown * 100:.0f}%)"
        )


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> List[Regression]:
    """Workloads of ``current`` slower than ``baseline`` by more than
    ``threshold``.

    Matching is by ``(name, backend, dtype)``; configurations present on only
    one side are ignored (adding a workload must not fail the gate, and
    runner core counts legitimately change which backends run).  Entries
    whose ``samples`` counts differ are also skipped — wall-clock over a
    24-image quick pool says nothing about a 100-image baseline.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    baseline_by_key = {r.key: r for r in report_results(baseline)}
    regressions: List[Regression] = []
    for result in report_results(current):
        base = baseline_by_key.get(result.key)
        if base is None or base.wall_s <= 0 or base.samples != result.samples:
            continue
        if result.wall_s > base.wall_s * (1.0 + threshold):
            regressions.append(
                Regression(
                    name=result.name,
                    backend=result.backend,
                    dtype=result.dtype,
                    baseline_s=base.wall_s,
                    current_s=result.wall_s,
                )
            )
    return regressions


def regression_gate_skipped() -> bool:
    """Whether the environment demotes regression failures to warnings."""
    return bool(os.environ.get(ENV_SKIP_REGRESSION))


def hosts_comparable(current: Dict[str, Any], baseline: Dict[str, Any]) -> bool:
    """Whether two reports' wall-clocks may be compared at all.

    Wall-clock on a different core count, architecture or interpreter says
    nothing about a code change, so the CLI demotes the gate to warnings
    when the host fingerprints differ — a hard failure there would only
    train people to export ``BENCH_SKIP_REGRESSION`` permanently.
    """
    keys = ("cores", "machine", "platform", "python")
    return all(current.get(k) == baseline.get(k) for k in keys)


__all__ = [
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
]
