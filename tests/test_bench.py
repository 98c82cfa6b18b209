"""repro.bench harness: timing, report schema, regression gate, CLI.

Functional tests only — no assertions on absolute wall-clock (the suite runs
on arbitrary machines).  The regression logic is exercised with synthetic
reports so the gate's semantics are pinned independently of timer noise.
"""

import json

import numpy as np
import pytest

from repro.bench import (
    DEFAULT_REGRESSION_THRESHOLD,
    ENV_SKIP_REGRESSION,
    SCHEMA_VERSION,
    BenchmarkResult,
    best_of,
    compare_reports,
    load_report,
    measure,
    peak_rss_bytes,
    report_results,
    run_workloads,
    write_report,
)
from repro.bench.__main__ import main as bench_main
from repro.bench.workloads import WORKLOAD_NAMES
from repro.models.zoo import small_cnn


def _result(name="forward", backend="numpy", dtype="float64", wall_s=0.1, samples=10):
    return BenchmarkResult(
        name=name,
        backend=backend,
        dtype=dtype,
        wall_s=wall_s,
        samples=samples,
        repeats=1,
        throughput=samples / wall_s,
        cache_hit_rate=0.0,
        peak_rss_bytes=0,
    )


class TestHarness:
    def test_best_of_returns_value_and_time(self):
        calls = []

        def fn():
            calls.append(1)
            return 42

        wall, value = best_of(fn, repeats=3, warmup=2)
        assert value == 42
        assert wall >= 0.0
        assert len(calls) == 5  # warmups + repeats
        with pytest.raises(ValueError):
            best_of(fn, repeats=0)

    def test_measure_packages_result(self):
        result = measure("w", lambda: 0.5, samples=20, repeats=2, dtype="float32")
        assert result.key == ("w", "numpy", "float32")
        assert result.value == 0.5  # scalar results are captured automatically
        assert result.samples == 20 and result.repeats == 2
        assert result.throughput > 0
        assert result.peak_rss_bytes > 0

    def test_peak_rss_is_plausible(self):
        assert peak_rss_bytes() > 10 * 1024 * 1024  # a python process is >10MB

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        written = write_report([_result(), _result(name="masks")], path, meta={"k": 1})
        loaded = load_report(path)
        assert loaded["schema"] == SCHEMA_VERSION == written["schema"]
        assert loaded["meta"] == {"k": 1}
        assert loaded["host"]["cores"] >= 1
        results = report_results(loaded)
        assert [r.name for r in results] == ["forward", "masks"]
        assert results[0].wall_s == pytest.approx(0.1)

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "results": []}))
        with pytest.raises(ValueError):
            load_report(path)
        path.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        with pytest.raises(ValueError):
            load_report(path)


class TestRegressionGate:
    def _reports(self, baseline_s, current_s, samples=(10, 10)):
        base = {"schema": SCHEMA_VERSION, "results": [_result(wall_s=baseline_s, samples=samples[0]).to_dict()]}
        cur = {"schema": SCHEMA_VERSION, "results": [_result(wall_s=current_s, samples=samples[1]).to_dict()]}
        return cur, base

    def test_slowdown_beyond_threshold_is_flagged(self):
        cur, base = self._reports(0.100, 0.125)
        regs = compare_reports(cur, base, threshold=0.2)
        assert len(regs) == 1
        assert regs[0].slowdown == pytest.approx(0.25)
        assert "forward" in regs[0].describe()

    def test_slowdown_within_threshold_passes(self):
        cur, base = self._reports(0.100, 0.115)
        assert compare_reports(cur, base, threshold=0.2) == []

    def test_speedups_never_flag(self):
        cur, base = self._reports(0.100, 0.010)
        assert compare_reports(cur, base, threshold=0.0) == []

    def test_unmatched_configurations_are_ignored(self):
        cur = {"schema": SCHEMA_VERSION, "results": [_result(backend="model_axis", wall_s=9.9).to_dict()]}
        base = {"schema": SCHEMA_VERSION, "results": [_result(backend="numpy", wall_s=0.1).to_dict()]}
        assert compare_reports(cur, base) == []

    def test_mismatched_pool_sizes_are_ignored(self):
        """A quick run must never be gated against a full-pool baseline."""
        cur, base = self._reports(0.100, 9.900, samples=(100, 24))
        assert compare_reports(cur, base) == []

    def test_threshold_validation(self):
        cur, base = self._reports(0.1, 0.1)
        with pytest.raises(ValueError):
            compare_reports(cur, base, threshold=-0.1)
        assert DEFAULT_REGRESSION_THRESHOLD == pytest.approx(0.20)


class TestWorkloads:
    @pytest.fixture(scope="class")
    def tiny_run(self):
        """One real (tiny) workload run shared by the assertions below."""
        model = small_cnn(rng=0)
        images = np.random.default_rng(1).random((6, *model.input_shape))
        return run_workloads(model, images, "numpy", "float64", repeats=1)

    def test_all_workloads_measured(self, tiny_run):
        assert [r.name for r in tiny_run] == list(WORKLOAD_NAMES)

    def test_coverage_value_recorded_for_equivalence(self, tiny_run):
        by_name = {r.name: r for r in tiny_run}
        assert 0.0 < by_name["coverage"].value <= 1.0
        # the memoized revisit recomputes the same quantity
        assert by_name["revisit"].value == pytest.approx(by_name["coverage"].value)
        assert by_name["revisit"].cache_hit_rate > 0.0

    def test_packing_workload_reports_memory_ratio(self, tiny_run):
        by_name = {r.name: r for r in tiny_run}
        extra = by_name["packing"].extra
        assert extra["packed_mask_bytes"] > 0
        # packed ≤ 1/8 dense up to word-granularity padding
        assert extra["packed_mask_bytes"] < extra["dense_mask_bytes"] / 7.5
        assert extra["packed_to_dense_ratio"] == pytest.approx(
            extra["packed_mask_bytes"] / extra["dense_mask_bytes"]
        )

    def test_selection_workload_fits_larger_pool_in_dense_budget(self, tiny_run):
        """The packed-coverage acceptance bar: the selection workload's pool
        is 4× the matrix pool, yet its packed masks occupy less memory than
        the base pool's dense masks."""
        by_name = {r.name: r for r in tiny_run}
        extra = by_name["selection"].extra
        assert extra["pool_multiplier"] >= 4
        assert extra["pool_size"] == 4 * by_name["masks"].samples
        assert extra["packed_mask_bytes"] <= extra["base_pool_dense_mask_bytes"]
        assert 0.0 < by_name["selection"].value <= 1.0

    def test_unknown_workload_rejected(self):
        model = small_cnn(rng=2)
        images = np.random.default_rng(3).random((4, *model.input_shape))
        with pytest.raises(ValueError):
            run_workloads(model, images, "numpy", "float64", workloads=["warp-drive"])


class TestCli:
    def test_quick_run_writes_report_and_gates(self, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_engine.json"
        code = bench_main(
            [
                "--quick",
                "--output",
                str(out),
                "--pool-size",
                "6",
                "--repeats",
                "1",
                "--backends",
                "numpy",
                "--dtypes",
                "float64",
                "--workloads",
                "forward,coverage",
            ]
        )
        assert code == 0
        report = load_report(out)
        assert {r.name for r in report_results(report)} == {"forward", "coverage"}

        # same report as its own baseline -> gate passes
        code = bench_main(
            [
                "--quick",
                "--output",
                str(tmp_path / "second.json"),
                "--pool-size",
                "6",
                "--repeats",
                "1",
                "--backends",
                "numpy",
                "--dtypes",
                "float64",
                "--workloads",
                "forward",
                "--baseline",
                str(out),
                "--threshold",
                "1000",  # immune to machine noise
            ]
        )
        assert code == 0

    def test_gate_failure_and_env_skip(self, tmp_path, monkeypatch):
        from repro.bench import host_info

        # a baseline claiming everything ran in 1ns forces a "regression";
        # it must carry this host's fingerprint or the gate self-demotes
        current = tmp_path / "cur.json"
        impossible = {
            "schema": SCHEMA_VERSION,
            "host": host_info(),
            "results": [_result(name="forward", wall_s=1e-9, samples=6).to_dict()],
        }
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(impossible))
        args = [
            "--output",
            str(current),
            "--pool-size",
            "6",
            "--repeats",
            "1",
            "--backends",
            "numpy",
            "--dtypes",
            "float64",
            "--workloads",
            "forward",
            "--baseline",
            str(baseline),
        ]
        monkeypatch.delenv(ENV_SKIP_REGRESSION, raising=False)
        assert bench_main(args) == 1
        monkeypatch.setenv(ENV_SKIP_REGRESSION, "1")
        assert bench_main(args) == 0

    def test_gate_demotes_on_foreign_host_baseline(self, tmp_path, monkeypatch):
        """A baseline from a different machine can warn but never fail."""
        from repro.bench import hosts_comparable

        foreign = {
            "schema": SCHEMA_VERSION,
            "host": {"cores": 512, "machine": "riscv128", "platform": "plan9", "python": "4.0"},
            "results": [_result(name="forward", wall_s=1e-9, samples=6).to_dict()],
        }
        baseline = tmp_path / "foreign.json"
        baseline.write_text(json.dumps(foreign))
        monkeypatch.delenv(ENV_SKIP_REGRESSION, raising=False)
        code = bench_main(
            [
                "--output",
                str(tmp_path / "cur.json"),
                "--pool-size",
                "6",
                "--repeats",
                "1",
                "--backends",
                "numpy",
                "--dtypes",
                "float64",
                "--workloads",
                "forward",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 0
        assert not hosts_comparable({"cores": 1}, {"cores": 2})
