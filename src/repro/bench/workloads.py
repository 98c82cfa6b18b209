"""The engine benchmark workloads, per backend × dtype.

The workloads cover the library's hot paths end to end:

=================  ========================================================
``forward``        inference logits over the pool (vendor replay, detection)
``gradients``      per-sample output-gradient matrix (the mask primitive)
``masks``          boolean activation-mask matrix (Algorithm 1's candidates)
``coverage``       mean validation coverage (the Fig. 2 quantity)
``packing``        packed activation-mask matrix (streaming pack; records
                   packed vs dense mask bytes)
``selection``      packed greedy selection (Algorithm 1's inner loop) over a
                   pool 4× the matrix pool — the packed masks of the larger
                   pool still fit in less memory than the dense masks of the
                   small one (records both byte counts)
``detection``      stacked replay of a test batch against perturbed model
                   copies (the Tables II/III inner loop)
``model_axis``     one ``stacked_forward`` dispatch over a set of perturbed
                   copies — fused along the model axis on backends that
                   advertise the capacity, a per-copy loop elsewhere (the
                   fused-vs-loop ratio is the model-axis speedup)
``mmap_selection`` packed greedy selection over a disk-spilled
                   (memory-mapped) mask store whose in-RAM window is capped
                   at half the packed matrix bytes
``revisit``        memoized re-query of the coverage workload (greedy-loop
                   access pattern; measures the cache, not the compute)
``campaign``       a micro campaign (train, package, paired trials, store)
                   end to end through ``repro.campaign`` — float64 only,
                   each repeat runs into a fresh store so nothing is skipped
``campaign_shards`` the same campaign shape widened to four attack units and
                   executed by the distributed runner at
                   :data:`CAMPAIGN_SHARDS` worker shards (numpy × float64
                   cell only: the shard workers are what is measured);
                   a one-shot serial reference wall rides along in
                   ``extra["serial_wall_s"]`` for the speedup gate
``serve_coalesce`` :data:`SERVE_CONCURRENT` concurrent same-digest validates
                   through :class:`repro.serve.ValidationService`'s batching
                   coalescer (numpy × float64 cell only: the coalescer's
                   stacked dedup is what is measured); a one-shot uncoalesced
                   reference wall rides along in
                   ``extra["uncoalesced_wall_s"]`` for the speedup gate
=================  ========================================================

Each runs on every requested backend (``numpy`` and ``model_axis`` by
default) and dtype (float64, float32), producing the matrix that
``BENCH_engine.json`` records and the CI regression gate consumes.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.bench.harness import BenchmarkResult, measure
from repro.engine import Engine
from repro.nn.model import Sequential
from repro.registry import registry
from repro.utils.logging import get_logger
from repro.validation.user import compare_outputs

logger = get_logger("bench.workloads")

#: pool size of the full benchmark (the 100-image workload of the
#: acceptance criteria); ``--quick`` shrinks it
DEFAULT_POOL_SIZE = 100
QUICK_POOL_SIZE = 24

#: perturbed model copies replayed by the detection workload
DETECTION_TRIALS = 5

#: perturbed model copies fused by the model_axis workload (the acceptance
#: speedup is measured at this many copies)
MODEL_AXIS_COPIES = 8

#: pool multiplier of the selection workload: packed masks of a pool this
#: many times larger still occupy fewer bytes than the dense masks of the
#: base pool (packed is 1/8 dense, so 4x pool -> 1/2 the bytes)
SELECTION_POOL_MULTIPLIER = 4

#: tests selected greedily by the selection workload
SELECTION_BUDGET = 10

WORKLOAD_NAMES = (
    "forward",
    "gradients",
    "masks",
    "coverage",
    "packing",
    "selection",
    "mmap_selection",
    "detection",
    "model_axis",
    "revisit",
    "campaign",
    "campaign_shards",
    "serve_coalesce",
)

#: worker shards of the ``campaign_shards`` workload (the acceptance
#: speedup is gated at this shard count on a host with at least as many
#: cores)
CAMPAIGN_SHARDS = 4

#: the micro campaign spec timed by the ``campaign`` workload: one model,
#: one attack, one strategy, sized so a full train→package→trials→store
#: pass stays in smoke-test territory
CAMPAIGN_WORKLOAD_SPEC = dict(
    name="bench-campaign",
    attacks=("sba",),
    models=("mnist",),
    criteria=("default",),
    strategies=("random",),
    budgets=(2,),
    trials=2,
    train_size=24,
    test_size=12,
    epochs=1,
    width_multiplier=0.08,
    candidate_pool=12,
    gradient_updates=3,
    reference_inputs=6,
)

#: concurrent same-digest validates of the ``serve_coalesce`` workload (the
#: acceptance speedup is gated at this fan-in by ``bench_serve.py``)
SERVE_CONCURRENT = 8

#: the micro release replayed by the ``serve_coalesce`` workload: the
#: ``random`` strategy keeps the (untimed) vendor setup cheap — only the
#: validate path is measured
SERVE_WORKLOAD_SPEC = dict(
    dataset="mnist",
    num_tests=32,
    strategy="random",
    criterion="default",
    train_size=24,
    test_size=12,
    epochs=1,
    width_multiplier=0.25,
    candidate_pool=32,
    seed=0,
)

#: the ``campaign_shards`` spec: the micro campaign widened along the attack
#: axis so the distributed runner has one work unit per shard, with trials
#: heavy enough that the paired-replay stage (the parallelisable part)
#: dominates the duplicated per-worker training
CAMPAIGN_SHARDS_SPEC = dict(
    CAMPAIGN_WORKLOAD_SPEC,
    name="bench-campaign-shards",
    attacks=("sba", "gda", "random", "bitflip"),
    trials=16,
)


def default_backends() -> List[str]:
    """The backends the matrix times: every shipped in-process backend."""
    return ["numpy", "model_axis"]


def build_model(width: float = 0.125, input_size: int = 28, rng: int = 0) -> Sequential:
    """The width-scaled Table-I MNIST model every workload runs on."""
    return registry.create(  # type: ignore[return-value]
        "models", "mnist", width_multiplier=width, input_size=input_size, rng=rng
    )


def build_pool(model: Sequential, pool_size: int, rng: int = 1) -> np.ndarray:
    """A deterministic digit pool matching the model's input size."""
    dataset = registry.create(
        "datasets", "digits", pool_size, rng=rng, size=model.input_shape[-1]
    )
    return dataset.images  # type: ignore[union-attr]


def _perturbed_copies(model: Sequential, trials: int) -> List[Sequential]:
    """Deterministic single-bias-perturbed copies for the stacked workloads.

    Each copy receives a large fault on one output-head bias, a distinct
    index per copy — the single-bias attack's most effective placement, and
    the model-axis backend's design point: every layer before the head is
    bitwise shared with the victim, so the fused dispatch re-runs only the
    classifier head per copy.
    """
    from repro.attacks.base import bias_flat_indices

    biases = bias_flat_indices(model)
    copies = []
    for trial in range(trials):
        copy = model.copy()
        copy.parameter_view().add_scalar(int(biases[-1 - trial]), 10.0)
        copies.append(copy)
    return copies


def run_workloads(
    model: Sequential,
    images: np.ndarray,
    backend_name: str,
    dtype: str,
    repeats: int = 3,
    workloads: Optional[Iterable[str]] = None,
) -> List[BenchmarkResult]:
    """Measure the requested workloads on one backend × dtype configuration.

    A fresh backend instance is built (and closed) per call; one-off set-up
    cost is excluded from the timings by the warm-up call inside
    :func:`~repro.bench.harness.measure`.
    """
    selected = tuple(workloads) if workloads is not None else WORKLOAD_NAMES
    unknown = set(selected) - set(WORKLOAD_NAMES)
    if unknown:
        raise ValueError(f"unknown workloads {sorted(unknown)}; choose from {WORKLOAD_NAMES}")

    backend = registry.create("backends", backend_name)
    n = images.shape[0]
    results: List[BenchmarkResult] = []
    try:
        # uncached engine: times the compute, not the memo cache
        engine = Engine(model, backend=backend, dtype=dtype, cache=False)
        runners = {
            "forward": lambda: engine.forward(images),
            "gradients": lambda: engine.output_gradients(images),
            "masks": lambda: engine.activation_masks(images),
            "coverage": lambda: engine.mean_validation_coverage(images),
        }
        for name in selected:
            if name not in runners:
                continue
            value_of = (lambda r: r) if name == "coverage" else None
            results.append(
                measure(
                    name,
                    runners[name],
                    samples=n,
                    backend=backend_name,
                    dtype=dtype,
                    repeats=repeats,
                    value_of=value_of,
                )
            )
            logger.debug("measured %s on %s/%s", name, backend_name, dtype)

        if "packing" in selected:
            # one warm call to size the result; measure() re-warms for timing
            packed = engine.packed_activation_masks(images)
            results.append(
                measure(
                    "packing",
                    lambda: engine.packed_activation_masks(images),
                    samples=n,
                    backend=backend_name,
                    dtype=dtype,
                    repeats=repeats,
                    packed_mask_bytes=int(packed.nbytes),
                    dense_mask_bytes=int(packed.dense_nbytes),
                    packed_to_dense_ratio=(
                        packed.nbytes / packed.dense_nbytes
                        if packed.dense_nbytes
                        else 0.0
                    ),
                )
            )

        if "selection" in selected:
            from repro.coverage.bitmap import CoverageMap

            # a pool SELECTION_POOL_MULTIPLIER× larger than the matrix pool:
            # its packed masks still take fewer bytes than the base pool's
            # dense masks would (the acceptance bar of the packed refactor)
            sel_pool = build_pool(model, n * SELECTION_POOL_MULTIPLIER, rng=2)
            sel_packed = engine.packed_activation_masks(sel_pool)
            budget = min(SELECTION_BUDGET, len(sel_packed))

            def selection() -> float:
                covered = CoverageMap(sel_packed.nbits)
                available = np.ones(len(sel_packed), dtype=bool)
                for _ in range(budget):
                    best, _count = sel_packed.best_candidate(covered, available)
                    covered.union_(sel_packed.row(best))
                    available[best] = False
                return covered.fraction

            results.append(
                measure(
                    "selection",
                    selection,
                    samples=len(sel_packed),
                    backend=backend_name,
                    dtype=dtype,
                    repeats=repeats,
                    value_of=lambda r: r,
                    pool_size=len(sel_packed),
                    pool_multiplier=SELECTION_POOL_MULTIPLIER,
                    budget=budget,
                    packed_mask_bytes=int(sel_packed.nbytes),
                    dense_mask_bytes=int(sel_packed.dense_nbytes),
                    base_pool_dense_mask_bytes=n * model.num_parameters(),
                )
            )

        if "mmap_selection" in selected:
            import tempfile

            from repro.coverage.bitmap import CoverageMap, MmapMaskMatrix

            mmap_pool = build_pool(model, n * SELECTION_POOL_MULTIPLIER, rng=2)
            with tempfile.TemporaryDirectory() as tmp:
                spilled = engine.packed_activation_masks(mmap_pool, spill_dir=tmp)
                # re-open with the in-RAM window capped at half the packed
                # matrix: greedy selection must stream, not materialise
                window_budget = max(1, int(spilled.nbytes) // 2)
                windowed = MmapMaskMatrix.open(
                    spilled.path, memory_budget_bytes=window_budget
                )
                budget = min(SELECTION_BUDGET, len(windowed))

                def mmap_selection() -> float:
                    covered = CoverageMap(windowed.nbits)
                    available = np.ones(len(windowed), dtype=bool)
                    for _ in range(budget):
                        best, _count = windowed.best_candidate(covered, available)
                        covered.union_(windowed.row(best))
                        available[best] = False
                    return covered.fraction

                results.append(
                    measure(
                        "mmap_selection",
                        mmap_selection,
                        samples=len(windowed),
                        backend=backend_name,
                        dtype=dtype,
                        repeats=repeats,
                        value_of=lambda r: r,
                        pool_size=len(windowed),
                        pool_multiplier=SELECTION_POOL_MULTIPLIER,
                        budget=budget,
                        packed_mask_bytes=int(spilled.nbytes),
                        window_budget_bytes=window_budget,
                    )
                )

        if "detection" in selected:
            copies = _perturbed_copies(model, DETECTION_TRIALS)
            expected = engine.forward(images)

            def detection() -> float:
                detections = 0
                for copy in copies:
                    trial_engine = Engine(copy, backend=backend, dtype=dtype, cache=False)
                    observed = trial_engine.forward(images)
                    if compare_outputs(observed, expected, 1e-6)[1].any():
                        detections += 1
                return detections / len(copies)

            results.append(
                measure(
                    "detection",
                    detection,
                    samples=n * DETECTION_TRIALS,
                    backend=backend_name,
                    dtype=dtype,
                    repeats=repeats,
                    value_of=lambda r: r,
                )
            )

        if "model_axis" in selected:
            stacked_copies = _perturbed_copies(model, MODEL_AXIS_COPIES)

            def model_axis() -> float:
                observed = engine.stacked_forward(stacked_copies, images)
                return float(np.abs(observed).mean())

            results.append(
                measure(
                    "model_axis",
                    model_axis,
                    samples=n * MODEL_AXIS_COPIES,
                    backend=backend_name,
                    dtype=dtype,
                    repeats=repeats,
                    value_of=lambda r: r,
                    copies=MODEL_AXIS_COPIES,
                    fused=bool(backend.model_axis_capacity),
                )
            )

        if "revisit" in selected:
            cached_engine = Engine(model, backend=backend, dtype=dtype)
            cached_engine.mean_validation_coverage(images)  # warm the memo

            def revisit() -> float:
                return cached_engine.mean_validation_coverage(images)

            result = measure(
                "revisit",
                revisit,
                samples=n,
                backend=backend_name,
                dtype=dtype,
                repeats=repeats,
                value_of=lambda r: r,
            )
            result.cache_hit_rate = cached_engine.stats.hit_rate
            results.append(result)

        if "campaign" in selected and dtype == "float64":
            # float64 only: the campaign's user-side replay compares logits
            # at the package atol, which float32 compute would trip benignly
            import itertools
            import tempfile
            from pathlib import Path

            from repro.campaign import CampaignSpec, run_campaign

            spec = CampaignSpec(**CAMPAIGN_WORKLOAD_SPEC)  # type: ignore[arg-type]
            num_scenarios = len(spec.expand())
            with tempfile.TemporaryDirectory() as tmp:
                counter = itertools.count()

                def campaign() -> float:
                    # a fresh store per repeat — resuming would skip the work
                    store_path = Path(tmp) / f"store-{next(counter)}.jsonl"
                    summary = run_campaign(spec, str(store_path), backend=backend)
                    return summary.executed / num_scenarios

                results.append(
                    measure(
                        "campaign",
                        campaign,
                        samples=num_scenarios,
                        backend=backend_name,
                        dtype=dtype,
                        repeats=repeats,
                        value_of=lambda r: r,
                        scenarios=num_scenarios,
                    )
                )

        if (
            "campaign_shards" in selected
            and dtype == "float64"
            and backend_name == "numpy"
        ):
            # numpy × float64 cell only: the shard *workers* are what is
            # measured, so one backend cell suffices
            import itertools
            import tempfile
            from pathlib import Path

            from repro.campaign import CampaignSpec, run_campaign

            spec = CampaignSpec(**CAMPAIGN_SHARDS_SPEC)  # type: ignore[arg-type]
            num_scenarios = len(spec.expand())
            with tempfile.TemporaryDirectory() as tmp:
                counter = itertools.count()
                # one serial reference run: the speedup denominator the
                # bench gate divides by (not repeated — the gate tolerates
                # reference noise, the regression gate tracks the shards leg)
                serial_start = time.perf_counter()
                run_campaign(spec, str(Path(tmp) / "serial.jsonl"), backend="numpy")
                serial_wall_s = time.perf_counter() - serial_start

                def campaign_shards() -> float:
                    # fresh store per repeat — resuming would skip the work
                    store_path = Path(tmp) / f"shards-{next(counter)}.jsonl"
                    summary = run_campaign(
                        spec,
                        str(store_path),
                        backend="numpy",
                        shards=CAMPAIGN_SHARDS,
                    )
                    return summary.executed / num_scenarios

                results.append(
                    measure(
                        "campaign_shards",
                        campaign_shards,
                        samples=num_scenarios,
                        backend=backend_name,
                        dtype=dtype,
                        repeats=repeats,
                        value_of=lambda r: r,
                        scenarios=num_scenarios,
                        shards=CAMPAIGN_SHARDS,
                        serial_wall_s=serial_wall_s,
                    )
                )
        if (
            "serve_coalesce" in selected
            and dtype == "float64"
            and backend_name == "numpy"
        ):
            # numpy × float64 cell only: the coalescer's stacked dedup — not
            # the matrix backend — is what is measured, and float64 is the
            # package-replay dtype
            import asyncio

            from repro.api import ReleaseRequest, RunConfig, Session, ValidateRequest
            from repro.serve import SERVE_BATCH_SIZE, ServeConfig, ValidationService

            with Session(RunConfig(batch_size=SERVE_BATCH_SIZE)) as vendor:
                released = vendor.release(ReleaseRequest(**SERVE_WORKLOAD_SPEC))

            def serve_service(coalesce: bool) -> ValidationService:
                return ValidationService(
                    ServeConfig(
                        coalesce=coalesce,
                        coalesce_window_s=0.002,
                        max_stacked_models=SERVE_CONCURRENT,
                        request_timeout_s=None,
                    )
                )

            async def drive(service: ValidationService) -> float:
                outcomes = await asyncio.gather(
                    *(
                        service.validate(
                            ValidateRequest(package=released.package),
                            ip=released.model,
                        )
                        for _ in range(SERVE_CONCURRENT)
                    )
                )
                return sum(o.passed for o in outcomes) / len(outcomes)

            # one uncoalesced reference (best of two — the second run has the
            # engine warm, mirroring the measured leg's warm-up): the speedup
            # denominator the bench gate divides by
            uncoalesced = serve_service(False)
            try:
                walls = []
                for _ in range(2):
                    start = time.perf_counter()
                    asyncio.run(drive(uncoalesced))
                    walls.append(time.perf_counter() - start)
                uncoalesced_wall_s = min(walls)
            finally:
                uncoalesced.close()

            coalesced = serve_service(True)
            try:
                result = measure(
                    "serve_coalesce",
                    lambda: asyncio.run(drive(coalesced)),
                    samples=SERVE_CONCURRENT * len(released.package.tests),
                    backend=backend_name,
                    dtype=dtype,
                    repeats=repeats,
                    value_of=lambda r: r,
                    concurrent=SERVE_CONCURRENT,
                    uncoalesced_wall_s=uncoalesced_wall_s,
                )
                stats = coalesced.coalescer.stats
                result.extra["dispatches"] = stats.dispatches
                result.extra["deduped"] = stats.deduped
                result.extra["coalesce_hit_rate"] = round(stats.hit_rate, 4)
                results.append(result)
            finally:
                coalesced.close()
    finally:
        backend.close()
    return results


def run_benchmark_matrix(
    pool_size: int = DEFAULT_POOL_SIZE,
    backends: Optional[Sequence[str]] = None,
    dtypes: Sequence[str] = ("float64", "float32"),
    repeats: int = 3,
    workloads: Optional[Iterable[str]] = None,
    width: float = 0.125,
    input_size: int = 28,
) -> List[BenchmarkResult]:
    """Run the full backend × dtype benchmark matrix on one shared model/pool."""
    model = build_model(width=width, input_size=input_size)
    images = build_pool(model, pool_size)
    if backends is None:
        backends = default_backends()
    results: List[BenchmarkResult] = []
    for backend_name in backends:
        for dtype in dtypes:
            logger.info("benchmarking backend=%s dtype=%s", backend_name, dtype)
            results.extend(
                run_workloads(
                    model,
                    images,
                    backend_name,
                    dtype,
                    repeats=repeats,
                    workloads=workloads,
                )
            )
    return results


def campaign_shards_speedup(results: Sequence[BenchmarkResult]) -> Optional[float]:
    """Serial-vs-sharded wall ratio of the ``campaign_shards`` workload.

    The serial reference wall is recorded in the result's
    ``extra["serial_wall_s"]`` (same spec, same process, shards=1);
    ``None`` when the workload is absent from ``results``.
    """
    by_key = {r.key: r for r in results}
    sharded = by_key.get(("campaign_shards", "numpy", "float64"))
    if sharded is None or sharded.wall_s <= 0:
        return None
    serial_wall = sharded.extra.get("serial_wall_s")
    if serial_wall is None:
        return None
    return float(serial_wall) / sharded.wall_s


def serve_coalesce_speedup(results: Sequence[BenchmarkResult]) -> Optional[float]:
    """Uncoalesced-vs-coalesced wall ratio of the ``serve_coalesce`` workload.

    The uncoalesced reference wall is recorded in the result's
    ``extra["uncoalesced_wall_s"]`` (same release, same fan-in, coalescing
    off); ``None`` when the workload is absent from ``results``.
    """
    by_key = {r.key: r for r in results}
    coalesced = by_key.get(("serve_coalesce", "numpy", "float64"))
    if coalesced is None or coalesced.wall_s <= 0:
        return None
    uncoalesced_wall = coalesced.extra.get("uncoalesced_wall_s")
    if uncoalesced_wall is None:
        return None
    return float(uncoalesced_wall) / coalesced.wall_s


def model_axis_speedup(results: Sequence[BenchmarkResult]) -> Optional[float]:
    """Fused-vs-loop ratio of the ``model_axis`` workload (float64 only).

    Compares the workload on the ``model_axis`` backend (one fused dispatch
    for all :data:`MODEL_AXIS_COPIES` copies) against ``numpy`` (the
    bit-identical per-copy fallback loop); ``None`` when either leg is
    missing from ``results``.
    """
    by_key = {r.key: r for r in results}
    base = by_key.get(("model_axis", "numpy", "float64"))
    fused = by_key.get(("model_axis", "model_axis", "float64"))
    if base is None or fused is None or fused.wall_s <= 0:
        return None
    return base.wall_s / fused.wall_s


__all__ = [
    "CAMPAIGN_SHARDS",
    "DEFAULT_POOL_SIZE",
    "QUICK_POOL_SIZE",
    "DETECTION_TRIALS",
    "MODEL_AXIS_COPIES",
    "SELECTION_BUDGET",
    "SELECTION_POOL_MULTIPLIER",
    "SERVE_CONCURRENT",
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
