"""One run of one benchmark workload, in the process that measures it.

``perfbench/run.py`` starts this file in a fresh process with the BLAS and
OpenMP pools pinned to one thread; run it directly only for debugging::

    PYTHONPATH=src python perfbench/workloads.py --workload release --seed 1 \\
        --seconds 20 --trace 0

The run is split into as many segments as the workload's ``setup_repeats``
entry in :data:`SIZES`.  Each segment sets up afresh (timed; ``setup_s`` is
the median over the segments), then measures ops for its share of
``--seconds`` and checks each op's outputs.  Warm-up ops, not measured, run
before the first segment's ops (on ``serve``, before every segment's
stream, since each segment starts a fresh service).
Spreading the set-ups over the whole run, rather than running them back to
back before it, keeps one slow stretch of the host from landing on all of
them.  Earlier stdout lines carry a ``{"meta": ...}`` record (sample counts,
host probe, per-op digests); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
metrics are the per-layer breakdown read from the spans of :mod:`spans`.

The program is driven only through its public API: ``Session``,
``repro.testgen``, ``IPVendor``, ``CampaignRunner`` and
``ValidationService``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

perf_counter = time.perf_counter

#: a request slower than this, failed or refused misses the serve SLO
SLO_MS = 500.0

ATTACKS = ("sba", "gda", "random", "bitflip")

#: the campaign replays the CI matrix's pinned seed whatever ``--seed`` is:
#: a per-run seed retrains the victims, and detection_rate and
#: queries_per_verdict then moved by up to 20 % between seeds
CAMPAIGN_SEED = 2019

#: workload sizes; "smoke" is the tiny preset the smoke test runs
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "release": dict(
            # Session.prepare defaults: Table-I MNIST at width 0.125
            prepare=dict(),
            num_tests=2,
            # the whole training set is the candidate pool: a sampled pool
            # (64 or 128) makes the adaptive switch point depend on the op
            # seed, and op times then spread from 1.0 s to 2.9 s in one run
            candidate_pool=None,
            gradient_updates=10,
            discrimination_trials=4,
            warmup_ops=1,
            setup_repeats=5,
            # detection_rate and queries_per_verdict are read from the
            # packages of this many first op seeds, however many ops ran
            exact_ops=8,
        ),
        "campaign": dict(
            budgets=(4, 8),
            trials=4,
            train_size=80,
            test_size=24,
            epochs=2,
            width_multiplier=0.125,
            candidate_pool=40,
            gradient_updates=4,
            reference_inputs=12,
            warmup_ops=1,
            setup_repeats=5,
        ),
        "serve": dict(
            num_tests=16,
            width_multiplier=0.125,
            train_size=300,
            epochs=2,
            clean_handles=8,
            copies_per_attack=4,
            tenants=4,
            rate=40.0,
            setup_repeats=5,
        ),
    },
    "smoke": {
        "release": dict(
            prepare=dict(train_size=40, test_size=20, epochs=1),
            num_tests=3,
            candidate_pool=16,
            gradient_updates=2,
            discrimination_trials=1,
            warmup_ops=1,
            setup_repeats=2,
            exact_ops=8,
        ),
        "campaign": dict(
            budgets=(2, 3),
            trials=2,
            train_size=24,
            test_size=12,
            epochs=1,
            width_multiplier=0.125,
            candidate_pool=8,
            gradient_updates=2,
            reference_inputs=4,
            warmup_ops=1,
            setup_repeats=2,
        ),
        "serve": dict(
            num_tests=8,
            width_multiplier=0.125,
            train_size=24,
            epochs=1,
            clean_handles=2,
            copies_per_attack=1,
            tenants=2,
            rate=20.0,
            setup_repeats=2,
        ),
    },
}

#: end-to-end metrics, emitted by every workload with ``--trace 0``
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "detection_rate": "ratio",
    "queries_per_verdict": "queries",
}

_PER_OP_MS = [
    "nn.conv_bwd", "nn.pool_bwd", "nn.dense_bwd",
    "nn.conv_fwd", "nn.pool_fwd", "nn.dense_fwd", "nn.stacked_fwd",
    "nn.digest",
    "engine.forward", "engine.stacked_forward", "engine.input_grad",
    "engine.param_grad", "engine.masks",
    "coverage.greedy", "testgen.synth",
    "validation.package", "validation.discrimination", "validation.replay",
    "validation.sequential",
    *(f"attacks.{name}.apply" for name in ATTACKS),
    "campaign.store_append",
]

#: layers timed per set-up as well: on ``campaign`` test generation
#: (Algorithm 1 and 2) and packaging run only in set-up
_PER_SETUP_MS = [
    "nn.conv_bwd", "engine.input_grad", "engine.masks",
    "coverage.greedy", "testgen.synth", "validation.package",
]

#: per-layer metrics, emitted by every workload with ``--trace 1``; a layer
#: a workload does not run reads 0
PER_LAYER = {
    **{f"{name}_ms": "ms/op" for name in _PER_OP_MS},
    **{f"{name}_calls": "calls/op" for name in _PER_OP_MS},
    **{f"setup.{name}_ms": "ms/setup" for name in _PER_SETUP_MS},
    "nn.conv_gflop": "GFLOP/op",
    "engine.copies_per_stack": "models",
    "engine.hit_rate": "ratio",
    "engine.lookups": "lookups/op",
    "testgen.gradient_share": "ratio",
    "testgen.tests": "tests/op",
    "models.train_s": "s",
    "campaign.self_ms": "ms/op",
    "serve.submit_ms": "ms",
    "serve.coalesce_wait_ms": "ms",
    "serve.dispatch_ms": "ms",
    "serve.dispatches": "count",
    "serve.requests": "count",
    "serve.requests_per_dispatch": "ratio",
    "serve.dedup_rate": "ratio",
    "serve.refused": "count",
    "serve.gen_lag_p99_ms": "ms",
    "serve.slo_miss_rate": "ratio",
    "trace.overhead_pct": "%",
    "trace.unwrapped_ms": "ms/op",
    "trace.accounting_gap_pct": "%",
}


@dataclass
class Outcome:
    """What a workload's measured segments produced, summed over them."""

    durations: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    detection_rate: float = 0.0
    queries_per_verdict: float = 0.0
    #: workload-specific counters, turned into metrics by the finish step
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: release: (discrimination, queries) of the first op seeds' packages
    exact: List[tuple] = field(default_factory=list)
    #: serve: how late each request was sent, in seconds
    lags: List[float] = field(default_factory=list)
    #: workload-specific per-layer values that need no trace
    layer: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)


class Phase:
    """Switches the recorder (if tracing) between setup, op and unrecorded."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder

    def set(self, phase: Optional[str]) -> None:
        if self.recorder is not None:
            self.recorder.phase = phase

    def op(self, fn: Callable, *args):
        """Run one op, timed; traced runs wrap it in a root ``op`` span.

        Garbage from earlier ops is collected first, outside the timing, so
        a full collection does not land inside one op at random.
        """
        gc.collect()
        rec = self.recorder
        if rec is None:
            start = perf_counter()
            result = fn(*args)
            return perf_counter() - start, result
        rec.phase = "op"
        rec.begin("op")
        try:
            result = fn(*args)
        finally:
            duration = rec.end()
            rec.phase = None
        return duration, result


def probe_ms() -> float:
    """A fixed NumPy kernel (GEMM plus a strided copy), median of 5, in ms.

    Timed before and after each run so host drift can be told apart from a
    change to the program.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    x = rng.standard_normal((64, 8, 30, 30))
    times = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(8):
            a @ a
            np.ascontiguousarray(x[:, :, 1:-1:2, ::2])
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux), so the
    peak covers the ops, not the repeated set-ups before them."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def read_peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sprt_queries(mismatched_indices, num_tests: int, order) -> int:
    """Queries the sequential verifier spends on one replay's mismatch set."""
    from repro.validation import decide_from_mismatches

    mismatches = np.zeros(num_tests, dtype=bool)
    mismatches[list(mismatched_indices)] = True
    return int(decide_from_mismatches(mismatches[order])[2])


# ---------------------------------------------------------------------------
# release: Algorithm 1 + Algorithm 2 + packaging, backward-heavy
# ---------------------------------------------------------------------------


def release_setup(seed: int, size: dict, workdir: Path, args) -> dict:
    from repro.api import Session
    from repro.coverage import resolve_criterion

    session = Session()
    prepared = session.prepare("mnist", **size["prepare"])
    return dict(
        session=session,
        prepared=prepared,
        criterion=resolve_criterion("default", prepared.model),
    )


def release_op(state: dict, size: dict, op_seed: int):
    from repro.engine import Engine
    from repro.testgen import build_generator
    from repro.validation import IPVendor

    prepared, criterion = state["prepared"], state["criterion"]
    # a fresh engine per op: no op reuses another op's memo
    engine = Engine(prepared.model, criterion=criterion)
    generator = build_generator(
        "combined",
        prepared.model,
        prepared.train,
        criterion=criterion,
        rng=op_seed,
        engine=engine,
        candidate_pool=size["candidate_pool"],
        max_updates=size["gradient_updates"],
        # Algorithm 2 starts from zeros, as in the paper; with jitter the
        # adaptive switch point (and so the op's work) varies by op seed
        init_noise_std=0.0,
    )
    result = generator.generate(size["num_tests"])
    package = IPVendor(prepared.model, prepared.train, criterion=criterion).build_package(
        result,
        engine=engine,
        measure_discrimination=True,
        discrimination_trials=size["discrimination_trials"],
        discrimination_seed=op_seed,
    )
    return result, package


def release_op_seeds(seed: int) -> np.ndarray:
    """The fixed op-seed sequence of a run: measured op ``k`` uses entry ``k``."""
    return np.random.default_rng([seed, 0]).integers(0, 2**31, size=10_000)


def release_exact(model, package) -> tuple:
    """A package's mean discrimination and the SPRT queries its clean replay
    on its own model spends."""
    from repro.validation import query_order, validate_ip

    report = validate_ip(model, package)
    order, _ = query_order(package)
    return (
        float(np.mean(package.discrimination)),
        sprt_queries(report.mismatched_indices, package.num_tests, order),
    )


def release_run(state, size, seconds, seed, segment, phase: Phase, plant: bool, out) -> None:
    from repro.validation import default_attack_factories, validate_ip

    op_seeds = release_op_seeds(seed)
    if segment == 0:
        warmup = np.random.default_rng([seed, 3]).integers(0, 2**31, size=size["warmup_ops"])
        for op_seed in warmup:
            release_op(state, size, int(op_seed))
    model = state["prepared"].model
    digests = out.meta.setdefault("package_digests", {})
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        op_seed = int(op_seeds[out.attempted])
        out.attempted += 1
        duration, (result, package) = phase.op(release_op, state, size, op_seed)
        out.durations.append(duration)
        ip = model
        if plant and out.attempted == 1:
            # planted wrong IP: the check must refuse a replay that is not clean
            ip = default_attack_factories(package.tests)["sba"](0).apply(model).model
        report = validate_ip(ip, package)
        if not report.passed or report.mismatched_indices:
            out.failed += 1
        digests[str(op_seed)] = package.digest()
        if len(out.exact) < size["exact_ops"]:
            out.exact.append(release_exact(model, package))
        out.counts["gradient_tests"] += result.sources.count("gradient")
        out.counts["tests"] += len(result.sources)


def release_finish(state, size, seed, out) -> None:
    # the exact metrics cover the first exact_ops op seeds whatever number of
    # ops the host fitted in the window; the missing ones run here, untimed
    op_seeds = release_op_seeds(seed)
    model = state["prepared"].model
    while len(out.exact) < size["exact_ops"]:
        _, package = release_op(state, size, int(op_seeds[len(out.exact)]))
        out.exact.append(release_exact(model, package))
    out.detection_rate = float(np.mean([d for d, _ in out.exact]))
    out.queries_per_verdict = float(np.mean([q for _, q in out.exact]))
    out.layer["testgen.gradient_share"] = out.counts["gradient_tests"] / out.counts["tests"]
    out.layer["testgen.tests"] = out.counts["tests"] / len(out.durations)


# ---------------------------------------------------------------------------
# campaign: the Tables II/III trial loop, forward-, stack- and attack-heavy
# ---------------------------------------------------------------------------


def campaign_setup(seed: int, size: dict, workdir: Path, args) -> dict:
    from repro.campaign import CampaignRunner, CampaignSpec, ResultStore

    spec = CampaignSpec(
        attacks=ATTACKS,
        models=("mnist", "cifar"),
        criteria=("default", "exact"),
        strategies=("combined",),
        budgets=size["budgets"],
        trials=size["trials"],
        seed=CAMPAIGN_SEED,
        name="perfbench",
        train_size=size["train_size"],
        test_size=size["test_size"],
        epochs=size["epochs"],
        width_multiplier=size["width_multiplier"],
        candidate_pool=size["candidate_pool"],
        gradient_updates=size["gradient_updates"],
        reference_inputs=size["reference_inputs"],
    )
    path = workdir / "setup.jsonl"
    path.unlink(missing_ok=True)
    runner = CampaignRunner(spec, ResultStore(path), backend=args.backend)
    summary = runner.run()
    if summary.failed or summary.executed != summary.total:
        raise RuntimeError(f"campaign set-up pass failed: {summary.describe()}")
    return dict(runner=runner, reference=path.read_bytes(), total=summary.total)


def campaign_op(state: dict, path: Path):
    from repro.campaign import ResultStore

    runner = state["runner"]
    # same runner, fresh store: every scenario re-runs from the per-model
    # cache (trained victims and packages come from set-up)
    runner.store = ResultStore(path)
    return runner.run()


def campaign_run(state, size, seconds, seed, segment, phase: Phase, plant: bool, out) -> None:
    workdir: Path = state["workdir"]
    for i in range(size["warmup_ops"] if segment == 0 else 0):
        path = workdir / f"warmup-{i}.jsonl"
        campaign_op(state, path)
        path.unlink()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        path = workdir / f"op-{out.attempted}.jsonl"
        out.attempted += 1
        duration, summary = phase.op(campaign_op, state, path)
        out.durations.append(duration)
        observed = path.read_bytes()
        if plant and out.attempted == 1:
            # planted wrong verdict: one scenario's detection count altered
            observed = observed.replace(b'"detections":', b'"detections":1', 1)
        if (
            summary.failed
            or summary.executed != state["total"]
            or observed != state["reference"]
        ):
            out.failed += 1
        state["records"] = summary.records
        path.unlink()


def campaign_finish(state, size, seed, out) -> None:
    # every op's store equals the set-up store (checked per op), so the
    # last op's records stand for all of them
    records = state["records"]
    trials = sum(r.trials for r in records)
    out.detection_rate = sum(r.detections for r in records) / trials
    out.queries_per_verdict = float(
        np.mean([r.extra["mean_queries_to_decision"] for r in records])
    )
    out.meta["scenarios"] = len(records)


# ---------------------------------------------------------------------------
# serve: open-loop multi-tenant validation through the coalescer
# ---------------------------------------------------------------------------


def serve_setup(seed: int, size: dict, workdir: Path, args) -> dict:
    from repro.api import ReleaseRequest, RunConfig, Session
    from repro.serve import SERVE_BATCH_SIZE, ValidationService
    from repro.validation import default_attack_factories, validate_ip

    with Session(RunConfig(batch_size=SERVE_BATCH_SIZE)) as vendor:
        released = vendor.release(
            ReleaseRequest(
                dataset="mnist",
                num_tests=size["num_tests"],
                width_multiplier=size["width_multiplier"],
                strategy="random",
                train_size=size["train_size"],
                epochs=size["epochs"],
                seed=seed,
            )
        )
    package, model = released.package, released.model
    rng = np.random.default_rng([seed, 1])
    factories = default_attack_factories(package.tests)
    # clean handles share one digest (the coalescer dedups them); tampered
    # copies have distinct digests (the coalescer stacks them)
    ips = [model.copy() for _ in range(size["clean_handles"])]
    for name in ATTACKS:
        for _ in range(size["copies_per_attack"]):
            ips.append(factories[name](int(rng.integers(0, 2**63 - 1))).apply(model).model)
    tampered = [False] * size["clean_handles"] + [True] * (len(ips) - size["clean_handles"])
    references = [validate_ip(ip, package) for ip in ips]
    for reference, is_tampered in zip(references, tampered):
        if reference.passed == is_tampered:
            raise RuntimeError("a suspect IP's serial verdict contradicts how it was built")
    return dict(
        package=package,
        ips=ips,
        tampered=tampered,
        references=references,
        service=ValidationService(),
    )


async def _serve_drive(state, size, seconds, seed, segment, phase: Phase, plant, out) -> None:
    from repro.api import ValidateRequest
    from repro.serve import QuotaExceeded, RequestTimeout, ServiceDraining
    from repro.validation import entropy_order

    service, package, ips = state["service"], state["package"], state["ips"]
    references, tampered = state["references"], state["tampered"]
    tenants = size["tenants"]

    async def validate(index: int, tenant: int):
        return await service.validate(
            ValidateRequest(package=package), ip=ips[index], tenant=f"tenant-{tenant}"
        )

    # warm-up: every suspect once, unmeasured; these verdicts feed
    # queries_per_verdict (one per suspect, whatever the arrival mix)
    warm = await asyncio.gather(*(validate(i, i % tenants) for i in range(len(ips))))
    if segment == 0:
        order = entropy_order(package.expected_outputs)
        out.queries_per_verdict = float(
            np.mean([sprt_queries(o.mismatched_indices, package.num_tests, order) for o in warm])
        )

    # each segment is its own Poisson stream, fixed by the seed
    rng = np.random.default_rng([seed, 2, segment])
    due: List[float] = []
    t = float(rng.exponential(1.0 / size["rate"]))
    while t < seconds:
        due.append(t)
        t += float(rng.exponential(1.0 / size["rate"]))
    targets = rng.integers(0, len(ips), size=len(due))
    tenant_of = rng.integers(0, tenants, size=len(due))

    counters = out.counts
    stats = service.coalescer.stats
    before = (stats.requests, stats.dispatches, stats.deduped)

    async def request(k: int, start: float):
        index = int(targets[k])
        try:
            outcome = await validate(index, int(tenant_of[k]))
        except (QuotaExceeded, RequestTimeout, ServiceDraining):
            counters["refused"] += 1
            out.failed += 1
            return
        latency = perf_counter() - (start + due[k])
        if plant and k == first_tampered:
            # planted wrong verdict: a tampered IP reported as clean
            outcome = replace(outcome, passed=True, mismatched_indices=[])
        reference = references[index]
        if outcome.passed != reference.passed or list(
            outcome.mismatched_indices
        ) != list(reference.mismatched_indices):
            out.failed += 1
            return
        out.durations.append(latency)
        if latency * 1e3 > SLO_MS:
            counters["missed"] += 1
        if tampered[index]:
            counters["tampered"] += 1
            counters["detected"] += int(not outcome.passed)

    first_tampered = next((k for k in range(len(due)) if tampered[int(targets[k])]), None)
    gc.collect()
    phase.set("op")
    tasks = []
    start = perf_counter()
    for k, offset in enumerate(due):
        wait = start + offset - perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        out.lags.append(perf_counter() - (start + offset))
        tasks.append(asyncio.ensure_future(request(k, start)))
    await asyncio.gather(*tasks)
    phase.set(None)

    out.attempted += len(due)
    counters["requests"] += stats.requests - before[0]
    counters["dispatches"] += stats.dispatches - before[1]
    counters["deduped"] += stats.deduped - before[2]


def serve_run(state, size, seconds, seed, segment, phase: Phase, plant: bool, out) -> None:
    asyncio.run(_serve_drive(state, size, seconds, seed, segment, phase, plant, out))


def serve_finish(state, size, seed, out) -> None:
    counters = out.counts
    out.detection_rate = counters["detected"] / counters["tampered"]
    out.layer.update(
        {
            "serve.requests": counters["requests"],
            "serve.dispatches": counters["dispatches"],
            "serve.requests_per_dispatch": counters["requests"] / counters["dispatches"],
            "serve.dedup_rate": counters["deduped"] / counters["requests"],
            "serve.refused": counters["refused"],
            "serve.gen_lag_p99_ms": float(np.percentile(out.lags, 99)) * 1e3,
            "serve.slo_miss_rate": (out.failed + counters["missed"]) / out.attempted,
        }
    )


#: workload -> (set-up, one measured segment, metrics once all segments ran)
WORKLOADS = {
    "release": (release_setup, release_run, release_finish),
    "campaign": (campaign_setup, campaign_run, campaign_finish),
    "serve": (serve_setup, serve_run, serve_finish),
}


def _close(state: Optional[dict]) -> None:
    if not state:
        return
    for key in ("service", "runner", "session"):
        if key in state:
            state[key].close()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(rec, out: Outcome, workload: str, setups: int) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans, normalised per op."""
    ops = max(1, len(out.durations))
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name in _PER_OP_MS:
        values[f"{name}_ms"] = rec.ms(name) / ops
        values[f"{name}_calls"] = rec.n(name) / ops
    counts = {name: value for (phase, name), value in rec.counts.items() if phase == "op"}
    values["nn.conv_gflop"] = counts.get("nn.conv_flop", 0.0) / 1e9 / ops
    stacks = rec.n("engine.stacked_forward")
    values["engine.copies_per_stack"] = counts.get("engine.copies", 0.0) / stacks if stacks else 0.0
    lookups = counts.get("engine.lookups", 0.0)
    values["engine.lookups"] = lookups / ops
    values["engine.hit_rate"] = counts.get("engine.hits", 0.0) / lookups if lookups else 0.0
    values["models.train_s"] = rec.total.get(("setup", "models.train"), 0.0) / setups
    for name in _PER_SETUP_MS:
        values[f"setup.{name}_ms"] = rec.ms(name, "setup") / setups
    unwrapped = rec.self_time.get(("op", "op"), 0.0) * 1e3 / ops
    values["trace.unwrapped_ms"] = unwrapped
    if workload == "campaign":
        values["campaign.self_ms"] = unwrapped
    values["trace.accounting_gap_pct"] = rec.op_accounting_gap() * 100
    if workload == "serve" and rec.submits:
        dispatches = sorted(
            (end, end - start)
            for phase, name, _, start, end, _ in rec.spans
            if phase == "op" and name == "engine.stacked_forward"
        )
        ends = [end for end, _ in dispatches]
        waits = []
        for start, end in rec.submits:
            # dispatches are serialised, so a submit's dispatch is the last
            # one to finish before the submit returns
            i = int(np.searchsorted(ends, end, side="right")) - 1
            if i >= 0:
                waits.append((end - start) - dispatches[i][1])
        values["serve.submit_ms"] = float(np.mean([e - s for s, e in rec.submits])) * 1e3
        values["serve.coalesce_wait_ms"] = max(0.0, float(np.mean(waits)) * 1e3)
        values["serve.dispatch_ms"] = float(np.mean([d for _, d in dispatches])) * 1e3
    values.update(out.layer)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--backend", default="model_axis",
                        help="campaign engine backend (model_axis or numpy)")
    parser.add_argument("--plant", action="store_true",
                        help="plant one wrong verdict; the run must count it as failed")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        recorder = spans.install()
    logging.getLogger("repro").setLevel(logging.WARNING)
    phase = Phase(recorder)

    # modules the program imports lazily, loaded before any set-up is timed
    import repro.analysis  # noqa: F401
    import repro.api  # noqa: F401
    import repro.campaign  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.testgen  # noqa: F401
    import repro.validation  # noqa: F401

    size = SIZES[args.size][args.workload]
    setup, run, finish = WORKLOADS[args.workload]
    segments = size["setup_repeats"]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    state = None
    out = Outcome()
    setup_times: List[float] = []
    probes: List[float] = []
    peak_rss_mb = 0.0
    try:
        for segment in range(segments):
            probes.append(probe_ms())
            _close(state)
            state = None
            gc.collect()
            phase.set("setup")
            start = perf_counter()
            state = setup(args.seed, size, workdir, args)
            setup_times.append(perf_counter() - start)
            phase.set(None)
            state["workdir"] = workdir
            # the peak covers warm-up and measured ops, not the set-up
            reset_peak_rss()
            run(state, size, args.seconds / segments, args.seed, segment, phase,
                args.plant and segment == 0, out)
            peak_rss_mb = max(peak_rss_mb, read_peak_rss_mb())
        probes.append(probe_ms())
        finish(state, size, args.seed, out)
    finally:
        _close(state)
        shutil.rmtree(workdir, ignore_errors=True)

    durations_ms = np.asarray(out.durations) * 1e3
    e2e = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": float(np.percentile(durations_ms, 50)),
        "op_p99_ms": float(np.percentile(durations_ms, 99)),
        "peak_rss_mb": peak_rss_mb,
        "detection_rate": out.detection_rate,
        "queries_per_verdict": out.queries_per_verdict,
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(out.durations),
        "setup_times_s": setup_times,
        # before each segment and after the last
        "probe_ms": probes,
        "op_p50_ms": e2e["op_p50_ms"],
        "op_ms": [round(d, 1) for d in durations_ms] if len(durations_ms) <= 100 else None,
        **out.meta,
    }
    if recorder is not None:
        values = layer_metrics(recorder, out, args.workload, len(setup_times))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        recorder.write(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
