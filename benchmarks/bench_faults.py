"""Micro-benchmark: the retry wrapper must be free when nothing fails.

:class:`repro.engine.Engine` routes every backend call through
``_backend_call``; with a :class:`repro.faults.FaultPolicy` configured that
adds a :class:`~repro.faults.RetryController` frame per dispatch.  This gate
asserts the fault-free cost of that frame: the policy-wrapped engine must be
within ``2%`` wall-clock of the bare engine on an identical ``forward``
workload, at bitwise-identical outputs.

Run with::

    PYTHONPATH=src python benchmarks/bench_faults.py

Set ``BENCH_FAULTS_SKIP_OVERHEAD=1`` to enforce only the output-equality
assertion (for shared CI runners whose wall-clock jitter exceeds the 2%
budget).
"""

from __future__ import annotations

import os

import numpy as np
from _timing import best_of

from repro.engine import Engine
from repro.faults import FaultPolicy
from repro.models.zoo import small_mlp

BATCH = 256
CALLS_PER_REP = 50
#: fault-free overhead budget of the retry wrapper (fractional)
OVERHEAD_BUDGET = 0.02


def _forward_loop(engine: Engine, batch: np.ndarray) -> np.ndarray:
    out = None
    for _ in range(CALLS_PER_REP):
        out = engine.forward(batch)
    return out


def main() -> None:
    model = small_mlp(rng=0)
    batch = np.random.default_rng(1).normal(size=(BATCH, 16))
    bare = Engine(model, cache=False)
    wrapped = Engine(model, cache=False, fault_policy=FaultPolicy())
    print(f"model: {model.name} ({model.num_parameters()} parameters)")
    print(f"workload: {CALLS_PER_REP} forward calls x {BATCH} samples")

    # best-of timing keeps transient load spikes out of both readings
    plain_s, _ = best_of(lambda: _forward_loop(bare, batch), repeats=7)
    faulted_s, _ = best_of(lambda: _forward_loop(wrapped, batch), repeats=7)
    print(f"bare engine:    {plain_s * 1e3:9.2f} ms")
    print(f"policy-wrapped: {faulted_s * 1e3:9.2f} ms")

    overhead = faulted_s / plain_s - 1.0
    print(f"retry-wrapper overhead: {overhead * 100:+.2f}% (budget {OVERHEAD_BUDGET:.0%})")

    out_plain = bare.forward(batch)
    out_wrapped = wrapped.forward(batch)
    assert np.array_equal(out_plain, out_wrapped), (
        "fault-policy engine must be bitwise-identical on the fault-free path"
    )
    assert wrapped.stats.retries == 0 and wrapped.stats.downgrades == 0

    if os.environ.get("BENCH_FAULTS_SKIP_OVERHEAD"):
        print("BENCH_FAULTS_SKIP_OVERHEAD set: overhead gate skipped")
        return
    assert overhead < OVERHEAD_BUDGET, (
        f"fault-free retry-wrapper overhead {overhead:.1%} exceeds the "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
    print("PASS")


if __name__ == "__main__":
    main()
