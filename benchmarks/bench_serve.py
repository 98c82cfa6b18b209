"""Micro-benchmark: the serve coalescer must beat uncoalesced serving.

:class:`repro.serve.ValidationService` merges concurrent validates of one
release package into single ``stacked_forward`` dispatches; eight clients
replaying the same parameter digest should cost roughly one replay, not
eight.  This gate drives :data:`CONCURRENT` concurrent same-digest validates
through two services — coalescing on and off — and asserts:

* **byte-identity**: every coalesced outcome matches the in-process
  :func:`repro.validation.validate_ip` reference exactly (same mismatch
  indices, bitwise-equal max deviation);
* **dedup**: each coalesced drive performs exactly one engine dispatch;
* **speedup**: the coalesced drive is at least :data:`SPEEDUP_FLOOR`×
  faster than the uncoalesced one.

Run with::

    PYTHONPATH=src python benchmarks/bench_serve.py

Set ``BENCH_SERVE_SKIP_SPEEDUP=1`` to enforce only the byte-identity and
dedup assertions (for shared CI runners whose wall-clock jitter swamps the
ratio).
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
from _timing import best_of

from repro.api import ReleaseRequest, RunConfig, Session, ValidateRequest
from repro.serve import SERVE_BATCH_SIZE, ServeConfig, ValidationService
from repro.validation.user import validate_ip

#: concurrent same-digest validates per drive (the acceptance fan-in)
CONCURRENT = 8
#: required coalesced-vs-uncoalesced wall-clock ratio
SPEEDUP_FLOOR = 2.0
REPEATS = 5

#: a release whose replay compute dominates the per-request bookkeeping: the
#: half-width Table-I MNIST model with a 1024-test package (the ``random``
#: strategy selects from the training set — ``train_size`` must cover the
#: test budget — and keeps the untimed vendor setup cheap)
RELEASE_SPEC = dict(
    dataset="mnist",
    num_tests=1024,
    strategy="random",
    criterion="default",
    train_size=1024,
    test_size=24,
    epochs=1,
    width_multiplier=0.5,
    candidate_pool=1024,
    seed=0,
)


def _service(coalesce: bool) -> ValidationService:
    return ValidationService(
        ServeConfig(
            coalesce=coalesce,
            coalesce_window_s=0.002,
            max_stacked_models=CONCURRENT,
            request_timeout_s=None,
        )
    )


def _drive(service: ValidationService, released) -> list:
    async def run():
        return await asyncio.gather(
            *(
                service.validate(
                    ValidateRequest(package=released.package), ip=released.model
                )
                for _ in range(CONCURRENT)
            )
        )

    return asyncio.run(run())


def main() -> None:
    with Session(RunConfig(batch_size=SERVE_BATCH_SIZE)) as vendor:
        released = vendor.release(ReleaseRequest(**RELEASE_SPEC))
    print(released.describe())
    print(f"workload: {CONCURRENT} concurrent same-digest validates per drive")

    reference = validate_ip(released.model, released.package)

    uncoalesced = _service(False)
    try:
        plain_s, _ = best_of(lambda: _drive(uncoalesced, released), repeats=REPEATS)
        assert uncoalesced.coalescer.stats.deduped == 0
    finally:
        uncoalesced.close()

    coalesced = _service(True)
    try:
        merged_s, _ = best_of(lambda: _drive(coalesced, released), repeats=REPEATS)
        outcomes = _drive(coalesced, released)
        stats = coalesced.coalescer.stats
    finally:
        coalesced.close()

    print(f"uncoalesced: {plain_s * 1e3:9.2f} ms")
    print(f"coalesced:   {merged_s * 1e3:9.2f} ms")
    drives = REPEATS + 2  # warm-up + timed repeats + the identity drive
    print(
        f"coalescer: {stats.requests} requests -> "
        f"{stats.dispatches} dispatches (hit rate {stats.hit_rate:.3f})"
    )

    # dedup: one engine dispatch per drive, everything else deduplicated
    assert stats.requests == drives * CONCURRENT
    assert stats.dispatches == drives, (
        f"expected {drives} dispatches ({drives} drives), got {stats.dispatches}"
    )

    # byte-identity: a coalesced answer is the in-process answer, bit for bit
    for outcome in outcomes:
        assert outcome.passed == reference.passed
        assert list(outcome.mismatched_indices) == list(reference.mismatched_indices)
        assert np.float64(outcome.max_output_deviation) == np.float64(
            reference.max_output_deviation
        ), "coalesced replay must be bitwise-identical to validate_ip"

    speedup = plain_s / merged_s if merged_s > 0 else float("inf")
    print(f"coalesced speedup: {speedup:.2f}x (floor {SPEEDUP_FLOOR:.1f}x)")

    if os.environ.get("BENCH_SERVE_SKIP_SPEEDUP"):
        print("BENCH_SERVE_SKIP_SPEEDUP set: speedup gate skipped")
        return
    assert speedup >= SPEEDUP_FLOOR, (
        f"coalesced serving is only {speedup:.2f}x faster than uncoalesced; "
        f"the floor is {SPEEDUP_FLOOR:.1f}x"
    )
    print("PASS")


if __name__ == "__main__":
    main()
