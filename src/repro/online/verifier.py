"""The sequential online verifier: ordered replay + SPRT early stopping.

Where :func:`repro.validation.user.validate_ip` replays the whole
fingerprint set, :class:`OnlineVerifier` spends queries one probe at a
time: fingerprints are scheduled by discriminative power
(:func:`repro.validation.sequential.query_order` — stored v3 scores, or the
entropy fallback), each probe's observed logits are compared under the
package's ``output_atol`` with the *same* mismatch rule as full replay, and
the match/mismatch stream drives Wald's SPRT until a threshold is crossed,
the query budget runs out, or the set is exhausted.  The clean threshold is
curtailed: it cannot fire before
:func:`repro.validation.sequential.clean_floor` fingerprints have been
observed, so an attack that mismatches only low-discrimination tests cannot
slip past an early clean verdict.

The comparison rule is shared with full replay on purpose: a mismatch here
is a mismatch there, so with the default SPRT operating point (one mismatch
crosses the tampered threshold immediately) sequential mode can never
return "tampered" where full replay would have said "clean" on the probed
prefix — it only stops asking earlier.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.validation.package import ValidationPackage
from repro.validation.sequential import (
    DEFAULT_CLEAN_FRACTION,
    DEFAULT_CONFIDENCE,
    DEFAULT_P0,
    DEFAULT_P1,
    SequentialReport,
    decide_from_mismatches,
    query_order,
    sprt_thresholds,
)
from repro.validation.user import BlackBoxIP, _query, compare_outputs


class _ProbedStream:
    """A suspect IP's mismatch stream in query order, probed on first read.

    :func:`~repro.validation.sequential.decide_from_mismatches` walks it
    like an array.  A read past the probed prefix queries the IP for the
    next ``probe_batch`` fingerprints of ``order``, never past ``limit``, so
    the walk only ever asks for what it reads — in whole probes.
    """

    def __init__(
        self,
        ip: BlackBoxIP,
        package: ValidationPackage,
        order: np.ndarray,
        probe_batch: int,
        limit: int,
    ) -> None:
        self.ip = ip
        self.package = package
        self.order = order
        self.probe_batch = probe_batch
        self.limit = limit
        #: per probed fingerprint, in query order: mismatch flag, deviation
        self.flags: List[bool] = []
        self.deviations: List[float] = []

    def __len__(self) -> int:
        return self.package.num_tests

    def __getitem__(self, position: int) -> bool:
        while position >= len(self.flags):
            self._probe()
        return self.flags[position]

    def _probe(self) -> None:
        package = self.package
        start = len(self.flags)
        indices = self.order[start : min(start + self.probe_batch, self.limit)]
        observed = np.asarray(_query(self.ip, package.tests[indices]), dtype=np.float64)
        deviations, mismatches = compare_outputs(
            observed, package.expected_outputs[indices], package.output_atol
        )
        self.flags.extend(bool(m) for m in mismatches)
        self.deviations.extend(float(d) for d in deviations)


class OnlineVerifier:
    """Early-stopping verification of a (possibly remote) black-box IP.

    Parameters
    ----------
    ip: the suspect model — any :data:`~repro.validation.user.BlackBoxIP`,
        typically a :class:`~repro.online.transport.RemoteModel`.
    package: the vendor's validation package.
    confidence: target decision confidence; ``alpha = beta = 1 - confidence``.
    query_budget: optional hard cap on probed fingerprints; running out
        yields an undecided report whose verdict follows the evidence seen
        (any mismatch ⇒ tampered, the full-replay rule).
    probe_batch: fingerprints sent per probe.  1 spends the fewest queries;
        larger values trade queries for round trips on slow transports.
        Every probed fingerprint counts as used, even if the decision lands
        mid-batch — that is what the endpoint bills.
    """

    def __init__(
        self,
        ip: BlackBoxIP,
        package: ValidationPackage,
        confidence: float = DEFAULT_CONFIDENCE,
        query_budget: Optional[int] = None,
        probe_batch: int = 1,
        p0: float = DEFAULT_P0,
        p1: float = DEFAULT_P1,
        clean_fraction: float = DEFAULT_CLEAN_FRACTION,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        if query_budget is not None and query_budget <= 0:
            raise ValueError(f"query_budget must be positive, got {query_budget}")
        if probe_batch <= 0:
            raise ValueError(f"probe_batch must be positive, got {probe_batch}")
        self.ip = ip
        self.package = package
        self.confidence = float(confidence)
        self.query_budget = query_budget
        self.probe_batch = int(probe_batch)
        self.p0 = float(p0)
        self.p1 = float(p1)
        self.clean_fraction = float(clean_fraction)

    def verify(self) -> SequentialReport:
        package = self.package
        order, order_name = query_order(package)
        limit = package.num_tests
        if self.query_budget is not None:
            limit = min(limit, self.query_budget)
        # the SPRT walk is the campaign's own kernel, reading the IP's
        # mismatch stream probe by probe as it goes
        stream = _ProbedStream(self.ip, package, order, self.probe_batch, limit)
        verdict, decided, walked, llr = decide_from_mismatches(
            stream,
            confidence=self.confidence,
            p0=self.p0,
            p1=self.p1,
            budget=self.query_budget,
            clean_fraction=self.clean_fraction,
        )
        lower, upper = sprt_thresholds(1.0 - self.confidence, 1.0 - self.confidence)

        ledger = None
        stats = getattr(self.ip, "stats", None)
        if callable(stats):
            ledger = stats()
        return SequentialReport(
            verdict=verdict,
            decided=decided,
            confidence=self.confidence,
            # whole probes: fingerprints probed past the decision are billed
            queries_used=len(stream.flags),
            num_tests=package.num_tests,
            llr=llr,
            threshold_lower=lower,
            threshold_upper=upper,
            order=order_name,
            mismatched_indices=sorted(
                int(order[i]) for i in range(walked) if stream.flags[i]
            ),
            max_output_deviation=max([0.0] + stream.deviations[:walked]),
            ledger=ledger,
        )


def verify_online(
    ip: BlackBoxIP,
    package: ValidationPackage,
    confidence: float = DEFAULT_CONFIDENCE,
    query_budget: Optional[int] = None,
    probe_batch: int = 1,
) -> SequentialReport:
    """One-shot convenience wrapper around :class:`OnlineVerifier`."""
    return OnlineVerifier(
        ip,
        package,
        confidence=confidence,
        query_budget=query_budget,
        probe_batch=probe_batch,
    ).verify()


__all__ = ["OnlineVerifier", "verify_online"]
