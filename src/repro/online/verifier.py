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

from typing import Optional

import numpy as np

from repro.validation.package import ValidationPackage
from repro.validation.sequential import (
    DEFAULT_CLEAN_FRACTION,
    DEFAULT_CONFIDENCE,
    DEFAULT_P0,
    DEFAULT_P1,
    VERDICT_CLEAN,
    VERDICT_TAMPERED,
    SequentialReport,
    clean_floor,
    llr_increments,
    query_order,
    sprt_thresholds,
)
from repro.validation.user import BlackBoxIP, _query, compare_outputs


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
        alpha = beta = 1.0 - self.confidence
        lower, upper = sprt_thresholds(alpha, beta)
        match_llr, mismatch_llr = llr_increments(self.p0, self.p1)
        limit = package.num_tests
        if self.query_budget is not None:
            limit = min(limit, self.query_budget)
        # clean-side curtailment: never accept H0 before this many observed
        # fingerprints (see repro.validation.sequential's module docstring)
        floor = clean_floor(package.num_tests, self.clean_fraction)

        llr = 0.0
        cusum = 0.0
        used = 0
        decided = False
        verdict = VERDICT_CLEAN
        mismatched = []
        max_deviation = 0.0
        position = 0
        while position < limit and not decided:
            take = min(self.probe_batch, limit - position)
            indices = order[position : position + take]
            expected = package.expected_outputs[indices]
            observed = np.asarray(
                _query(self.ip, package.tests[indices]), dtype=np.float64
            )
            used += take
            deviations, mismatches = compare_outputs(observed, expected, package.output_atol)
            for j in range(take):
                is_mismatch = bool(mismatches[j])
                max_deviation = max(max_deviation, float(deviations[j]))
                if is_mismatch:
                    mismatched.append(int(indices[j]))
                step = mismatch_llr if is_mismatch else match_llr
                llr += step
                # tampered side is a CUSUM (SPRT reflected at zero), so
                # accumulated clean evidence cannot mask a later mismatch —
                # see repro.validation.sequential.decide_from_mismatches
                cusum = max(0.0, cusum + step)
                if cusum >= upper:
                    decided, verdict = True, VERDICT_TAMPERED
                    break
                if llr <= lower and position + j + 1 >= floor:
                    decided, verdict = True, VERDICT_CLEAN
                    break
            position += take
        if not decided:
            verdict = VERDICT_TAMPERED if mismatched else VERDICT_CLEAN

        ledger = None
        stats = getattr(self.ip, "stats", None)
        if callable(stats):
            ledger = stats()
        return SequentialReport(
            verdict=verdict,
            decided=decided,
            confidence=self.confidence,
            queries_used=used,
            num_tests=package.num_tests,
            llr=llr,
            threshold_lower=lower,
            threshold_upper=upper,
            order=order_name,
            mismatched_indices=sorted(mismatched),
            max_output_deviation=max_deviation,
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
