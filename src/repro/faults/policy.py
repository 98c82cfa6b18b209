"""Retry/backoff policy and the retry controller that enforces it.

:class:`FaultPolicy` is a frozen value object: every knob that shapes how a
remote transport reacts to a transient failure, serializable to/from the
plain dict that rides on :class:`repro.api.RunConfig` (``faults``).
Backoff is **deterministic**: the jitter term is derived from SHA-256 of
``(seed, key, attempt)``, so two runs of the same plan sleep the same
schedule — a property the test suite leans on.

:class:`RetryController` executes callables under a policy: transient
errors (per :func:`repro.faults.errors.is_transient`) are retried with
backoff; ``breaker_threshold`` *consecutive* transient failures trip the
circuit breaker, which raises :class:`~repro.faults.errors.CircuitOpenError`.
Logic errors always propagate immediately.  Its one user is
:class:`repro.online.transport.RemoteModel`, where I/O really fails.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, Optional, TypeVar, Union

from repro.faults.errors import CircuitOpenError, is_transient

T = TypeVar("T")


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs governing retries, backoff, and the circuit breaker.

    ``backoff_delay(attempt)`` grows geometrically from ``backoff_base_s``
    by ``backoff_factor``, scaled by ``1 + backoff_jitter * u`` with ``u``
    drawn deterministically from the policy seed.  After
    ``breaker_threshold`` consecutive transient failures the breaker trips
    and the call fails with :class:`CircuitOpenError`.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    breaker_threshold: int = 3
    seed: int = 0

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Deterministic sleep before retry ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        if self.backoff_jitter <= 0 or base <= 0:
            return base
        digest = hashlib.sha256(f"{self.seed}|{key}|{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 + self.backoff_jitter * unit)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPolicy":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown FaultPolicy field(s): {', '.join(unknown)}")
        policy = cls(**data)  # type: ignore[arg-type]
        policy.validate()
        return policy

    @classmethod
    def coerce(
        cls, value: Union["FaultPolicy", Dict[str, object], None]
    ) -> Optional["FaultPolicy"]:
        """Normalize a policy spec: instance → itself, dict → parsed, None → None."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(f"cannot build a FaultPolicy from {type(value).__name__}")


@dataclass
class FaultStats:
    """Counters a :class:`RetryController` accumulates."""

    retries: int = 0
    failures: int = 0
    breaker_trips: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class RetryController:
    """Runs callables under a :class:`FaultPolicy` with breaker semantics.

    The breaker counts *consecutive* transient failures across calls (a
    success resets it); when it trips, :meth:`run` raises
    :class:`CircuitOpenError`.  ``sleeper`` is injectable so tests assert
    the exact backoff schedule without sleeping.
    """

    policy: FaultPolicy = field(default_factory=FaultPolicy)
    sleeper: Callable[[float], None] = time.sleep
    stats: FaultStats = field(default_factory=FaultStats)
    consecutive_failures: int = 0

    def run(self, fn: Callable[[], T], key: str = "dispatch") -> T:
        """Call ``fn`` under the policy until success or exhaustion."""
        attempt = 0
        while True:
            try:
                result = fn()
            except Exception as exc:
                if not is_transient(exc):
                    raise
                self.stats.failures += 1
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.policy.breaker_threshold:
                    self.stats.breaker_trips += 1
                    raise CircuitOpenError(
                        f"circuit breaker tripped after "
                        f"{self.consecutive_failures} consecutive failures "
                        f"on {key!r}"
                    ) from exc
                if attempt >= self.policy.max_retries:
                    raise
                attempt += 1
                self.stats.retries += 1
                self.sleeper(self.policy.backoff_delay(attempt, key))
            else:
                self.consecutive_failures = 0
                return result


__all__ = ["FaultPolicy", "FaultStats", "RetryController"]
