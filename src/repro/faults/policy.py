"""Retry/backoff policy and the retry controller that enforces it.

:class:`FaultPolicy` is a frozen value object: every knob that shapes how
the stack reacts to a transient failure, serializable to/from the plain
dict that rides on :class:`repro.api.RunConfig` and campaign CLI flags.
Backoff is **deterministic**: the jitter term is derived from SHA-256 of
``(seed, key, attempt)``, so two runs of the same plan sleep the same
schedule — a property the chaos suite leans on.

:class:`RetryController` executes callables under a policy: transient
errors (per :func:`repro.faults.errors.is_transient`) are retried with
backoff; ``breaker_threshold`` *consecutive* transient failures trip the
circuit breaker, which invokes the caller-supplied downgrade hook (the
engine swaps in its serial fallback backend) instead of failing the
query.  Logic errors always propagate immediately.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, TypeVar, Union

from repro.faults.errors import CircuitOpenError, is_transient

T = TypeVar("T")


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs governing retries, backoff, and the circuit breaker.

    ``backoff_delay(attempt)`` grows geometrically from ``backoff_base_s``
    by ``backoff_factor``, scaled by ``1 + backoff_jitter * u`` with ``u``
    drawn deterministically from the policy seed.  After
    ``breaker_threshold`` consecutive transient failures the breaker trips
    and the engine downgrades to ``downgrade_backend`` (``None`` disables
    downgrade and surfaces :class:`CircuitOpenError` semantics instead).
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    breaker_threshold: int = 3
    downgrade_backend: Optional[str] = "numpy"
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

    def with_overrides(self, **overrides: object) -> "FaultPolicy":
        policy = replace(self, **overrides)  # type: ignore[arg-type]
        policy.validate()
        return policy


@dataclass
class FaultStats:
    """Counters the retry layer accumulates; merged into ``Engine.stats``."""

    retries: int = 0
    failures: int = 0
    breaker_trips: int = 0
    downgrades: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class RetryController:
    """Runs callables under a :class:`FaultPolicy` with breaker semantics.

    The breaker counts *consecutive* transient failures across calls (a
    success resets it).  When it trips, the ``downgrade`` hook passed to
    :meth:`run` is invoked once — after which the controller keeps
    retrying on the (presumably healthier) downgraded path.  ``sleeper``
    is injectable so tests assert the exact backoff schedule without
    sleeping.
    """

    policy: FaultPolicy = field(default_factory=FaultPolicy)
    sleeper: Callable[[float], None] = time.sleep
    stats: FaultStats = field(default_factory=FaultStats)
    events: List[Dict[str, object]] = field(default_factory=list)
    consecutive_failures: int = 0
    downgraded: bool = False

    def run(
        self,
        fn: Callable[[], T],
        key: str = "dispatch",
        downgrade: Optional[Callable[[BaseException], None]] = None,
        pending: Optional[BaseException] = None,
    ) -> T:
        """Call ``fn`` under the policy until success or exhaustion.

        ``pending`` lets a caller that already attempted the work once (the
        engine's inlined fast path) hand over the exception instead of
        paying the controller frame on every fault-free call.
        """
        attempt = 0
        exc: Optional[BaseException] = pending
        while True:
            if exc is None:
                try:
                    result = fn()
                except Exception as raised:
                    exc = raised
                else:
                    self.consecutive_failures = 0
                    return result
            current, exc = exc, None
            if not is_transient(current):
                raise current
            self.stats.failures += 1
            self.consecutive_failures += 1
            self.events.append(
                {
                    "event": "transient_failure",
                    "key": key,
                    "error": type(current).__name__,
                    "message": str(current),
                }
            )
            if (
                not self.downgraded
                and self.consecutive_failures >= self.policy.breaker_threshold
            ):
                self.stats.breaker_trips += 1
                self.events.append({"event": "breaker_trip", "key": key})
                if downgrade is None:
                    raise CircuitOpenError(
                        f"circuit breaker tripped after "
                        f"{self.consecutive_failures} consecutive failures "
                        f"on {key!r}"
                    ) from current
                self.downgraded = True
                self.stats.downgrades += 1
                downgrade(current)
                attempt = 0
                continue
            if attempt >= self.policy.max_retries:
                raise current
            attempt += 1
            self.stats.retries += 1
            self.sleeper(self.policy.backoff_delay(attempt, key))


__all__ = ["FaultPolicy", "FaultStats", "RetryController"]
