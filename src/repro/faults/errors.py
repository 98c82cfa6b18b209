"""Exception taxonomy for the fault layer.

Two families matter operationally:

* **Transient** failures — a connection or timer timed out — are worth
  retrying.  A remote transport retries them under a
  :class:`~repro.faults.FaultPolicy`, whose circuit breaker raises
  :class:`CircuitOpenError` past its threshold.  Nothing in-process retries:
  a memory-mapped mask store torn under its mapping is a SIGBUS, not an
  exception.
* **Logic** failures — bad shapes, unknown ops, assertion-grade bugs —
  propagate immediately: retrying a deterministic error only hides it.

:func:`is_transient` encodes the split in one place for
:class:`~repro.faults.RetryController`.
"""

from __future__ import annotations


class FaultError(RuntimeError):
    """Base class for failures raised by the fault-tolerance layer itself."""


class CircuitOpenError(FaultError):
    """The breaker tripped: too many consecutive transient failures."""


class CampaignAbortedError(FaultError):
    """Quarantined-scenario count exceeded the campaign's failure budget."""


#: exception types retried under a :class:`FaultPolicy`; everything else is
#: treated as a logic error and propagates on the first occurrence
TRANSIENT_TYPES = (
    OSError,  # covers IOError and ConnectionError
    TimeoutError,
)


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` is worth retrying under a fault policy."""
    return isinstance(exc, TRANSIENT_TYPES)


__all__ = [
    "CampaignAbortedError",
    "CircuitOpenError",
    "FaultError",
    "TRANSIENT_TYPES",
    "is_transient",
]
