"""Failure taxonomy, the remote-transport retry policy, and chaos injection.

Three pieces, deliberately dependency-free so every subsystem can import
them without cycles:

* :mod:`repro.faults.errors` — the transient/logic failure taxonomy.
* :mod:`repro.faults.policy` — :class:`FaultPolicy` (retries, deterministic
  seeded backoff, circuit breaker) and the :class:`RetryController` that
  enforces it for :class:`repro.online.RemoteModel`'s transport, the one
  place where I/O really fails.  In-process engine calls are not retried.
* :mod:`repro.faults.inject` — the deterministic fault-plan API driving
  ``tests/test_faults.py``: kill or stall campaign shard worker N at unit
  K, raise an error at the Jth engine dispatch, add latency to a named
  layer's forward.
"""

from repro.faults.errors import (
    CampaignAbortedError,
    CircuitOpenError,
    FaultError,
    is_transient,
)
from repro.faults.inject import Fault, FaultPlan
from repro.faults.policy import FaultPolicy, FaultStats, RetryController

__all__ = [
    "CampaignAbortedError",
    "CircuitOpenError",
    "Fault",
    "FaultError",
    "FaultPlan",
    "FaultPolicy",
    "FaultStats",
    "RetryController",
    "is_transient",
]
