"""Deterministic fault injection for the chaos suite.

A :class:`FaultPlan` is an ordered list of :class:`Fault` entries, each
bound to a named **site** in the stack and a schedule over that site's
hit counter.  Activating a plan (``with inject.activate(plan):``) arms a
module-global pointer that instrumented code consults via
:func:`check`; with no plan active the instrumentation reduces to one
``is not None`` test (:func:`active`), keeping the fault-free hot path
unmeasurable.

Sites currently instrumented:

================== ====================================== =================
site               where                                   context keys
================== ====================================== =================
``engine.dispatch``   every ``Engine`` call into the model ``op``
``layer.forward``     each layer ``Sequential._run`` runs  ``layer, index, model``
``campaign.scenario`` per attack group in the runner       ``model, attack``
``campaign.shard``    per pulled unit in a shard worker    ``shard, model, attack``
================== ====================================== =================

``layer.forward`` sees every layer a model runs, inference or training,
including the suffix layers a perturbed copy runs from its victim's trunk
(:meth:`~repro.engine.Engine.stacked_forward`, SBA's flip check); layers
whose output is read from the trunk do not run and are not checked.

At ``engine.dispatch`` the ``op`` is the engine query making the call:
``forward``, ``forward_collect``, ``output_gradients``, ``input_gradients``,
``loss_parameter_gradients`` or ``stacked_forward`` (one call per chunk,
for all the copies of the query).

Scheduling is per-fault and deterministic: each time :func:`check` runs
for a matching site/context the fault's hit counter advances, and the
fault fires when the 0-based ordinal is in ``at``, or divisible by
``every``, capped by ``times``.  ``raise`` and ``latency`` actions are
executed by :func:`check` itself; site-specific actions
(``kill_worker``/``stall_worker``) are returned to the caller, which
knows how to apply them: at ``campaign.shard`` the targeted shard worker
SIGKILLs or hangs itself.
"""

from __future__ import annotations

import builtins
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type, Union

ACTIONS = ("raise", "latency", "kill_worker", "stall_worker")


@dataclass
class Fault:
    """One scheduled fault at one site; mutable hit/fire counters ride along."""

    site: str
    action: str = "raise"
    exception: Union[str, Type[BaseException]] = "IOError"
    message: str = "injected fault"
    latency_s: float = 0.0
    worker: int = 0
    match: Dict[str, object] = field(default_factory=dict)
    at: Optional[Tuple[int, ...]] = None
    every: Optional[int] = None
    times: Optional[int] = None
    hits: int = 0
    fires: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if self.at is not None:
            self.at = tuple(int(i) for i in self.at)

    def matches(self, ctx: Dict[str, object]) -> bool:
        return all(ctx.get(key) == value for key, value in self.match.items())

    def scheduled(self, ordinal: int) -> bool:
        if self.times is not None and self.fires >= self.times:
            return False
        if self.at is not None:
            return ordinal in self.at
        if self.every is not None:
            return ordinal % self.every == 0
        return True

    def build_exception(self) -> BaseException:
        exc_type = self.exception
        if isinstance(exc_type, str):
            resolved = getattr(builtins, exc_type, None)
            if resolved is None or not (
                isinstance(resolved, type) and issubclass(resolved, BaseException)
            ):
                raise ValueError(f"unknown exception type {exc_type!r}")
            exc_type = resolved
        return exc_type(self.message)


class FaultPlan:
    """An ordered set of faults plus a log of every firing (site + context)."""

    def __init__(self) -> None:
        self.faults: List[Fault] = []
        self.log: List[Dict[str, object]] = []

    def add(self, fault: Fault) -> Fault:
        self.faults.append(fault)
        return fault

    # -- builders ---------------------------------------------------------
    def raise_error(
        self,
        site: str,
        exception: Union[str, Type[BaseException]] = "IOError",
        *,
        message: str = "injected fault",
        at: Optional[Tuple[int, ...]] = None,
        every: Optional[int] = None,
        times: Optional[int] = None,
        **match: object,
    ) -> Fault:
        return self.add(
            Fault(
                site=site,
                action="raise",
                exception=exception,
                message=message,
                at=at,
                every=every,
                times=times,
                match=match,
            )
        )

    def latency(
        self,
        site: str,
        seconds: float,
        *,
        at: Optional[Tuple[int, ...]] = None,
        every: Optional[int] = None,
        times: Optional[int] = None,
        **match: object,
    ) -> Fault:
        return self.add(
            Fault(
                site=site,
                action="latency",
                latency_s=float(seconds),
                at=at,
                every=every,
                times=times,
                match=match,
            )
        )

    def kill_worker(
        self,
        worker: int = 0,
        *,
        site: str = "campaign.shard",
        at: Optional[Tuple[int, ...]] = None,
        every: Optional[int] = None,
        times: Optional[int] = None,
        **match: object,
    ) -> Fault:
        return self.add(
            Fault(
                site=site,
                action="kill_worker",
                worker=worker,
                at=at,
                every=every,
                times=times,
                match=match,
            )
        )

    def stall_worker(
        self,
        worker: int = 0,
        *,
        site: str = "campaign.shard",
        at: Optional[Tuple[int, ...]] = None,
        every: Optional[int] = None,
        times: Optional[int] = None,
        **match: object,
    ) -> Fault:
        return self.add(
            Fault(
                site=site,
                action="stall_worker",
                worker=worker,
                at=at,
                every=every,
                times=times,
                match=match,
            )
        )

    # -- evaluation -------------------------------------------------------
    def consume(self, site: str, ctx: Dict[str, object]) -> Optional[Fault]:
        """Advance hit counters for ``site``; return the first fault that fires.

        Every matching fault's counter advances on every call (so multiple
        faults at one site keep independent, reproducible schedules), but at
        most one fault fires per check.
        """
        fired: Optional[Fault] = None
        for fault in self.faults:
            if fault.site != site or not fault.matches(ctx):
                continue
            ordinal = fault.hits
            fault.hits += 1
            if fired is None and fault.scheduled(ordinal):
                fault.fires += 1
                fired = fault
                self.log.append(
                    {"site": site, "action": fault.action, "ordinal": ordinal, **ctx}
                )
        return fired

    def fired(self, site: Optional[str] = None) -> int:
        """Total firings, optionally restricted to one site."""
        return sum(1 for entry in self.log if site is None or entry["site"] == site)


_PLAN: Optional[FaultPlan] = None


def active() -> bool:
    """Cheap guard for instrumentation sites: is any plan armed?"""
    return _PLAN is not None


@contextmanager
def activate(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block (plans do not nest)."""
    global _PLAN
    if _PLAN is not None:
        raise RuntimeError("a fault plan is already active")
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = None


def check(site: str, **ctx: object) -> Optional[Fault]:
    """Consult the active plan at ``site``.

    ``raise`` faults raise here; ``latency`` faults sleep here and return
    ``None``; site-specific actions are returned for the caller to apply.
    Returns ``None`` (fast) when no plan is active or nothing fires.
    """
    plan = _PLAN
    if plan is None:
        return None
    fault = plan.consume(site, ctx)
    if fault is None:
        return None
    if fault.action == "latency":
        time.sleep(fault.latency_s)
        return None
    if fault.action == "raise":
        raise fault.build_exception()
    return fault


__all__ = ["ACTIONS", "Fault", "FaultPlan", "activate", "active", "check"]
