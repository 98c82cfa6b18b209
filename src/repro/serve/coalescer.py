"""The cross-request batching coalescer.

Concurrent validate requests usually replay the *same* validation package
against IPs that differ only in parameter values (the paper's attack sweep
shape: one victim, many perturbed copies).  Dispatching them one by one
wastes exactly the structure :meth:`repro.engine.Engine.stacked_forward`
exploits, so the service funnels every model-backed validate through this
coalescer instead:

* requests are grouped by an opaque **group key** the service derives from
  the exact bytes of the package's tests
  (:func:`~repro.engine.cache.array_fingerprint` — a dispatch reads nothing
  else of the package, so packages that differ only in references, masks
  or metadata share a group and are still scored apart) *and* the model's
  architecture signature, so only stack-compatible models ever share a
  dispatch (a shape-tampered IP gets its own single-model dispatch and
  scores as tampering, never as an error that fails innocent
  co-travellers);
* within a group, requests are keyed by the IP's **digest**, the hash of
  its exact parameter bytes (:func:`~repro.engine.cache.exact_model_key`):
  two requests for the same digest share one future (in-flight dedup — the
  second is answered by the first's dispatch, including requests that
  arrive while the dispatch is already running);
* distinct digests on the same package are fused into **one stacked
  dispatch** — ``stacked_forward(models, tests)`` — whose slice ``m`` is
  bit-identical to running model ``m`` alone, so coalescing is invisible in
  the response bytes.

The first request of a group opens a **coalescing window**
(``window_s``); co-travellers arriving inside it join the batch, and the
group flushes early when it reaches ``max_models``.  The default window is
zero: a group flushes after one event-loop yield, so requests already
queued on the loop still share a dispatch, but none waits on a timer.
A positive window is the only way to promise one dispatch per burst.
Everything here runs on the event loop; the dispatch callable is the only
thing that touches worker threads.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.logging import get_logger
from repro.validation.package import ValidationPackage

logger = get_logger("serve.coalescer")

#: async dispatch callable: (package, models) → stacked logits of shape
#: ``(len(models), num_tests, num_classes)``
StackedDispatch = Callable[
    [ValidationPackage, Sequence[object]], Awaitable[np.ndarray]
]


@dataclass
class CoalescerStats:
    """Observability counters surfaced by ``/stats``.

    ``requests`` counts every submit; ``dispatches`` counts engine calls
    actually made.  The difference is work the coalescer absorbed — either
    by stacking distinct models into one dispatch or by deduplicating
    identical in-flight requests.
    """

    requests: int = 0
    dispatches: int = 0
    #: requests answered by a future they did not create (same package, same
    #: model digest — pure dedup, no extra compute at all)
    deduped: int = 0
    #: models shipped across all stacked dispatches (Σ batch sizes)
    stacked_models: int = 0
    #: largest single dispatch (distinct models fused at once)
    max_stacked: int = 0
    #: multi-model dispatches that failed and were retried model-by-model
    #: (isolation: one poisoned co-traveller must not fail the group)
    fallbacks: int = 0
    #: submits deferred to a later dispatch because their tenant already
    #: held ``max_per_tenant`` slots in the open group (cross-tenant
    #: fairness: one tenant's wide sweep cannot fill ``max_models``)
    fairness_evictions: int = 0
    #: dispatches started while another of this coalescer's dispatches was
    #: in flight (the service runs one at a time, so these queued for it)
    lane_waits: int = 0
    #: total seconds during which at least one dispatch was in flight
    lane_busy_s: float = 0.0

    @property
    def coalesced(self) -> int:
        """Requests that did not pay for their own dispatch.

        Floored at zero: a failed stacked dispatch retried model-by-model
        (see ``fallbacks``) can cost more dispatches than requests.
        """
        return max(0, self.requests - self.dispatches)

    @property
    def hit_rate(self) -> float:
        """Fraction of requests absorbed into a shared dispatch."""
        return self.coalesced / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "dispatches": self.dispatches,
            "deduped": self.deduped,
            "coalesced": self.coalesced,
            "stacked_models": self.stacked_models,
            "max_stacked": self.max_stacked,
            "fallbacks": self.fallbacks,
            "fairness_evictions": self.fairness_evictions,
            "lane_waits": self.lane_waits,
            "lane_busy_s": round(self.lane_busy_s, 6),
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class _Group:
    """Requests waiting on one group key's next dispatch."""

    package: ValidationPackage
    #: model digest → (model, shared result future, tenant)
    entries: "Dict[str, Tuple[object, asyncio.Future, str]]" = field(
        default_factory=dict
    )
    #: per-tenant-capped spillover, dispatched by the successor group:
    #: (digest, model, future, tenant) in arrival order
    overflow: "List[Tuple[str, object, asyncio.Future, str]]" = field(
        default_factory=list
    )
    flush_task: "asyncio.Task | None" = None


class BatchingCoalescer:
    """Merge concurrent validates into stacked engine dispatches.

    Parameters
    ----------
    dispatch:
        Async callable running one stacked forward; the service routes it
        through the worker tier and serialises engine access.
    window_s:
        Coalescing window opened by a group's first request.  Zero (the
        default) still yields to the event loop once, so a burst of
        already-queued requests coalesces even with no deliberate delay.
    max_models:
        Flush early once a group holds this many distinct models.
    max_per_tenant:
        Cross-tenant fairness cap: at most this many of one tenant's
        entries share a stacked dispatch; the excess is deferred (counted
        in ``fairness_evictions``) to the successor group's window, so a
        single tenant's wide sweep cannot fill ``max_models`` and starve
        co-tenants of the batch. ``None`` disables the cap.
    enabled:
        Off, every submit dispatches alone (the benchmark baseline); stats
        keep counting so the two modes stay comparable.
    """

    def __init__(
        self,
        dispatch: StackedDispatch,
        window_s: float = 0.0,
        max_models: int = 8,
        max_per_tenant: "int | None" = None,
        enabled: bool = True,
    ) -> None:
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        if max_models <= 0:
            raise ValueError("max_models must be positive")
        if max_per_tenant is not None and max_per_tenant <= 0:
            raise ValueError("max_per_tenant must be positive when given")
        self._dispatch = dispatch
        self.window_s = float(window_s)
        self.max_models = int(max_models)
        self.max_per_tenant = max_per_tenant
        self.enabled = bool(enabled)
        self.stats = CoalescerStats()
        self._groups: Dict[str, _Group] = {}
        #: (group key, model digest) → in-flight result future; entries
        #: live until their dispatch resolves, so late duplicates of a
        #: running dispatch still dedup instead of re-dispatching
        self._futures: Dict[Tuple[str, str], asyncio.Future] = {}
        self._tasks: "set[asyncio.Task]" = set()
        #: dispatches in flight, and when that count last left zero (the
        #: ``lane_waits`` / ``lane_busy_s`` stats)
        self._in_flight = 0
        self._busy_since = 0.0

    async def submit(
        self,
        group_key: str,
        package: ValidationPackage,
        digest: str,
        model: object,
        tenant: str = "default",
    ) -> np.ndarray:
        """Observed logits for ``model`` on ``package``'s tests.

        ``group_key`` is opaque here; the service builds it from the tests'
        fingerprint plus the model's architecture signature, so everything
        sharing a key is stack-compatible.  Identical concurrent submits
        (same key, same digest) share one dispatch; distinct digests on the
        same key fuse into one stacked dispatch after the coalescing window.
        ``tenant`` feeds the per-dispatch fairness cap (``max_per_tenant``).
        """
        self.stats.requests += 1
        if not self.enabled:
            self.stats.dispatches += 1
            self.stats.stacked_models += 1
            self.stats.max_stacked = max(self.stats.max_stacked, 1)
            stacked = await self._dispatch(package, [model])
            return stacked[0]

        key = (group_key, digest)
        existing = self._futures.get(key)
        if existing is not None:
            self.stats.deduped += 1
            return await asyncio.shield(existing)

        loop = asyncio.get_running_loop()
        group = self._groups.get(group_key)
        if group is None:
            group = _Group(package=package)
            self._groups[group_key] = group
            group.flush_task = loop.create_task(self._flush_after_window(group_key))
        future: asyncio.Future = loop.create_future()
        self._futures[key] = future
        joined = self._join(group, digest, model, future, tenant)
        if joined and len(group.entries) >= self.max_models:
            self._flush(group_key)
        # shielded: one timed-out waiter must not cancel the shared result
        return await asyncio.shield(future)

    def _join(
        self,
        group: _Group,
        digest: str,
        model: object,
        future: asyncio.Future,
        tenant: str,
    ) -> bool:
        """Seat an entry in ``group``, or defer it when its tenant is at cap.

        Returns ``True`` when the entry joined the open dispatch; deferred
        entries (``False``) ride the group's ``overflow`` into the successor
        group that :meth:`_flush` opens, keeping their already-registered
        dedup future alive the whole time.
        """
        if self.max_per_tenant is not None:
            seated = sum(1 for _, _, t in group.entries.values() if t == tenant)
            if seated >= self.max_per_tenant:
                self.stats.fairness_evictions += 1
                group.overflow.append((digest, model, future, tenant))
                return False
        group.entries[digest] = (model, future, tenant)
        return True

    async def _flush_after_window(self, group_key: str) -> None:
        try:
            await asyncio.sleep(self.window_s)
        except asyncio.CancelledError:
            return
        self._flush(group_key, from_window=True)

    def _flush(self, group_key: str, from_window: bool = False) -> None:
        group = self._groups.pop(group_key, None)
        if group is None:
            return
        if not from_window and group.flush_task is not None:
            group.flush_task.cancel()
        loop = asyncio.get_running_loop()
        if group.overflow:
            # fairness-deferred entries open the successor group immediately,
            # with its own window, so they wait at most one extra dispatch
            successor = _Group(package=group.package)
            self._groups[group_key] = successor
            successor.flush_task = loop.create_task(
                self._flush_after_window(group_key)
            )
            for digest, model, future, tenant in group.overflow:
                self._join(successor, digest, model, future, tenant)
        task = loop.create_task(self._run_dispatch(group_key, group))
        # keep a strong reference until done (asyncio only holds weak ones)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        successor = self._groups.get(group_key)
        if successor is not None and len(successor.entries) >= self.max_models:
            self._flush(group_key)

    async def _run_dispatch(self, group_key: str, group: _Group) -> None:
        digests = list(group.entries)
        models = [group.entries[d][0] for d in digests]
        self.stats.dispatches += 1
        self.stats.stacked_models += len(models)
        self.stats.max_stacked = max(self.stats.max_stacked, len(models))
        if self._in_flight:
            self.stats.lane_waits += 1
        else:
            self._busy_since = time.perf_counter()
        self._in_flight += 1
        if len(models) > 1:
            logger.info(
                "coalesced dispatch: %d models on group %s",
                len(models),
                group_key[:12],
            )
        try:
            stacked = await self._dispatch(group.package, models)
        except Exception as exc:
            if len(models) == 1:
                for digest in digests:
                    _, future, _ = group.entries[digest]
                    if not future.done():
                        future.set_exception(exc)
            else:
                # the grouping key should make this unreachable, but one
                # poisoned model must never fail its co-travellers: retry
                # each model alone and settle every future on its own merits
                logger.warning(
                    "stacked dispatch of %d models failed (%s); "
                    "retrying each model alone",
                    len(models),
                    exc,
                )
                self.stats.fallbacks += 1
                for digest in digests:
                    model, future, _ = group.entries[digest]
                    self.stats.dispatches += 1
                    self.stats.stacked_models += 1
                    try:
                        single = await self._dispatch(group.package, [model])
                    except Exception as single_exc:
                        if not future.done():
                            future.set_exception(single_exc)
                    else:
                        if not future.done():
                            future.set_result(single[0])
        else:
            for index, digest in enumerate(digests):
                _, future, _ = group.entries[digest]
                if not future.done():
                    future.set_result(stacked[index])
        finally:
            for digest in digests:
                self._futures.pop((group_key, digest), None)
            self._in_flight -= 1
            if not self._in_flight:
                self.stats.lane_busy_s += time.perf_counter() - self._busy_since

    async def drain(self) -> None:
        """Flush every open window and wait for in-flight dispatches.

        Loops because flushing a group with fairness-deferred overflow opens
        a successor group, which must flush (and dispatch) too.
        """
        while self._groups or self._tasks:
            for group_key in list(self._groups):
                self._flush(group_key)
            while self._tasks:
                await asyncio.gather(*list(self._tasks), return_exceptions=True)


__all__ = ["BatchingCoalescer", "CoalescerStats", "StackedDispatch"]
