"""Configuration of the validation service.

A :class:`ServeConfig` gathers every serving-layer knob — listen address,
admission limits, per-tenant quotas, the coalescing window, worker-tier
sizing, drain behaviour — as one :class:`~repro.api.config.TableSerde`
dataclass, so a service resolves from a plain dict, keyword arguments or a
TOML/JSON file (``[serve]`` table) exactly like every other façade object::

    config = ServeConfig(port=8420, coalesce_window_s=0.01)
    config = ServeConfig.load("serve.toml")

The engine-side knobs (batch size, memory budget) stay in
:class:`~repro.api.config.RunConfig`; a service owns one of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.api.config import TableSerde


@dataclass(frozen=True)
class ServeConfig(TableSerde):
    """How a :class:`~repro.serve.service.ValidationService` admits, merges
    and executes requests.

    Attributes
    ----------
    host / port:
        HTTP listen address (``port=0`` picks a free port; the bound port is
        reported by :meth:`~repro.serve.http.HttpServer.start`).
    max_pending:
        Global cap on requests admitted but not yet finished; beyond it every
        tenant sees 429 until the backlog drains (load shedding).
    tenant_queue_limit:
        Per-tenant cap on in-flight requests — one misbehaving tenant cannot
        occupy the whole pending budget.
    tenant_rate / tenant_burst:
        Token-bucket refill rate (requests/second) and bucket capacity per
        tenant.  ``tenant_rate=0`` disables rate limiting (queue caps still
        apply).
    retry_after_s:
        ``Retry-After`` hint attached to 429 responses.
    coalesce:
        Master switch for the cross-request batching coalescer; off, every
        validate dispatches alone (the benchmark's baseline mode).
    coalesce_window_s:
        How long the first validate of a batch waits for co-travellers
        before the merged dispatch fires.  At the default ``0.0`` a batch
        fires after one event-loop yield: validates already queued on the
        loop still merge, and none waits on a timer.  A positive window is
        the only way to promise one dispatch per burst of identical
        requests.
    max_stacked_models:
        Cap on distinct models fused into one stacked dispatch; arrivals
        beyond it flush immediately and start a new batch.
    tenant_stack_limit:
        Cross-tenant fairness: at most this many of one tenant's models
        share a stacked dispatch; the excess waits for the next dispatch
        (``fairness_evictions`` in ``/stats`` counts the deferrals), so one
        tenant's wide sweep cannot fill ``max_stacked_models`` and starve
        co-tenants.  ``None`` (the default) disables the cap.
    executor_workers:
        Threads in the worker tier that runs CPU-bound Session calls off the
        event loop.
    request_timeout_s:
        Per-request wall-clock budget; expiry maps to HTTP 504.  ``None``
        waits indefinitely.
    read_timeout_s:
        Deadline for reading one HTTP request (header + body) off a
        connection.  Idle or trickling clients are dropped at expiry, so a
        stalled socket can never block graceful drain.
    drain_timeout_s:
        Graceful-shutdown budget: on SIGTERM the listener closes and
        in-flight requests get this long to finish before cancellation.
    artifacts_root:
        The only directory the HTTP surface may touch through path-taking
        request fields (``package``/``model_path``/``save_dir``/``store``…).
        Relative request paths resolve against it; paths escaping it are
        refused with 400.  ``None`` (the default) rejects every
        client-supplied filesystem path outright — in-process callers
        (:class:`~repro.serve.client.AsyncClient`) are unaffected.
    """

    _TABLE = "serve"

    host: str = "127.0.0.1"
    port: int = 8420
    max_pending: int = 64
    tenant_queue_limit: int = 16
    tenant_rate: float = 0.0
    tenant_burst: int = 16
    retry_after_s: float = 1.0
    coalesce: bool = True
    coalesce_window_s: float = 0.0
    max_stacked_models: int = 8
    tenant_stack_limit: Optional[int] = None
    executor_workers: int = 2
    request_timeout_s: Optional[float] = 120.0
    read_timeout_s: float = 10.0
    drain_timeout_s: float = 30.0
    artifacts_root: Optional[str] = None

    def validate(self) -> None:
        if not self.host:
            raise ValueError("host is required")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in 0..65535")
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if self.tenant_queue_limit <= 0:
            raise ValueError("tenant_queue_limit must be positive")
        if self.tenant_rate < 0:
            raise ValueError("tenant_rate must be non-negative")
        if self.tenant_burst <= 0:
            raise ValueError("tenant_burst must be positive")
        if self.retry_after_s < 0:
            raise ValueError("retry_after_s must be non-negative")
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be non-negative")
        if self.max_stacked_models <= 0:
            raise ValueError("max_stacked_models must be positive")
        if self.tenant_stack_limit is not None and self.tenant_stack_limit <= 0:
            raise ValueError("tenant_stack_limit must be positive when given")
        if self.executor_workers <= 0:
            raise ValueError("executor_workers must be positive")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive when given")
        if self.read_timeout_s <= 0:
            raise ValueError("read_timeout_s must be positive")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive")
        if self.artifacts_root is not None and not self.artifacts_root:
            raise ValueError("artifacts_root must be a non-empty path when given")


__all__ = ["ServeConfig"]
