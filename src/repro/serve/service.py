"""The validation service: admission → coalescing → worker-tier execution.

:class:`ValidationService` is the transport-independent core shared by the
HTTP front end (:mod:`repro.serve.http`) and the in-process
:class:`~repro.serve.client.AsyncClient`.  It owns exactly one
:class:`~repro.api.Session` and runs the three paper operations
concurrently for many tenants:

* **admission** — every request passes the
  :class:`~repro.serve.quota.AdmissionController` first (global backlog
  cap, per-tenant in-flight cap, per-tenant token bucket); refusals carry a
  ``Retry-After`` hint and cost no compute;
* **coalescing** — model-backed validates route through the
  :class:`~repro.serve.coalescer.BatchingCoalescer`, which merges
  concurrent requests on the same tests into single stacked dispatches
  (bit-identical per-model slices, see the coalescer docs).  Its window
  (``coalesce_window_s``) defaults to 0: a group dispatches after one
  event-loop yield, so no request waits on a timer.  The group key
  pairs the exact bytes of the package's tests
  (:func:`~repro.engine.cache.array_fingerprint`) with the model's
  **architecture signature** (input shape plus per-layer types and
  output shapes), so only stack-compatible models fuse — a
  shape-tampered IP dispatches alone and scores as tampering instead of
  erroring out its co-travellers — and each request is still scored
  against its own package;
* **worker tier** — CPU-bound Session work runs on a
  :class:`~concurrent.futures.ThreadPoolExecutor` via
  ``loop.run_in_executor``, keeping the event loop responsive; engine
  dispatches run one at a time on a single dispatch lane (one lock).
  Neither inference nor a gradient query keeps state on a model, so a
  second lane would return the same bytes; the lane count is a
  scheduling choice (the Session docstring's concurrency contract);
* **draining** — :meth:`drain` stops admitting, lets in-flight work finish
  inside ``drain_timeout_s``, flushes the coalescer and closes the session
  (the HTTP layer calls it from its SIGTERM handler).

Determinism: the serve session always runs with ``batch_size=256`` — the
same chunk size :meth:`repro.nn.model.Sequential.predict` uses — so a
validate answered through a coalesced stacked dispatch is byte-identical
to the in-process :func:`repro.validation.validate_ip` path.  A caller's
``run_config`` with a different ``batch_size`` is overridden (with a
warning); every other run knob is honoured.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.api.config import RunConfig
from repro.api.requests import (
    ReleasePackage,
    ReleaseRequest,
    SweepRequest,
    ValidateRequest,
    ValidationOutcome,
)
from repro.api.session import BlackBox, Session
from repro.engine.cache import BatchResultCache, array_fingerprint, exact_model_key
from repro.nn.model import Sequential
from repro.serve.coalescer import BatchingCoalescer
from repro.serve.config import ServeConfig
from repro.serve.quota import AdmissionController, QuotaExceeded
from repro.utils.logging import get_logger
from repro.validation.package import ValidationPackage
from repro.validation.user import report_from_outputs, validate_ip

logger = get_logger("serve.service")

#: serve-side engine chunk size; matches ``Sequential.predict``'s default so
#: coalesced dispatches replay tests through the identical op sequence
SERVE_BATCH_SIZE = 256

#: models loaded for raw ``/v1/query`` inference that stay cached at once
_QUERY_MODEL_CACHE_SIZE = 32


class ServiceDraining(Exception):
    """The service is shutting down and no longer admits requests (HTTP 503)."""


class RequestTimeout(Exception):
    """A request exceeded ``request_timeout_s`` (HTTP 504)."""


class ValidationService:
    """Async multi-tenant façade over one :class:`~repro.api.Session`.

    Parameters
    ----------
    config:
        A :class:`ServeConfig`, a dict of its fields, or ``None``; keyword
        overrides apply either way.
    run_config:
        The session's :class:`RunConfig`; ``batch_size`` is always pinned
        to :data:`SERVE_BATCH_SIZE` (byte-stable coalescing — see the
        module docstring), overriding — with a warning — any other value a
        supplied config carries.
    """

    def __init__(
        self,
        config: Union[ServeConfig, Dict[str, object], None] = None,
        run_config: Union[RunConfig, Dict[str, object], None] = None,
        **overrides: object,
    ) -> None:
        self.config = ServeConfig.coerce(config, **overrides)
        if run_config is None:
            run_config = RunConfig(batch_size=SERVE_BATCH_SIZE)
        else:
            run_config = RunConfig.coerce(run_config)
            if run_config.batch_size != SERVE_BATCH_SIZE:
                # any other chunk size silently breaks the byte-identity
                # guarantee between coalesced serving and validate_ip
                logger.warning(
                    "overriding run_config.batch_size=%d with the pinned "
                    "serve batch size %d (byte-stable coalescing)",
                    run_config.batch_size,
                    SERVE_BATCH_SIZE,
                )
                run_config = run_config.with_overrides(
                    batch_size=SERVE_BATCH_SIZE
                )
        self.session = Session(run_config)
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            tenant_queue_limit=self.config.tenant_queue_limit,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            retry_after_s=self.config.retry_after_s,
        )
        self.coalescer = BatchingCoalescer(
            self._dispatch_stacked,
            window_s=self.config.coalesce_window_s,
            max_models=self.config.max_stacked_models,
            max_per_tenant=self.config.tenant_stack_limit,
            enabled=self.config.coalesce,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="repro-serve",
        )
        # one dispatch lane: coalescing, not thread fan-out, is how this
        # service scales.  A coalesced dispatch that finds the lane busy
        # waits here in a worker thread (``lane_waits`` in /stats counts
        # them).  Every query would be bit-stable on two lanes (a model
        # keeps no per-pass state and no gradient), but a second lane is a
        # scheduling change to measure on a load that keeps this one busy
        self._dispatch_lock = threading.Lock()
        # models loaded for raw /v1/query inference, keyed by file identity
        self._query_models = BatchResultCache(max_entries=_QUERY_MODEL_CACHE_SIZE)
        self._draining = False
        self._closed = False
        self._started = time.monotonic()
        self._operations: Dict[str, int] = {
            "release": 0,
            "validate": 0,
            "sweep": 0,
            "query": 0,
        }
        #: billable-query accounting surfaced by ``/stats`` — the online
        #: verifier's CI assertion reads ``inputs`` (fingerprints served)
        self._queries: Dict[str, int] = {"requests": 0, "inputs": 0}

    # -- plumbing ------------------------------------------------------------
    async def _in_executor(self, fn, *args, **kwargs):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, partial(fn, *args, **kwargs)
        )

    def _check_admits(self) -> None:
        if self._draining or self._closed:
            raise ServiceDraining("service is draining; no new requests admitted")

    async def _timed(self, coroutine):
        timeout = self.config.request_timeout_s
        if timeout is None:
            return await coroutine
        try:
            return await asyncio.wait_for(coroutine, timeout)
        except asyncio.TimeoutError:
            raise RequestTimeout(
                f"request exceeded the {timeout:g}s budget"
            ) from None

    async def _dispatch_stacked(
        self, package: ValidationPackage, models: Sequence[object]
    ) -> np.ndarray:
        """One coalesced engine dispatch on the worker tier."""

        def run() -> np.ndarray:
            with self._dispatch_lock:
                engine = self.session.engine_for(models[0])
                return engine.stacked_forward(list(models), package.tests)

        return await self._in_executor(run)

    # -- the three operations ------------------------------------------------
    async def validate(
        self,
        request: Union[ValidateRequest, Dict[str, object], None] = None,
        ip: Optional[BlackBox] = None,
        tenant: str = "default",
        **overrides: object,
    ) -> ValidationOutcome:
        """Concurrent-safe :meth:`Session.validate` with coalescing.

        ``request`` may be a :class:`ValidateRequest`, a plain field dict or
        a wire envelope.  Model-backed IPs (a :class:`Sequential`, given
        directly or loaded from ``model_path``) go through the coalescer;
        opaque callables cannot be stacked and run alone on the worker tier.
        """
        self._check_admits()
        self.admission.admit(tenant)
        try:
            outcome = await self._timed(
                self._validate_inner(request, ip, overrides, tenant)
            )
            self._operations["validate"] += 1
            return outcome
        finally:
            self.admission.release(tenant)

    async def _validate_inner(
        self,
        request: Union[ValidateRequest, Dict[str, object], None],
        ip: Optional[BlackBox],
        overrides: Dict[str, object],
        tenant: str = "default",
    ) -> ValidationOutcome:
        req = ValidateRequest.coerce(request, **overrides)
        package = await self._in_executor(req.resolve_package)
        if ip is None:
            if req.model_path is None:
                raise ValueError(
                    "no IP to validate: pass ip=... or set model_path on the request"
                )
            ip = await self._in_executor(self.session.load_ip, req)
        if isinstance(ip, Sequential):
            signature = ip.architecture_signature()
            tests_fp, digest = await self._in_executor(
                lambda: (array_fingerprint(package.tests), exact_model_key(ip, signature))
            )
            # a dispatch reads only the tests, so packages that share them
            # share a group; architecture in the key: only models the engine
            # may stack together (same layers, activations and shapes) do
            group_key = f"{tests_fp}#{signature!r}"
            observed = await self.coalescer.submit(
                group_key, package, digest, ip, tenant=tenant
            )
            report = report_from_outputs(observed, package)
        else:
            report = await self._in_executor(validate_ip, ip, package)
        return ValidationOutcome.from_report(report, package)

    async def query(
        self,
        request: Union[Dict[str, object], None] = None,
        tenant: str = "default",
        **overrides: object,
    ) -> Dict[str, object]:
        """Raw black-box inference: logits for a batch of inputs.

        The remote half of the online-verification loop
        (:class:`repro.online.HttpTransport` posts here): the server loads
        ``model_path`` into the named ``arch`` and runs its forward pass,
        charging one billable query per input row.  ``repr``-based JSON
        float serialisation returns the float64 logits exactly, so a full
        replay over this endpoint is byte-identical to in-process
        validation.
        """
        self._check_admits()
        self.admission.admit(tenant)
        try:
            result = await self._timed(self._query_inner(request, overrides))
            self._operations["query"] += 1
            return result
        finally:
            self.admission.release(tenant)

    async def _query_inner(
        self,
        request: Union[Dict[str, object], None],
        overrides: Dict[str, object],
    ) -> Dict[str, object]:
        data = dict(request or {})
        data.update(overrides)
        inputs = data.get("inputs")
        if inputs is None:
            raise ValueError("query needs 'inputs' (a batch of test vectors)")
        array = np.asarray(inputs, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        if array.ndim < 2 or array.shape[0] == 0:
            raise ValueError(
                f"query inputs must be a non-empty batch (leading batch "
                f"axis), got shape {array.shape}"
            )
        model = await self._in_executor(self._query_model, data)

        def run() -> np.ndarray:
            with self._dispatch_lock:
                return model.predict(array)

        outputs = await self._in_executor(run)
        self._queries["requests"] += 1
        self._queries["inputs"] += int(array.shape[0])
        return {
            "outputs": outputs.tolist(),
            "num_inputs": int(array.shape[0]),
            "num_classes": int(outputs.shape[1]),
        }

    def _query_model(self, data: Dict[str, object]) -> Sequential:
        """Load (or fetch the cached) model a query addresses.

        Keyed by the model file's identity (path + mtime + size) plus the
        rebuild parameters, so republishing a model file under the same
        path invalidates the cached instance.
        """
        from pathlib import Path

        model_path = data.get("model_path")
        if not model_path:
            raise ValueError("query needs 'model_path' (the served model file)")
        req = ValidateRequest(
            # placeholder: raw queries never touch a validation package, but
            # the request type requires a non-empty field
            package="<query>",
            model_path=str(model_path),
            arch=str(data.get("arch", "mnist")),
            width_multiplier=float(data.get("width_multiplier", 0.125)),
            input_size=(
                int(data["input_size"])
                if data.get("input_size") is not None
                else None
            ),
        )
        stat = Path(str(model_path)).stat()
        key = (
            str(model_path),
            stat.st_mtime_ns,
            stat.st_size,
            req.arch,
            req.width_multiplier,
            req.input_size,
        )
        model = self._query_models.get(key)
        if model is None:
            model = self.session.load_ip(req)
            self._query_models.put(key, model)
        return model

    async def release(
        self,
        request: Union[ReleaseRequest, Dict[str, object], None] = None,
        tenant: str = "default",
        **overrides: object,
    ) -> ReleasePackage:
        """Concurrent-safe :meth:`Session.release` on the worker tier."""
        self._check_admits()
        self.admission.admit(tenant)
        try:
            req = ReleaseRequest.coerce(request, **overrides)

            def run() -> ReleasePackage:
                with self._dispatch_lock:
                    return self.session.release(req)

            released = await self._timed(self._in_executor(run))
            self._operations["release"] += 1
            return released
        finally:
            self.admission.release(tenant)

    async def sweep(
        self,
        request: Union[SweepRequest, Dict[str, object], None] = None,
        tenant: str = "default",
        **overrides: object,
    ):
        """Concurrent-safe :meth:`Session.sweep` on the worker tier."""
        self._check_admits()
        self.admission.admit(tenant)
        try:
            req = SweepRequest.coerce(request, **overrides)

            def run():
                with self._dispatch_lock:
                    return self.session.sweep(req)

            summary = await self._timed(self._in_executor(run))
            self._operations["sweep"] += 1
            return summary
        finally:
            self.admission.release(tenant)

    # -- observability -------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        """Liveness body: ``ok`` while admitting, ``draining`` after."""
        return {
            "status": "draining" if (self._draining or self._closed) else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` body: coalescer, admission and engine state."""
        engine_stats = self.session.engine_stats()
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining or self._closed,
            "operations": dict(self._operations),
            "queries": dict(self._queries),
            "coalescer": self.coalescer.stats.to_dict(),
            "admission": self.admission.snapshot(),
            "engine": {
                "hits": engine_stats.hits,
                "misses": engine_stats.misses,
                "evictions": engine_stats.evictions,
                "hit_rate": round(engine_stats.hit_rate, 4),
            },
        }

    # -- lifecycle -----------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting, let in-flight work finish, release resources.

        Called by the HTTP layer's SIGTERM handler; bounded by
        ``drain_timeout_s`` — requests still running at the deadline are
        abandoned to their own timeouts.
        """
        if self._closed:
            return
        self._draining = True
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self.admission.pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        await self.coalescer.drain()
        if self.admission.pending:
            logger.info(
                "drain deadline reached with %d requests still pending",
                self.admission.pending,
            )
        self.close()

    def close(self) -> None:
        """Synchronous teardown (idempotent): worker tier, then the session."""
        if self._closed:
            return
        self._draining = True
        self._closed = True
        self._executor.shutdown(wait=True)
        self._query_models.clear()
        self.session.close()

    async def __aenter__(self) -> "ValidationService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.drain()


__all__ = [
    "QuotaExceeded",
    "RequestTimeout",
    "SERVE_BATCH_SIZE",
    "ServiceDraining",
    "ValidationService",
]
