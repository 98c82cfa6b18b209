"""Fault-tolerant transports and the :class:`RemoteModel` adapter.

A *transport* answers one question — "here is a batch of inputs, give me
the endpoint's logits" — and :class:`RemoteModel` layers the client-side
economics on top: micro-batching, deterministic retry/backoff through the
existing :class:`repro.faults.FaultPolicy` machinery, token-bucket rate
limiting (:class:`repro.serve.quota.TokenBucket`), and a response cache
keyed on each input row's exact bytes
(:func:`repro.engine.cache.array_fingerprint`), so a repeated input is never
re-billed and an input that differs in any bit is always sent.
Every billable event lands in the :class:`QueryLedger`, which merges into
validation stats.

Transports are registry components (namespace ``transports``): ``callable``
wraps any in-process ``inputs -> logits`` function, ``http`` speaks the
``/v1/query`` wire endpoint of a live ``python -m repro serve`` process.
Transient remote failures (connection errors, timeouts, HTTP 408/429/5xx)
raise :class:`TransportError`, an :class:`OSError` subclass — exactly what
:func:`repro.faults.errors.is_transient` already classifies as retryable —
while logic errors (HTTP 4xx) propagate as ``ValueError`` immediately.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.api.wire import envelope, open_envelope
from repro.engine.cache import array_fingerprint
from repro.faults.policy import FaultPolicy, RetryController
from repro.registry import register, registry
from repro.serve.quota import TokenBucket

#: HTTP statuses treated as transient (retryable) transport failures.
TRANSIENT_HTTP_STATUSES = frozenset({408, 429, 500, 502, 503, 504})


class TransportError(OSError):
    """A transient remote failure: connection trouble, timeout, 429/5xx.

    Subclasses :class:`OSError` so the existing transient-fault
    classification (and therefore :class:`~repro.faults.policy.RetryController`)
    retries it without any new special cases.
    """


@dataclass
class QueryLedger:
    """Billable-event accounting for one :class:`RemoteModel`.

    ``queries_sent`` counts individual inputs that actually went over the
    transport (the metered quantity); ``requests`` counts transport round
    trips (micro-batches); ``cache_hits`` counts inputs answered from the
    fingerprint cache without billing; ``retries`` mirrors the fault
    layer's retry count; ``wall_time_s`` is time spent inside remote calls.
    """

    queries_sent: int = 0
    requests: int = 0
    cache_hits: int = 0
    retries: int = 0
    wall_time_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "queries_sent": self.queries_sent,
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "wall_time_s": self.wall_time_s,
        }


class CallableTransport:
    """Wrap an arbitrary in-process ``inputs -> logits`` callable."""

    name = "callable"

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        if not callable(fn):
            raise TypeError("CallableTransport needs a callable endpoint")
        self._fn = fn

    def send(self, inputs: np.ndarray) -> np.ndarray:
        return np.asarray(self._fn(inputs), dtype=np.float64)

    def describe(self) -> Dict[str, object]:
        return {"transport": self.name}


class HttpTransport:
    """Query a live ``python -m repro serve`` process over ``POST /v1/query``.

    The server loads ``model_path`` (confined to its ``--artifacts-root``)
    into the named architecture and runs the forward pass; logits travel
    back as JSON, whose ``repr``-based float serialisation round-trips
    float64 exactly — so full replay over this transport is byte-identical
    to in-process validation.
    """

    name = "http"

    def __init__(
        self,
        url: str,
        model_path: str,
        arch: str = "mnist",
        width_multiplier: float = 0.125,
        input_size: Optional[int] = None,
        timeout_s: float = 30.0,
        tenant: str = "default",
    ) -> None:
        if not url:
            raise ValueError("HttpTransport needs the serve endpoint's base URL")
        if not model_path:
            raise ValueError("HttpTransport needs the server-side model_path")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.url = url.rstrip("/")
        self.model_path = model_path
        self.arch = arch
        self.width_multiplier = float(width_multiplier)
        self.input_size = input_size
        self.timeout_s = float(timeout_s)
        self.tenant = tenant

    def send(self, inputs: np.ndarray) -> np.ndarray:
        body: Dict[str, object] = {
            "model_path": self.model_path,
            "arch": self.arch,
            "width_multiplier": self.width_multiplier,
            "input_size": self.input_size,
            "inputs": np.asarray(inputs, dtype=np.float64).tolist(),
        }
        payload = json.dumps(envelope("query", body)).encode("utf-8")
        request = urllib.request.Request(
            f"{self.url}/v1/query",
            data=payload,
            headers={"Content-Type": "application/json", "X-Tenant": self.tenant},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                raw = response.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")[:512]
            if exc.code in TRANSIENT_HTTP_STATUSES:
                raise TransportError(
                    f"transient HTTP {exc.code} from {self.url}: {detail}"
                ) from exc
            raise ValueError(
                f"query rejected with HTTP {exc.code} by {self.url}: {detail}"
            ) from exc
        except urllib.error.URLError as exc:
            raise TransportError(f"cannot reach {self.url}: {exc.reason}") from exc
        except TimeoutError as exc:
            raise TransportError(f"query to {self.url} timed out") from exc
        _version, _kind, result = open_envelope(
            json.loads(raw.decode("utf-8")), expected_kind="query_result"
        )
        return np.asarray(result["outputs"], dtype=np.float64)

    def describe(self) -> Dict[str, object]:
        return {
            "transport": self.name,
            "url": self.url,
            "model_path": self.model_path,
            "arch": self.arch,
        }


class RemoteModel:
    """A metered remote endpoint as a :data:`~repro.validation.user.BlackBoxIP`.

    Callable with a batch of inputs, returning float64 logits — so it slots
    directly into :func:`~repro.validation.user.validate_ip` (full replay)
    and :class:`~repro.online.verifier.OnlineVerifier` (sequential mode).

    Per call, each input row is resolved from the fingerprint cache when
    possible; the remaining rows go out in ``micro_batch``-sized transport
    round trips, each admitted by the client-side token bucket (``rate``
    queries/second, ``0`` = unlimited) and executed under the fault
    policy's retry/backoff schedule.
    """

    def __init__(
        self,
        transport: Union[CallableTransport, HttpTransport, object],
        policy: Optional[FaultPolicy] = None,
        rate: float = 0.0,
        burst: int = 16,
        micro_batch: int = 32,
        cache: bool = True,
        sleeper: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not hasattr(transport, "send"):
            raise TypeError(
                f"transport must expose send(inputs); got {type(transport).__name__}"
            )
        if micro_batch <= 0:
            raise ValueError("micro_batch must be positive")
        self.transport = transport
        self.policy = FaultPolicy.coerce(policy) or FaultPolicy()
        self.micro_batch = int(micro_batch)
        self._bucket = TokenBucket(rate, burst, clock=clock)
        self._sleeper = sleeper
        self._controller = RetryController(policy=self.policy, sleeper=sleeper)
        self._cache: Optional[Dict[str, np.ndarray]] = {} if cache else None
        self.ledger = QueryLedger()

    # -- BlackBoxIP protocol -------------------------------------------------
    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        batch = np.asarray(inputs, dtype=np.float64)
        if batch.ndim < 2:
            batch = batch.reshape(1, -1)
        started = time.perf_counter()
        try:
            keys = [array_fingerprint(row) for row in batch]
            rows: Dict[int, np.ndarray] = {}
            missing = []
            for i, key in enumerate(keys):
                cached = self._cache.get(key) if self._cache is not None else None
                if cached is not None:
                    rows[i] = cached
                    self.ledger.cache_hits += 1
                else:
                    missing.append(i)
            for start in range(0, len(missing), self.micro_batch):
                chunk = missing[start : start + self.micro_batch]
                outputs = self._send(batch[chunk])
                if outputs.ndim != 2 or outputs.shape[0] != len(chunk):
                    raise ValueError(
                        f"transport returned {outputs.shape} outputs for "
                        f"{len(chunk)} inputs"
                    )
                for j, i in enumerate(chunk):
                    row = np.ascontiguousarray(outputs[j], dtype=np.float64)
                    rows[i] = row
                    if self._cache is not None:
                        self._cache[keys[i]] = row
            return np.stack([rows[i] for i in range(len(keys))], axis=0)
        finally:
            self.ledger.wall_time_s += time.perf_counter() - started
            self.ledger.retries = self._controller.stats.retries

    def _send(self, chunk: np.ndarray) -> np.ndarray:
        while not self._bucket.take():
            self._sleeper(self._bucket.seconds_until_token())
        self.ledger.requests += 1
        self.ledger.queries_sent += int(chunk.shape[0])
        return np.asarray(
            self._controller.run(
                lambda: self.transport.send(chunk),
                key=f"remote-query[{chunk.shape[0]}]",
            ),
            dtype=np.float64,
        )

    # -- introspection -------------------------------------------------------
    @property
    def cache_size(self) -> int:
        return len(self._cache) if self._cache is not None else 0

    def stats(self) -> Dict[str, object]:
        """Ledger plus fault-layer counters, ready to merge into reports."""
        merged = self.ledger.to_dict()
        merged["cache_size"] = self.cache_size
        merged["faults"] = self._controller.stats.as_dict()
        if hasattr(self.transport, "describe"):
            merged["transport"] = self.transport.describe()
        return merged


def resolve_transport(spec: Union[str, object], **kwargs: object):
    """A transport from a registry name (``callable``/``http``/…) or instance."""
    if isinstance(spec, str):
        return registry.create("transports", spec, **kwargs)
    if hasattr(spec, "send"):
        return spec
    if callable(spec):
        return CallableTransport(spec)
    raise TypeError(f"cannot build a transport from {type(spec).__name__}")


@register(
    "transports",
    "callable",
    summary="wrap an in-process inputs->logits callable as a query transport",
)
def build_callable_transport(fn: Callable[[np.ndarray], np.ndarray], **_: object):
    return CallableTransport(fn)


@register(
    "transports",
    "http",
    knobs={"timeout_s": "request_timeout_s"},
    summary="POST /v1/query against a live `python -m repro serve` endpoint",
)
def build_http_transport(
    url: str,
    model_path: str,
    arch: str = "mnist",
    width_multiplier: float = 0.125,
    input_size: Optional[int] = None,
    timeout_s: float = 30.0,
    tenant: str = "default",
    **_: object,
):
    return HttpTransport(
        url,
        model_path,
        arch=arch,
        width_multiplier=width_multiplier,
        input_size=input_size,
        timeout_s=timeout_s,
        tenant=tenant,
    )


__all__ = [
    "CallableTransport",
    "HttpTransport",
    "QueryLedger",
    "RemoteModel",
    "TRANSIENT_HTTP_STATUSES",
    "TransportError",
    "resolve_transport",
]
