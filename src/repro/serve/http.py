"""Stdlib-only HTTP/1.1 front end over :class:`ValidationService`.

A deliberately small server on :func:`asyncio.start_server` — no web
framework, no new dependencies — speaking JSON wire envelopes
(:mod:`repro.api.wire`):

=======  ==============  ===============================================
method   path            body / response
=======  ==============  ===============================================
GET      ``/healthz``    liveness: ``{"status": "ok" | "draining"}``
GET      ``/stats``      coalescer, admission and engine cache counters
POST     ``/v1/validate``  ``validate`` envelope → ``outcome`` envelope
POST     ``/v1/release``   ``release`` envelope (+ optional top-level
                           ``save_dir``) → ``release_summary`` envelope
POST     ``/v1/sweep``     ``sweep`` envelope → ``sweep_summary`` envelope
POST     ``/v1/query``     ``query`` envelope (model + input batch) →
                           ``query_result`` envelope (float64 logits) —
                           the online verifier's billable endpoint
=======  ==============  ===============================================

The tenant is the ``X-Tenant`` request header (``default`` otherwise).
Admission refusals map to ``429`` with a ``Retry-After`` header; draining
to ``503``; request timeouts to ``504``; malformed envelopes to ``400``
with the :func:`~repro.api.wire.open_envelope` message verbatim.

Filesystem paths in request bodies — validate's ``package``/``model_path``,
release's ``save_dir``, sweep's ``spec``/``store``/``report`` — are
confined to :attr:`~repro.serve.config.ServeConfig.artifacts_root`:
relative paths resolve against it, escapes are refused with 400, and a
server configured without one rejects client-supplied paths entirely.

Shutdown is graceful: SIGTERM/SIGINT close the listener, in-flight
requests finish inside the service's ``drain_timeout_s``, then the worker
tier and session are released.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.api.wire import envelope
from repro.serve.config import ServeConfig
from repro.serve.quota import QuotaExceeded
from repro.serve.service import (
    RequestTimeout,
    ServiceDraining,
    ValidationService,
)
from repro.utils.logging import get_logger

logger = get_logger("serve.http")

#: request bodies above this many bytes are refused with 413
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _response_bytes(
    status: int, body: Dict[str, object], headers: Optional[Dict[str, str]] = None
) -> bytes:
    payload = json.dumps(body).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload


class _HttpError(Exception):
    """Internal: carries a ready-to-send error response."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: ``(method, path, headers, body)``."""
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionError("empty request")
    parts = request_line.decode("ascii", "replace").split()
    if len(parts) < 2:
        raise _HttpError(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "").strip() or "0"
    try:
        length = int(raw_length)
    except ValueError:
        raise _HttpError(400, f"malformed Content-Length header {raw_length!r}")
    if length < 0:
        raise _HttpError(400, "Content-Length must be non-negative")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class HttpServer:
    """One listening socket in front of one :class:`ValidationService`."""

    def __init__(
        self, service: ValidationService, config: Optional[ServeConfig] = None
    ) -> None:
        self.service = service
        self.config = config or service.config
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        logger.info("serving on http://%s:%d", host, port)
        return host, port

    def request_stop(self) -> None:
        """Signal-safe shutdown trigger (the SIGTERM/SIGINT handler)."""
        self._stop.set()

    async def serve_until_stopped(
        self,
        install_signal_handlers: bool = True,
        on_ready: Optional[object] = None,
    ) -> None:
        """Accept requests until stopped, then drain gracefully.

        Signal handlers are installed *before* the socket binds (and before
        ``on_ready(host, port)`` fires), so a driver that sends SIGTERM the
        moment it sees the ready line can never race the handler.
        """
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-unix event loops
        if self._server is None:
            host, port = await self.start()
        else:
            host, port = self._server.sockets[0].getsockname()[:2]
        if callable(on_ready):
            on_ready(host, port)
        await self._stop.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener, then drain the service."""
        if self._server is not None:
            self._server.close()
            try:
                # on Python >= 3.12.1 wait_closed() waits for every
                # connection handler to finish; bound it so a slow client
                # can never stall shutdown — in-flight work is what
                # service.drain() (with its own deadline) is for
                await asyncio.wait_for(self._server.wait_closed(), timeout=1.0)
            except asyncio.TimeoutError:
                logger.info("listener handlers still busy; draining anyway")
            self._server = None
        logger.info("listener closed; draining in-flight requests")
        await self.service.drain()

    # -- request handling ----------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                # deadline on the read: an idle or trickling client is
                # dropped instead of pinning its handler (and, with it,
                # graceful drain) open forever
                method, path, headers, body = await asyncio.wait_for(
                    _read_request(reader), timeout=self.config.read_timeout_s
                )
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
            ):
                return
            except _HttpError as exc:
                writer.write(
                    _response_bytes(exc.status, {"error": str(exc)}, exc.headers)
                )
                await writer.drain()
                return
            try:
                status, payload, extra = await self._route(
                    method, path, headers, body
                )
            except _HttpError as exc:
                status, payload, extra = (
                    exc.status,
                    {"error": str(exc)},
                    exc.headers,
                )
            except QuotaExceeded as exc:
                status, payload, extra = (
                    429,
                    {"error": str(exc), "retry_after_s": exc.retry_after_s},
                    {"Retry-After": f"{max(1, round(exc.retry_after_s))}"},
                )
            except ServiceDraining as exc:
                status, payload, extra = 503, {"error": str(exc)}, {}
            except RequestTimeout as exc:
                status, payload, extra = 504, {"error": str(exc)}, {}
            except (ValueError, TypeError) as exc:
                status, payload, extra = 400, {"error": str(exc)}, {}
            except Exception as exc:  # pragma: no cover - defensive
                logger.error("unhandled request error: %s", exc)
                status, payload, extra = 500, {"error": str(exc)}, {}
            writer.write(_response_bytes(status, payload, extra))
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- client-supplied filesystem paths ------------------------------------
    def _resolve_request_path(self, value: object, field: str) -> str:
        """Confine one client-supplied path to ``artifacts_root``.

        Relative paths resolve against the root; anything escaping it (or
        any path at all when no root is configured) maps to 400.  The HTTP
        surface is multi-tenant — it must never read or write wherever the
        server process happens to have permissions.
        """
        root = self.config.artifacts_root
        if root is None:
            raise _HttpError(
                400,
                f"{field!r} is not accepted: this server has no "
                "artifacts_root configured",
            )
        if not isinstance(value, str) or not value:
            raise _HttpError(400, f"{field!r} must be a non-empty string path")
        root_path = Path(root).resolve()
        candidate = Path(value)
        resolved = (
            candidate if candidate.is_absolute() else root_path / candidate
        ).resolve()
        if not (resolved == root_path or resolved.is_relative_to(root_path)):
            raise _HttpError(
                400, f"{field!r} escapes the configured artifacts_root"
            )
        return str(resolved)

    @staticmethod
    def _request_fields(data: Dict[str, object]) -> Dict[str, object]:
        """The field dict of a request body (unwraps a wire envelope)."""
        inner = data.get("body")
        if "schema_version" in data and isinstance(inner, dict):
            return inner
        return data

    def _guard_paths(self, data: Dict[str, object], *fields: str) -> None:
        """Rewrite path-taking fields to their confined absolute form."""
        inner = self._request_fields(data)
        for field in fields:
            value = inner.get(field)
            # non-strings (an inline sweep spec dict, an in-memory package)
            # are not paths; the request layer validates them downstream
            if isinstance(value, str) and value:
                inner[field] = self._resolve_request_path(value, field)

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        tenant = headers.get("x-tenant", "default")
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET /healthz")
            return 200, self.service.healthz(), {}
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "use GET /stats")
            return 200, self.service.stats(), {}
        if path in ("/v1/validate", "/v1/release", "/v1/sweep", "/v1/query"):
            if method != "POST":
                raise _HttpError(405, f"use POST {path}")
            try:
                data = json.loads(body.decode("utf-8")) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"request body is not valid JSON: {exc}")
            if not isinstance(data, dict):
                raise _HttpError(400, "request body must be a JSON object")
            if path == "/v1/query":
                self._guard_paths(data, "model_path")
                fields = self._request_fields(data)
                result = await self.service.query(fields, tenant=tenant)
                return 200, envelope("query_result", result), {}
            if path == "/v1/validate":
                self._guard_paths(data, "package", "model_path")
                outcome = await self.service.validate(data, tenant=tenant)
                return 200, outcome.to_wire(), {}
            if path == "/v1/release":
                save_dir = data.pop("save_dir", None)
                if save_dir is not None:
                    # resolve before the (expensive) release runs
                    save_dir = self._resolve_request_path(save_dir, "save_dir")
                released = await self.service.release(data, tenant=tenant)
                summary: Dict[str, object] = {
                    "num_tests": released.num_tests,
                    "coverage": released.coverage,
                    "test_accuracy": released.test_accuracy,
                    "description": released.describe(),
                }
                if save_dir is not None:
                    paths = await self.service._in_executor(
                        released.save, str(save_dir)
                    )
                    summary["saved"] = {k: str(v) for k, v in paths.items()}
                return 200, envelope("release_summary", summary), {}
            # sweep always writes its result store: pin the default path
            # explicitly so it, too, resolves inside artifacts_root
            self._request_fields(data).setdefault(
                "store", "campaign-results.jsonl"
            )
            self._guard_paths(data, "spec", "store", "report")
            sweep_summary = await self.service.sweep(data, tenant=tenant)
            return 200, envelope(
                "sweep_summary",
                {
                    "total": sweep_summary.total,
                    "executed": sweep_summary.executed,
                    "skipped": sweep_summary.skipped,
                    "failed": sweep_summary.failed,
                    "wall_s": sweep_summary.wall_s,
                    "description": sweep_summary.describe(),
                },
            ), {}
        raise _HttpError(404, f"unknown path {path!r}")


async def run_server(
    config: Optional[ServeConfig] = None,
    run_config: Optional[object] = None,
    ready_message: bool = True,
) -> None:
    """Build a service + server and run until SIGTERM/SIGINT.

    The ``python -m repro serve`` entry point.  Prints one
    ``serving on http://host:port`` line to stdout when the socket is bound
    (drivers and tests wait for it).
    """
    config = config or ServeConfig()
    service = ValidationService(config, run_config=run_config)
    server = HttpServer(service, config)

    def ready(host: str, port: int) -> None:
        if ready_message:
            print(f"serving on http://{host}:{port}", flush=True)

    await server.serve_until_stopped(on_ready=ready)


__all__ = ["HttpServer", "MAX_BODY_BYTES", "run_server"]
