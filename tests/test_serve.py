"""Tests for repro.serve: admission, coalescing, the HTTP front end, drain.

The acceptance gate of the serving layer lives here: N concurrent
validates against one parameter digest must produce exactly one stacked
engine dispatch, with outcomes byte-identical to N serial in-process
calls; quotas must refuse with 429 semantics; SIGTERM must drain
gracefully.

pytest-asyncio is not a dependency — async tests run their event loop via
``asyncio.run`` inside plain sync test functions.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import ReleaseRequest, RunConfig, Session, ValidateRequest
from repro.engine import Engine
from repro.nn.layers import Dense
from repro.serve import (
    AdmissionController,
    AsyncClient,
    BatchingCoalescer,
    HttpClient,
    HttpServer,
    QuotaExceeded,
    RequestTimeout,
    SERVE_BATCH_SIZE,
    ServeConfig,
    ServiceDraining,
    TokenBucket,
    ValidationService,
)
from repro.validation import validate_ip

#: the shared tiny experiment (matches tests/test_api.py so the prepared
#: model is identical across the two suites)
TINY = dict(
    train_size=30,
    test_size=12,
    epochs=1,
    width_multiplier=0.1,
    num_tests=3,
    candidate_pool=10,
    gradient_updates=3,
)


@pytest.fixture(scope="module")
def released():
    with Session() as session:
        yield session.release(ReleaseRequest(dataset="mnist", **TINY))


@pytest.fixture(scope="module")
def tampered(released):
    from repro.attacks import SingleBiasAttack

    return SingleBiasAttack(rng=3).apply(released.model).model


@pytest.fixture(scope="module")
def artifacts(released, tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve-artifacts")
    return released.save(directory)


def _service(**overrides) -> ValidationService:
    overrides.setdefault("coalesce_window_s", 0.02)
    return ValidationService(ServeConfig(**overrides))


# ---------------------------------------------------------------------------
# ServeConfig
# ---------------------------------------------------------------------------


class TestServeConfig:
    def test_defaults_validate(self):
        ServeConfig().validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ServeConfig fields"):
            ServeConfig.from_dict({"turbo": True})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("port", -1),
            ("max_pending", 0),
            ("tenant_queue_limit", 0),
            ("tenant_rate", -1.0),
            ("tenant_burst", 0),
            ("coalesce_window_s", -0.1),
            ("max_stacked_models", 0),
            ("executor_workers", 0),
            ("request_timeout_s", 0.0),
            ("read_timeout_s", 0.0),
            ("drain_timeout_s", 0.0),
            ("artifacts_root", ""),
        ],
    )
    def test_validation_errors(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value}).validate()

    def test_loads_from_toml(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text(
            "[serve]\nport = 9000\ncoalesce_window_s = 0.5\n", encoding="utf-8"
        )
        config = ServeConfig.load(path)
        assert config.port == 9000 and config.coalesce_window_s == 0.5


# ---------------------------------------------------------------------------
# quotas
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.take() and bucket.take()
        assert not bucket.take()  # bucket dry
        assert bucket.seconds_until_token() == pytest.approx(1.0)
        clock.now = 1.0
        assert bucket.take()

    def test_zero_rate_disables_limiting(self):
        bucket = TokenBucket(rate=0.0, burst=1, clock=FakeClock())
        assert all(bucket.take() for _ in range(100))
        assert bucket.seconds_until_token() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.now = 60.0  # a long idle period must not bank extra tokens
        assert bucket.take() and bucket.take()
        assert not bucket.take()


class TestAdmissionController:
    def test_global_cap(self):
        controller = AdmissionController(max_pending=2, tenant_queue_limit=5)
        controller.admit("a")
        controller.admit("b")
        with pytest.raises(QuotaExceeded, match="at capacity"):
            controller.admit("c")
        controller.release("a")
        controller.admit("c")  # capacity freed

    def test_per_tenant_cap_isolates_tenants(self):
        controller = AdmissionController(max_pending=10, tenant_queue_limit=1)
        controller.admit("noisy")
        with pytest.raises(QuotaExceeded, match="in flight"):
            controller.admit("noisy")
        controller.admit("quiet")  # unaffected by the noisy tenant

    def test_rate_limit_sets_retry_after(self):
        clock = FakeClock()
        controller = AdmissionController(
            tenant_rate=0.5, tenant_burst=1, retry_after_s=0.1, clock=clock
        )
        controller.admit("a")
        controller.release("a")
        with pytest.raises(QuotaExceeded) as excinfo:
            controller.admit("a")
        assert excinfo.value.retry_after_s == pytest.approx(2.0)

    def test_snapshot_counts(self):
        controller = AdmissionController(max_pending=1)
        controller.admit("a")
        with pytest.raises(QuotaExceeded):
            controller.admit("b")
        snapshot = controller.snapshot()
        assert snapshot["pending"] == 1
        assert snapshot["tenants"]["a"] == {
            "admitted": 1,
            "rejected": 0,
            "in_flight": 1,
        }
        assert snapshot["tenants"]["b"]["rejected"] == 1


# ---------------------------------------------------------------------------
# the coalescer, against a fake dispatch
# ---------------------------------------------------------------------------


class TestBatchingCoalescer:
    class FakePackage:
        """Stands in for a ValidationPackage; the coalescer never inspects it."""

    def _coalescer(self, dispatched, **kwargs):
        async def dispatch(package, models):
            dispatched.append(list(models))
            return np.arange(len(models), dtype=float).reshape(-1, 1, 1)

        kwargs.setdefault("window_s", 0.01)
        return BatchingCoalescer(dispatch, **kwargs)

    def test_same_digest_requests_share_one_dispatch(self):
        dispatched = []
        coalescer = self._coalescer(dispatched)
        package = self.FakePackage()

        async def main():
            return await asyncio.gather(
                *[coalescer.submit("fp", package, "d0", "model") for _ in range(8)]
            )

        results = asyncio.run(main())
        assert len(dispatched) == 1 and dispatched[0] == ["model"]
        assert all(float(r[0, 0]) == 0.0 for r in results)
        assert coalescer.stats.dispatches == 1
        assert coalescer.stats.deduped == 7
        assert coalescer.stats.hit_rate == pytest.approx(7 / 8)

    def test_distinct_digests_stack_into_one_dispatch(self):
        dispatched = []
        coalescer = self._coalescer(dispatched)
        package = self.FakePackage()

        async def main():
            return await asyncio.gather(
                coalescer.submit("fp", package, "d0", "m0"),
                coalescer.submit("fp", package, "d1", "m1"),
                coalescer.submit("fp", package, "d2", "m2"),
            )

        results = asyncio.run(main())
        assert len(dispatched) == 1 and dispatched[0] == ["m0", "m1", "m2"]
        # each waiter gets exactly its own slice
        assert [float(r[0, 0]) for r in results] == [0.0, 1.0, 2.0]
        assert coalescer.stats.max_stacked == 3

    def test_distinct_packages_do_not_merge(self):
        dispatched = []
        coalescer = self._coalescer(dispatched)

        async def main():
            await asyncio.gather(
                coalescer.submit("fp-a", self.FakePackage(), "d0", "m0"),
                coalescer.submit("fp-b", self.FakePackage(), "d0", "m1"),
            )

        asyncio.run(main())
        assert len(dispatched) == 2

    def test_max_models_flushes_early(self):
        dispatched = []
        coalescer = self._coalescer(dispatched, max_models=2, window_s=5.0)
        package = self.FakePackage()

        async def main():
            # window is far too long to matter: the cap must flush instead
            await asyncio.wait_for(
                asyncio.gather(
                    coalescer.submit("fp", package, "d0", "m0"),
                    coalescer.submit("fp", package, "d1", "m1"),
                ),
                timeout=2.0,
            )

        asyncio.run(main())
        assert len(dispatched) == 1 and len(dispatched[0]) == 2

    def test_disabled_dispatches_alone(self):
        dispatched = []
        coalescer = self._coalescer(dispatched, enabled=False)
        package = self.FakePackage()

        async def main():
            await asyncio.gather(
                *[coalescer.submit("fp", package, "d0", "m") for _ in range(4)]
            )

        asyncio.run(main())
        assert len(dispatched) == 4
        assert coalescer.stats.hit_rate == 0.0

    def test_dispatch_error_reaches_every_waiter(self):
        async def dispatch(package, models):
            raise RuntimeError("backend exploded")

        coalescer = BatchingCoalescer(dispatch, window_s=0.01)
        package = self.FakePackage()

        async def main():
            return await asyncio.gather(
                coalescer.submit("fp", package, "d0", "m0"),
                coalescer.submit("fp", package, "d1", "m1"),
                return_exceptions=True,
            )

        results = asyncio.run(main())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_failed_stacked_dispatch_retries_each_model_alone(self):
        """Isolation: a poisoned co-traveller must not fail the group."""
        dispatched = []

        async def dispatch(package, models):
            dispatched.append(list(models))
            if len(models) > 1:
                raise ValueError("models are not stack-compatible")
            if models == ["bad"]:
                raise RuntimeError("this model alone is broken")
            return np.zeros((1, 1, 1))

        coalescer = BatchingCoalescer(dispatch, window_s=0.01)
        package = self.FakePackage()

        async def main():
            return await asyncio.gather(
                coalescer.submit("fp", package, "d0", "good"),
                coalescer.submit("fp", package, "d1", "bad"),
                return_exceptions=True,
            )

        good, bad = asyncio.run(main())
        assert dispatched == [["good", "bad"], ["good"], ["bad"]]
        # the innocent request succeeds; only the broken model errors
        assert isinstance(good, np.ndarray)
        assert isinstance(bad, RuntimeError)
        assert coalescer.stats.fallbacks == 1
        assert coalescer.stats.coalesced == 0  # floored, never negative

    def test_late_duplicate_joins_inflight_dispatch(self):
        started = asyncio.Event()
        release = asyncio.Event()
        dispatched = []

        async def dispatch(package, models):
            dispatched.append(list(models))
            started.set()
            await release.wait()
            return np.zeros((len(models), 1, 1))

        async def main():
            coalescer = BatchingCoalescer(dispatch, window_s=0.0)
            package = self.FakePackage()
            first = asyncio.create_task(
                coalescer.submit("fp", package, "d0", "m")
            )
            await started.wait()  # the dispatch is now in flight
            second = asyncio.create_task(
                coalescer.submit("fp", package, "d0", "m")
            )
            await asyncio.sleep(0.01)
            release.set()
            await asyncio.gather(first, second)
            return coalescer.stats

        stats = asyncio.run(main())
        assert len(dispatched) == 1
        assert stats.deduped == 1


# ---------------------------------------------------------------------------
# the service: coalesced validates, byte identity, quotas, drain
# ---------------------------------------------------------------------------


class TestValidationService:
    def test_concurrent_same_digest_validates_coalesce(self, released):
        """The acceptance gate: 8 concurrent validates on one parameter
        digest produce exactly one stacked dispatch, byte-identical to the
        serial in-process path."""

        async def main():
            async with _service() as service:
                client = AsyncClient(service)
                outcomes = await asyncio.gather(
                    *[
                        client.validate(
                            {"package": released.package}, ip=released.model
                        )
                        for _ in range(8)
                    ]
                )
                return outcomes, service.coalescer.stats

        outcomes, stats = asyncio.run(main())
        assert stats.requests == 8
        assert stats.dispatches == 1
        assert stats.deduped == 7
        serial = validate_ip(released.model, released.package)
        for outcome in outcomes:
            assert outcome.passed is serial.passed
            assert outcome.mismatched_indices == serial.mismatched_indices
            # float equality, not approx: the dispatch is byte-identical
            assert outcome.max_output_deviation == serial.max_output_deviation

    def test_coalesced_outcome_bitwise_matches_serial_on_tampered(
        self, released, tampered
    ):
        async def main():
            async with _service() as service:
                client = AsyncClient(service)
                return await asyncio.gather(
                    *[
                        client.validate(
                            {"package": released.package}, ip=tampered
                        )
                        for _ in range(4)
                    ]
                )

        outcomes = asyncio.run(main())
        serial = validate_ip(tampered, released.package)
        assert serial.detected  # the attack actually perturbed outputs
        for outcome in outcomes:
            assert outcome.detected
            assert outcome.mismatched_indices == serial.mismatched_indices
            assert outcome.max_output_deviation == serial.max_output_deviation
            assert outcome.label_mismatches == serial.label_mismatches

    def test_stacked_engine_slice_is_bit_identical_to_predict(self, released, tampered):
        # the numerical foundation the coalescer stands on, pinned directly
        engine = Engine(released.model, batch_size=SERVE_BATCH_SIZE)
        stacked = engine.stacked_forward(
            [released.model, tampered], released.package.tests
        )
        np.testing.assert_array_equal(
            stacked[0], released.model.predict(released.package.tests)
        )
        np.testing.assert_array_equal(
            stacked[1], tampered.predict(released.package.tests)
        )

    def test_mixed_digests_fuse_into_one_stacked_dispatch(self, released, tampered):
        async def main():
            async with _service() as service:
                client = AsyncClient(service)
                clean, bad = await asyncio.gather(
                    client.validate({"package": released.package}, ip=released.model),
                    client.validate({"package": released.package}, ip=tampered),
                )
                return clean, bad, service.coalescer.stats

        clean, bad, stats = asyncio.run(main())
        assert clean.passed and bad.detected
        assert stats.dispatches == 1
        assert stats.max_stacked == 2

    def test_pooled_engines_hold_no_trunk(self, released):
        """Each coalesced dispatch binds its engine to one of its copies,
        so the call reads that copy's own pass as the trunk and drops it:
        after a burst of copies that share layers with each other, no
        engine the session pools keeps a trunk."""
        from repro.attacks import SingleBiasAttack

        ips = [released.model] + [
            SingleBiasAttack(rng=seed).apply(released.model).model for seed in range(5)
        ]

        async def main():
            async with _service() as service:
                client = AsyncClient(service)
                outcomes = await asyncio.gather(
                    *[client.validate({"package": released.package}, ip=ip) for ip in ips]
                )
                engines = list(service.session._engines.values())
                return outcomes, engines, service.coalescer.stats

        outcomes, engines, stats = asyncio.run(main())
        assert stats.max_stacked > 1, "nothing coalesced: vacuous"
        assert engines
        for engine in engines:
            assert len(engine._trunks._cache) == 0
        for outcome, ip in zip(outcomes, ips):
            serial = validate_ip(ip, released.package)
            assert outcome.mismatched_indices == serial.mismatched_indices
            assert outcome.max_output_deviation == serial.max_output_deviation

    def test_low_bit_copy_is_not_deduped(self, released):
        """A copy one low bit away from the clean model (invisible to the
        rounded parameter digest) gets its own slice of the dispatch, not
        the clean model's logits."""
        flipped = released.model.copy()
        last = [layer for layer in flipped.layers if isinstance(layer, Dense)][-1]
        last.weight.value.reshape(-1).view(np.uint64)[0] ^= np.uint64(1)

        async def main():
            async with _service() as service:
                client = AsyncClient(service)
                clean, low_bit = await asyncio.gather(
                    client.validate({"package": released.package}, ip=released.model),
                    client.validate({"package": released.package}, ip=flipped),
                )
                return clean, low_bit, service.coalescer.stats

        clean, low_bit, stats = asyncio.run(main())
        assert stats.deduped == 0 and stats.max_stacked == 2
        serial = validate_ip(flipped, released.package)
        assert serial.max_output_deviation > 0.0  # the flip moves the outputs
        assert low_bit.max_output_deviation == serial.max_output_deviation
        assert clean.max_output_deviation == 0.0

    def test_mixed_architectures_never_fuse(self, released):
        """Different architectures on one package must not share a stacked
        dispatch: a shape-tampered IP scores as tampering while the
        co-travelling intact model still validates cleanly (no group-wide
        error)."""
        from repro.nn.layers import Dense, Flatten
        from repro.nn.model import Sequential

        shape_tampered = Sequential([Flatten(), Dense(4)])
        shape_tampered.build(released.model.input_shape)

        async def main():
            async with _service() as service:
                client = AsyncClient(service)
                clean, odd = await asyncio.gather(
                    client.validate({"package": released.package}, ip=released.model),
                    client.validate({"package": released.package}, ip=shape_tampered),
                )
                return clean, odd, service.coalescer.stats

        clean, odd, stats = asyncio.run(main())
        assert clean.passed  # the innocent tenant is unaffected
        assert odd.detected  # shape change = unambiguous tampering, not 400
        assert odd.max_output_deviation == float("inf")
        assert stats.dispatches == 2 and stats.max_stacked == 1
        assert stats.fallbacks == 0  # grouping, not error recovery, split them

    @pytest.mark.parametrize("backend", ["numpy", "model_axis"])
    def test_same_weights_other_activation_gets_its_own_verdict(self, released, backend):
        """A copy with the clean model's exact weights behind a relu conv1
        is another model: it never shares the clean model's dispatch, and
        every concurrent verdict matches ``validate_ip`` on its own IP.
        The clean model's dispatch also carries a copy that runs whole
        (perturbed in conv1, ``numpy``) or one that starts on the clean
        model's trunk (perturbed in the head, ``model_axis``)."""
        from repro.attacks.base import bias_flat_indices
        from repro.nn.activations import get_activation

        relu = released.model.copy()
        relu.layers[0].activation = get_activation("relu")
        perturbed = released.model.copy()
        index = 0 if backend == "numpy" else int(bias_flat_indices(perturbed)[-1])
        perturbed.parameter_view().add_scalar(index, 0.5)
        ips = [released.model, relu, perturbed]

        async def main():
            # a window wide enough that the perturbed copy always joins
            service = ValidationService(
                ServeConfig(coalesce_window_s=0.25),
                run_config=RunConfig(batch_size=SERVE_BATCH_SIZE),
            )
            async with service:
                client = AsyncClient(service)
                outcomes = await asyncio.gather(
                    *[client.validate({"package": released.package}, ip=ip) for ip in ips]
                )
                return outcomes, service.coalescer.stats

        outcomes, stats = asyncio.run(main())
        serial = [validate_ip(ip, released.package) for ip in ips]
        assert [s.passed for s in serial[:2]] == [True, False]
        for outcome, reference in zip(outcomes, serial):
            assert outcome.passed is reference.passed
            assert outcome.mismatched_indices == reference.mismatched_indices
            assert outcome.max_output_deviation == reference.max_output_deviation
        assert stats.dispatches == 2 and stats.max_stacked == 2

    def test_supplied_run_config_batch_size_is_pinned(self):
        service = ValidationService(run_config=RunConfig(batch_size=64))
        try:
            assert service.session.config.batch_size == SERVE_BATCH_SIZE
        finally:
            service.close()

    def test_uncoalesced_mode_is_byte_identical(self, released, tampered):
        async def run(coalesce: bool):
            async with _service(coalesce=coalesce) as service:
                client = AsyncClient(service)
                outcome = await client.validate(
                    {"package": released.package}, ip=tampered
                )
                return outcome, service.coalescer.stats.dispatches

        merged, _ = asyncio.run(run(True))
        alone, dispatches = asyncio.run(run(False))
        assert dispatches == 1
        assert merged.mismatched_indices == alone.mismatched_indices
        assert merged.max_output_deviation == alone.max_output_deviation

    def test_callable_ip_bypasses_coalescer(self, released):
        calls = []

        def black_box(batch):
            calls.append(batch.shape[0])
            return released.model.predict(batch)

        async def main():
            async with _service() as service:
                outcome = await service.validate(
                    {"package": released.package}, ip=black_box
                )
                return outcome, service.coalescer.stats

        outcome, stats = asyncio.run(main())
        assert outcome.passed and calls == [released.num_tests]
        assert stats.requests == 0  # opaque callables never enter the coalescer

    def test_validate_accepts_wire_envelope_with_model_path(self, artifacts):
        request = ValidateRequest(
            package=str(artifacts["package"]),
            model_path=str(artifacts["model"]),
            arch="mnist",
            width_multiplier=0.1,
        )

        async def main():
            async with _service() as service:
                return await service.validate(request.to_wire())

        assert asyncio.run(main()).passed

    def test_rate_quota_raises_with_retry_hint(self, released):
        async def main():
            async with _service(tenant_rate=0.001, tenant_burst=1) as service:
                client = AsyncClient(service, tenant="greedy")
                first = await client.validate(
                    {"package": released.package}, ip=released.model
                )
                with pytest.raises(QuotaExceeded) as excinfo:
                    await client.validate(
                        {"package": released.package}, ip=released.model
                    )
                return first, excinfo.value

        first, exc = asyncio.run(main())
        assert first.passed
        assert exc.retry_after_s > 0

    def test_request_timeout_maps_to_request_timeout_error(self, released):
        def slow_box(batch):
            time.sleep(0.4)
            return released.model.predict(batch)

        async def main():
            async with _service(request_timeout_s=0.05) as service:
                with pytest.raises(RequestTimeout):
                    await service.validate(
                        {"package": released.package}, ip=slow_box
                    )

        asyncio.run(main())

    def test_draining_service_refuses_new_requests(self, released):
        async def main():
            service = _service()
            await service.drain()
            with pytest.raises(ServiceDraining):
                await service.validate(
                    {"package": released.package}, ip=released.model
                )

        asyncio.run(main())

    def test_stats_shape(self, released):
        async def main():
            async with _service() as service:
                client = AsyncClient(service, tenant="t1")
                await client.validate(
                    {"package": released.package}, ip=released.model
                )
                return service.stats()

        stats = asyncio.run(main())
        assert stats["operations"]["validate"] == 1
        assert stats["coalescer"]["dispatches"] == 1
        assert stats["admission"]["tenants"]["t1"]["admitted"] == 1
        assert set(stats["engine"]) == {"hits", "misses", "evictions", "hit_rate"}
        assert "fault_events" not in stats


# ---------------------------------------------------------------------------
# the HTTP front end
# ---------------------------------------------------------------------------


class TestHttpServer:
    def _validate_request(self, artifacts) -> ValidateRequest:
        return ValidateRequest(
            package=str(artifacts["package"]),
            model_path=str(artifacts["model"]),
            arch="mnist",
            width_multiplier=0.1,
        )

    @staticmethod
    def _root(artifacts) -> str:
        """The directory holding the released artifacts (= artifacts_root)."""
        return str(Path(str(artifacts["package"])).parent)

    def test_concurrent_http_validates_coalesce(self, artifacts):
        request = self._validate_request(artifacts)

        async def main():
            service = _service(port=0, artifacts_root=self._root(artifacts))
            server = HttpServer(service)
            host, port = await server.start()
            try:
                client = HttpClient(host, port, tenant="http-test")
                health = await client.healthz()
                assert health["status"] == "ok"
                results = await asyncio.gather(
                    *[client.validate(request) for _ in range(8)]
                )
                stats = await client.stats()
                return results, stats
            finally:
                await server.stop()

        results, stats = asyncio.run(main())
        assert [status for status, _ in results] == [200] * 8
        bodies = [body for _, body in results]
        assert all(body["kind"] == "outcome" for body in bodies)
        assert all(body["body"]["passed"] for body in bodies)
        assert stats["coalescer"]["dispatches"] == 1
        assert stats["coalescer"]["coalesced"] == 7
        assert stats["admission"]["tenants"]["http-test"]["admitted"] == 8

    def test_http_error_mapping(self):
        async def main():
            service = _service(port=0)
            server = HttpServer(service)
            host, port = await server.start()
            try:
                client = HttpClient(host, port)
                results = {}
                results["not_found"] = await client.get("/nope")
                results["wrong_method"] = await client.post("/healthz", {})
                results["empty_body"] = await client.post("/v1/validate", None)
                results["future_version"] = await client.post(
                    "/v1/validate",
                    {"schema_version": 99, "kind": "validate", "body": {}},
                )
                results["wrong_kind"] = await client.post(
                    "/v1/validate",
                    {"schema_version": 1, "kind": "release", "body": {}},
                )
                return results
            finally:
                await server.stop()

        results = asyncio.run(main())
        assert results["not_found"][0] == 404
        assert results["wrong_method"][0] == 405
        assert results["empty_body"][0] == 400
        assert results["future_version"][0] == 400
        assert "unsupported wire schema_version" in results["future_version"][1]["error"]
        assert results["wrong_kind"][0] == 400

    def test_malformed_content_length_maps_to_400(self):
        async def main():
            service = _service(port=0)
            server = HttpServer(service)
            host, port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /v1/validate HTTP/1.1\r\n"
                    b"Content-Length: abc\r\n\r\n"
                )
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                return status_line.decode("ascii", "replace")
            finally:
                await server.stop()

        status_line = asyncio.run(main())
        # a proper 400 response, not a silently dropped connection
        assert " 400 " in status_line

    def test_paths_rejected_without_artifacts_root(self, artifacts):
        """No artifacts_root configured → every client path field is 400."""
        request = self._validate_request(artifacts)

        async def main():
            service = _service(port=0)  # artifacts_root=None
            server = HttpServer(service)
            host, port = await server.start()
            try:
                client = HttpClient(host, port)
                results = {}
                results["validate"] = await client.validate(request)
                results["release"] = await client.post(
                    "/v1/release", {"save_dir": "/tmp/evil"}
                )
                results["sweep"] = await client.post("/v1/sweep", {})
                return results
            finally:
                await server.stop()

        results = asyncio.run(main())
        for name, (status, body) in results.items():
            assert status == 400, name
            assert "artifacts_root" in body["error"], name

    def test_path_escaping_artifacts_root_rejected(self, artifacts):
        request = ValidateRequest(
            package="../../../etc/passwd",
            model_path="model.npz",
            arch="mnist",
            width_multiplier=0.1,
        )

        async def main():
            service = _service(port=0, artifacts_root=self._root(artifacts))
            server = HttpServer(service)
            host, port = await server.start()
            try:
                client = HttpClient(host, port)
                return await client.validate(request)
            finally:
                await server.stop()

        status, body = asyncio.run(main())
        assert status == 400
        assert "escapes" in body["error"]

    def test_relative_paths_resolve_inside_artifacts_root(self, artifacts):
        request = ValidateRequest(
            package=Path(str(artifacts["package"])).name,
            model_path=Path(str(artifacts["model"])).name,
            arch="mnist",
            width_multiplier=0.1,
        )

        async def main():
            service = _service(port=0, artifacts_root=self._root(artifacts))
            server = HttpServer(service)
            host, port = await server.start()
            try:
                client = HttpClient(host, port)
                return await client.validate(request)
            finally:
                await server.stop()

        status, body = asyncio.run(main())
        assert status == 200
        assert body["body"]["passed"]

    def test_idle_connection_does_not_block_stop(self):
        """Graceful shutdown must not wait on a client that never sends its
        request (the read deadline reaps it; wait_closed is bounded)."""

        async def main():
            service = _service(port=0, read_timeout_s=0.2)
            server = HttpServer(service)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # send nothing: the handler sits in its read until the
                # deadline; stop() must still complete promptly
                await asyncio.wait_for(server.stop(), timeout=5.0)
            finally:
                writer.close()

        asyncio.run(main())

    def test_http_rate_limit_maps_to_429_with_retry_after(self, artifacts):
        request = self._validate_request(artifacts)

        async def main():
            service = _service(
                port=0,
                tenant_rate=0.001,
                tenant_burst=1,
                artifacts_root=self._root(artifacts),
            )
            server = HttpServer(service)
            host, port = await server.start()
            try:
                client = HttpClient(host, port, tenant="greedy")
                ok = await client.validate(request)
                limited = await client.validate(request)
                return ok, limited
            finally:
                await server.stop()

        ok, limited = asyncio.run(main())
        assert ok[0] == 200
        status, body = limited
        assert status == 429
        assert body["retry_after"]  # the Retry-After header round-tripped

    def test_draining_server_returns_503(self, artifacts):
        request = self._validate_request(artifacts)

        async def main():
            service = _service(port=0, artifacts_root=self._root(artifacts))
            server = HttpServer(service)
            host, port = await server.start()
            client = HttpClient(host, port)
            # stop the listener-independent service first: the socket still
            # answers, but admission refuses
            await service.drain()
            status, body = await client.validate(request)
            await server.stop()
            return status, body

        status, body = asyncio.run(main())
        assert status == 503
        assert "draining" in body["error"]


# ---------------------------------------------------------------------------
# process-level: python -m repro.serve, SIGTERM drain
# ---------------------------------------------------------------------------


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "serving on http://" in line, line
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            assert code == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_cli_delegates_serve(self):
        from repro.cli import _parser  # the subcommand must be registered

        assert "serve" in _parser().format_help()


# ---------------------------------------------------------------------------
# Session thread-safety (the contract the worker tier relies on)
# ---------------------------------------------------------------------------


class TestSessionThreadSafety:
    def test_concurrent_engine_for_returns_one_engine(self, released):
        with Session(RunConfig(engine_cache_size=4)) as session:
            engines = []
            barrier = threading.Barrier(8)

            def grab():
                barrier.wait()
                engines.append(session.engine_for(released.model))

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len({id(e) for e in engines}) == 1

    def test_concurrent_prepare_trains_once(self):
        with Session() as session:
            results = []
            barrier = threading.Barrier(4)

            def prep():
                barrier.wait()
                results.append(
                    session.prepare("mnist", train_size=30, test_size=12, epochs=1,
                                    width_multiplier=0.1)
                )

            threads = [threading.Thread(target=prep) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len({id(r) for r in results}) == 1

    def test_close_is_idempotent_and_late_calls_raise(self, released):
        session = Session()
        session.engine_for(released.model)
        session.close()
        session.close()  # idempotent
        with pytest.raises(RuntimeError, match="session is closed"):
            session.engine_for(released.model)

    def test_engine_stats_and_fault_events_merge(self, released):
        with Session() as session:
            engine = session.engine_for(released.model)
            engine.forward(released.package.tests)
            engine.forward(released.package.tests)  # memo hit
            stats = session.engine_stats()
            assert stats.hits >= 1
