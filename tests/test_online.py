"""Tests for repro.online: transports, the sequential verifier, package v3,
coalescer fairness, the /v1/query endpoint and the verify CLI.

pytest-asyncio is not a dependency — async tests run their event loop via
``asyncio.run`` inside plain sync test functions (the test_serve idiom).
"""

from __future__ import annotations

import asyncio
import math
from pathlib import Path

import numpy as np
import pytest

from repro.online import (
    CallableTransport,
    HttpTransport,
    OnlineVerifier,
    QueryLedger,
    RemoteModel,
    TransportError,
    resolve_transport,
    verify_online,
)
from repro.faults import FaultPolicy
from repro.registry import registry
from repro.testgen import TrainingSetSelector
from repro.validation import (
    IPVendor,
    ValidationPackage,
    clean_floor,
    decide_from_mismatches,
    entropy_order,
    query_order,
    validate_ip,
)
from repro.validation.package import FORMAT_VERSION
from repro.validation.sequential import (
    DEFAULT_CLEAN_FRACTION,
    VERDICT_CLEAN,
    VERDICT_TAMPERED,
    llr_increments,
    sprt_thresholds,
)


@pytest.fixture(scope="module")
def vendor(trained_cnn, digit_dataset):
    return IPVendor(trained_cnn, digit_dataset)


@pytest.fixture(scope="module")
def generation(trained_cnn, digit_dataset):
    generator = TrainingSetSelector(
        trained_cnn, digit_dataset, candidate_pool=30, rng=0
    )
    return generator.generate(10)


@pytest.fixture(scope="module")
def package(vendor, generation):
    return vendor.build_package(generation)


@pytest.fixture(scope="module")
def scored_package(vendor, generation):
    """A v3 package carrying measured discrimination scores."""
    return vendor.build_package(
        generation, measure_discrimination=True, discrimination_trials=2
    )


@pytest.fixture(scope="module")
def tampered(trained_cnn):
    from repro.attacks import SingleBiasAttack

    return SingleBiasAttack(rng=3).apply(trained_cnn).model


# ---------------------------------------------------------------------------
# SPRT math
# ---------------------------------------------------------------------------


class TestSprtMath:
    def test_thresholds_bracket_zero(self):
        lower, upper = sprt_thresholds(0.01, 0.01)
        assert lower < 0.0 < upper
        assert upper == pytest.approx(math.log(0.99 / 0.01))
        assert lower == pytest.approx(math.log(0.01 / 0.99))

    def test_thresholds_reject_bad_rates(self):
        with pytest.raises(ValueError):
            sprt_thresholds(0.0, 0.5)
        with pytest.raises(ValueError):
            sprt_thresholds(0.5, 1.0)

    def test_increments_signs(self):
        match, mismatch = llr_increments()
        assert match < 0.0 < mismatch
        with pytest.raises(ValueError):
            llr_increments(0.5, 0.5)

    def test_one_mismatch_decides_tampered(self):
        verdict, decided, used, llr = decide_from_mismatches([True] + [False] * 9)
        assert verdict == VERDICT_TAMPERED and decided
        assert used == 1
        assert llr > 0.0

    def test_clean_respects_curtailment_floor(self):
        n = 24
        verdict, decided, used, _ = decide_from_mismatches([False] * n)
        assert verdict == VERDICT_CLEAN and decided
        assert used == clean_floor(n)
        assert used < n  # still strictly fewer queries than full replay

    def test_late_mismatch_is_not_missed(self):
        # mismatch just before the curtailment floor: the walk must reach it
        n = 24
        stream = [False] * n
        stream[clean_floor(n) - 2] = True
        verdict, decided, used, _ = decide_from_mismatches(stream)
        assert verdict == VERDICT_TAMPERED and decided
        assert used == clean_floor(n) - 1

    def test_budget_exhaustion_is_undecided(self):
        verdict, decided, used, _ = decide_from_mismatches([False] * 10, budget=3)
        assert verdict == VERDICT_CLEAN and not decided
        assert used == 3

    def test_clean_floor_values(self):
        assert clean_floor(0) == 0
        assert clean_floor(8) == 7
        assert clean_floor(24) == 21
        assert clean_floor(8, clean_fraction=1.0) == 8
        with pytest.raises(ValueError):
            clean_floor(8, clean_fraction=0.0)

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            decide_from_mismatches([False], confidence=1.0)


# ---------------------------------------------------------------------------
# query ordering
# ---------------------------------------------------------------------------


class TestQueryOrder:
    def test_entropy_order_prefers_boundary_outputs(self):
        # row 1 is uniform (max entropy), row 0 is peaked (min entropy)
        logits = np.array([[10.0, 0.0, 0.0], [1.0, 1.0, 1.0], [5.0, 0.0, 0.0]])
        order = entropy_order(logits)
        assert order[0] == 1 and order[-1] == 0

    def test_entropy_order_rejects_non_2d(self):
        with pytest.raises(ValueError):
            entropy_order(np.zeros(4))

    def test_query_order_uses_discrimination_when_present(self, scored_package):
        order, name = query_order(scored_package)
        assert name == "discrimination"
        scores = scored_package.discrimination[order]
        assert np.all(np.diff(scores) <= 0.0)  # descending

    def test_query_order_falls_back_to_entropy(self, package):
        order, name = query_order(package)
        assert name == "entropy"
        assert sorted(order.tolist()) == list(range(package.num_tests))


# ---------------------------------------------------------------------------
# package format v3
# ---------------------------------------------------------------------------


class TestPackageFormatV3:
    def test_discrimination_scores_measured(self, scored_package):
        scores = scored_package.discrimination
        assert scores is not None
        assert scores.shape == (scored_package.num_tests,)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert scored_package.metadata["discrimination_trials"] == 2

    @staticmethod
    def _stored_format(path) -> int:
        import json

        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
        return int(meta.get("format", 1))

    @staticmethod
    def _rewrite_format(path, version) -> None:
        import json

        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta["format"] = version
        np.savez(
            path,
            __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            **arrays,
        )

    def test_v2_round_trip_without_discrimination(self, package, tmp_path):
        # content-driven version stamp: no discrimination → still format 2,
        # readable by v2-only builds
        path = package.save(tmp_path / "v2.npz")
        assert self._stored_format(path) == 2
        loaded = ValidationPackage.load(path)
        assert loaded.discrimination is None
        assert loaded.digest() == package.digest()

    def test_v3_round_trip_with_discrimination(self, scored_package, tmp_path):
        path = scored_package.save(tmp_path / "v3.npz")
        assert self._stored_format(path) == FORMAT_VERSION
        loaded = ValidationPackage.load(path)
        np.testing.assert_array_equal(
            loaded.discrimination, scored_package.discrimination
        )
        assert loaded.digest() == scored_package.digest()

    def test_v1_packages_still_load(self, package, tmp_path):
        # fabricate a legacy v1 file: v1 digests covered tests+outputs only
        path = package.save(tmp_path / "v1.npz")
        self._rewrite_format(path, 1)
        loaded = ValidationPackage.load(path, verify_digest=False)
        assert loaded.num_tests == package.num_tests
        assert loaded.discrimination is None

    def test_future_version_names_the_upgrade(self, scored_package, tmp_path):
        path = scored_package.save(tmp_path / "future.npz")
        self._rewrite_format(path, FORMAT_VERSION + 1)
        with pytest.raises(ValueError, match="upgrade repro"):
            ValidationPackage.load(path)

    def test_digest_covers_discrimination(self, scored_package):
        without = ValidationPackage(
            tests=scored_package.tests,
            expected_outputs=scored_package.expected_outputs,
            output_atol=scored_package.output_atol,
        )
        assert without.digest() != scored_package.digest()

    def test_subset_slices_discrimination(self, scored_package):
        sub = scored_package.subset(4)
        assert sub.discrimination.shape == (4,)
        np.testing.assert_array_equal(
            sub.discrimination, scored_package.discrimination[:4]
        )

    def test_discrimination_shape_validated(self, package):
        with pytest.raises(ValueError):
            ValidationPackage(
                tests=package.tests,
                expected_outputs=package.expected_outputs,
                discrimination=np.zeros(package.num_tests + 1),
            )


# ---------------------------------------------------------------------------
# transports and RemoteModel
# ---------------------------------------------------------------------------


class TestRemoteModel:
    def _counted(self, trained_cnn):
        calls = {"batches": 0, "inputs": 0}

        def fn(inputs):
            calls["batches"] += 1
            calls["inputs"] += len(inputs)
            return trained_cnn.predict(inputs)

        return fn, calls

    def test_matches_direct_predict(self, trained_cnn, package):
        remote = RemoteModel(CallableTransport(trained_cnn.predict))
        np.testing.assert_array_equal(
            remote(package.tests), trained_cnn.predict(package.tests)
        )

    def test_cache_never_rebills_repeated_fingerprints(self, trained_cnn, package):
        fn, calls = self._counted(trained_cnn)
        remote = RemoteModel(CallableTransport(fn))
        first = remote(package.tests)
        second = remote(package.tests)
        np.testing.assert_array_equal(first, second)
        assert calls["inputs"] == package.num_tests  # billed once
        assert remote.ledger.queries_sent == package.num_tests
        assert remote.ledger.cache_hits == package.num_tests
        assert remote.cache_size == package.num_tests

    def test_cache_is_keyed_on_exact_input_bytes(self, trained_cnn, package):
        """An input 1e-14 away from a cached one, in one pixel, is sent on:
        the answer is the model's own logits for it, not the cached row's."""
        remote = RemoteModel(CallableTransport(trained_cnn.predict))
        x = package.tests[:1]
        y = x.copy()
        y.reshape(-1)[100] += 1e-14
        remote(x)
        assert remote(y).tobytes() == trained_cnn.predict(y).tobytes()
        assert remote.ledger.queries_sent == 2
        assert remote.ledger.cache_hits == 0
        assert remote(y).tobytes() == trained_cnn.predict(y).tobytes()
        assert remote.ledger.cache_hits == 1

    def test_cache_disabled_rebills(self, trained_cnn, package):
        fn, calls = self._counted(trained_cnn)
        remote = RemoteModel(CallableTransport(fn), cache=False)
        remote(package.tests)
        remote(package.tests)
        assert calls["inputs"] == 2 * package.num_tests
        assert remote.cache_size == 0

    def test_micro_batching_splits_round_trips(self, trained_cnn, package):
        fn, calls = self._counted(trained_cnn)
        remote = RemoteModel(CallableTransport(fn), micro_batch=3)
        remote(package.tests)
        assert calls["batches"] == math.ceil(package.num_tests / 3)
        assert remote.ledger.requests == calls["batches"]

    def test_rate_limit_sleeps_between_requests(self, trained_cnn, package):
        sleeps = []
        clock = {"now": 0.0}

        def sleeper(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        remote = RemoteModel(
            CallableTransport(trained_cnn.predict),
            rate=1.0,
            burst=1,
            micro_batch=1,
            sleeper=sleeper,
            clock=lambda: clock["now"],
        )
        remote(package.tests[:3])
        # bucket starts full: first request free, the rest wait ~1s each
        assert len(sleeps) == 2
        assert all(s == pytest.approx(1.0, abs=1e-6) for s in sleeps)

    def test_transient_errors_retry_then_succeed(self, trained_cnn, package):
        attempts = {"n": 0}

        def flaky(inputs):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise TransportError("connection reset")
            return trained_cnn.predict(inputs)

        remote = RemoteModel(
            CallableTransport(flaky),
            policy=FaultPolicy(max_retries=3, backoff_base_s=0.0),
            sleeper=lambda _s: None,
        )
        outputs = remote(package.tests)
        np.testing.assert_array_equal(outputs, trained_cnn.predict(package.tests))
        assert remote.ledger.retries == 2
        assert remote.stats()["faults"]["retries"] == 2

    def test_non_transient_errors_propagate(self, package):
        def broken(inputs):
            raise ValueError("bad request")

        remote = RemoteModel(CallableTransport(broken), sleeper=lambda _s: None)
        with pytest.raises(ValueError, match="bad request"):
            remote(package.tests)

    def test_wrong_output_shape_rejected(self, package):
        remote = RemoteModel(CallableTransport(lambda inputs: np.zeros((1, 3))))
        with pytest.raises(ValueError, match="outputs"):
            remote(package.tests)

    def test_requires_send_method(self):
        with pytest.raises(TypeError, match="send"):
            RemoteModel(lambda inputs: inputs)

    def test_stats_merge_ledger_and_transport(self, trained_cnn, package):
        remote = RemoteModel(CallableTransport(trained_cnn.predict))
        remote(package.tests[:2])
        stats = remote.stats()
        assert stats["queries_sent"] == 2
        assert stats["transport"] == {"transport": "callable"}
        assert QueryLedger(**{k: stats[k] for k in QueryLedger().to_dict()})


class TestTransportRegistry:
    def test_namespace_registered(self):
        assert "transports" in registry.namespaces()
        names = {entry.name for entry in registry.entries("transports")}
        assert {"callable", "http"} <= names

    def test_resolve_by_name(self, trained_cnn):
        transport = resolve_transport("callable", fn=trained_cnn.predict)
        assert isinstance(transport, CallableTransport)

    def test_resolve_passthrough_and_callable(self, trained_cnn):
        transport = CallableTransport(trained_cnn.predict)
        assert resolve_transport(transport) is transport
        wrapped = resolve_transport(trained_cnn.predict)
        assert isinstance(wrapped, CallableTransport)

    def test_resolve_rejects_junk(self):
        with pytest.raises(TypeError):
            resolve_transport(42)

    def test_http_transport_validates_args(self):
        with pytest.raises(ValueError):
            HttpTransport("", "model.npz")
        with pytest.raises(ValueError):
            HttpTransport("http://x", "")
        with pytest.raises(ValueError):
            HttpTransport("http://x", "model.npz", timeout_s=0.0)


# ---------------------------------------------------------------------------
# the sequential verifier
# ---------------------------------------------------------------------------


class TestOnlineVerifier:
    def test_clean_decides_before_full_replay(self, trained_cnn, scored_package):
        report = verify_online(trained_cnn, scored_package)
        assert report.verdict == VERDICT_CLEAN and report.decided
        assert report.queries_used == clean_floor(scored_package.num_tests)
        assert report.queries_used < scored_package.num_tests
        assert report.queries_saved > 0
        assert report.order == "discrimination"
        assert not report.detected

    def test_tampered_decides_early(self, tampered, scored_package):
        full = validate_ip(tampered, scored_package)
        report = verify_online(tampered, scored_package)
        assert report.detected == full.detected
        if full.detected:
            assert report.verdict == VERDICT_TAMPERED and report.decided
            assert report.queries_used <= scored_package.num_tests
            assert set(report.mismatched_indices) <= set(full.mismatched_indices)

    def test_budget_exhaustion_reports_undecided(self, trained_cnn, scored_package):
        report = verify_online(trained_cnn, scored_package, query_budget=2)
        assert not report.decided
        assert report.queries_used == 2
        assert report.verdict == VERDICT_CLEAN
        assert "budget-exhausted" in report.summary()

    def test_probe_batch_bills_whole_probes(self, trained_cnn, scored_package):
        report = verify_online(trained_cnn, scored_package, probe_batch=4)
        assert report.queries_used % 4 == 0 or report.queries_used == (
            scored_package.num_tests
        )

    def test_remote_ledger_attached(self, trained_cnn, scored_package):
        remote = RemoteModel(CallableTransport(trained_cnn.predict))
        report = verify_online(remote, scored_package)
        assert report.ledger is not None
        assert report.ledger["queries_sent"] == report.queries_used

    def test_shape_tampering_is_detected(self, scored_package):
        report = verify_online(lambda inputs: np.zeros((len(inputs), 3)), scored_package)
        assert report.detected
        assert report.queries_used == 1
        assert report.max_output_deviation == np.inf

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_outputs_are_detected(self, value, scored_package):
        # nan > atol is False: a NaN suspect used to be scored clean
        def suspect(inputs):
            return np.full((len(inputs), scored_package.expected_outputs.shape[1]), value)

        report = verify_online(suspect, scored_package)
        assert report.verdict == VERDICT_TAMPERED and report.decided
        assert report.queries_used == 1
        assert report.max_output_deviation == np.inf

    def test_report_round_trips_as_dict(self, trained_cnn, scored_package):
        report = verify_online(trained_cnn, scored_package)
        clone = type(report).from_dict(report.to_dict())
        assert clone == report

    def test_parameter_validation(self, trained_cnn, scored_package):
        with pytest.raises(ValueError):
            OnlineVerifier(trained_cnn, scored_package, confidence=0.0)
        with pytest.raises(ValueError):
            OnlineVerifier(trained_cnn, scored_package, query_budget=0)
        with pytest.raises(ValueError):
            OnlineVerifier(trained_cnn, scored_package, probe_batch=0)

    def test_default_clean_fraction_pinned(self):
        # the curtailment operating point the bench gate was tuned against
        assert DEFAULT_CLEAN_FRACTION == 0.875


# ---------------------------------------------------------------------------
# coalescer cross-tenant fairness
# ---------------------------------------------------------------------------


class TestOneSprtWalk:
    """The verifier runs the campaign's SPRT kernel over the probed stream."""

    @pytest.mark.parametrize("probe_batch", [1, 3])
    @pytest.mark.parametrize("budget", [None, 3])
    def test_verifier_is_the_kernel_on_every_short_stream(self, budget, probe_batch):
        for n in range(1, 9):
            package = ValidationPackage(
                tests=np.arange(n, dtype=np.float64)[:, None],
                expected_outputs=np.zeros((n, 3)),
                discrimination=np.random.default_rng(n).random(n),
            )
            order, _ = query_order(package)
            limit = n if budget is None else min(budget, n)
            for bits in range(2**n):
                # stream[i] flags the i-th queried test, order[i]
                stream = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
                bad = np.zeros(n, dtype=bool)
                bad[order] = stream

                def ip(x, bad=bad):
                    return np.repeat(bad[x[:, 0].astype(int)][:, None], 3, axis=1) * 1.0

                report = OnlineVerifier(
                    ip, package, query_budget=budget, probe_batch=probe_batch
                ).verify()
                verdict, decided, used, llr = decide_from_mismatches(stream, budget=budget)
                assert (report.verdict, report.decided, report.llr) == (verdict, decided, llr)
                assert report.mismatched_indices == sorted(order[:used][stream[:used]].tolist())
                assert report.queries_used == min(-(-used // probe_batch) * probe_batch, limit)


class TestCoalescerFairness:
    def _coalescer(self, dispatched, **kwargs):
        from repro.serve import BatchingCoalescer

        async def dispatch(package, models):
            dispatched.append(list(models))
            return np.arange(len(models), dtype=float).reshape(-1, 1, 1)

        kwargs.setdefault("window_s", 0.01)
        return BatchingCoalescer(dispatch, **kwargs)

    class FakePackage:
        pass

    def test_per_tenant_cap_splits_dispatches(self):
        dispatched = []
        coalescer = self._coalescer(dispatched, max_per_tenant=2)
        package = self.FakePackage()

        async def main():
            return await asyncio.gather(
                *[
                    coalescer.submit("fp", package, f"d{i}", f"m{i}", tenant="hog")
                    for i in range(5)
                ]
            )

        results = asyncio.run(main())
        assert len(results) == 5
        # 5 same-tenant models at cap 2 → dispatches of 2, 2, 1
        assert sorted(len(batch) for batch in dispatched) == [1, 2, 2]
        assert coalescer.stats.fairness_evictions >= 3

    def test_other_tenants_keep_their_seats(self):
        dispatched = []
        coalescer = self._coalescer(dispatched, max_per_tenant=2, max_models=8)
        package = self.FakePackage()

        async def main():
            return await asyncio.gather(
                *[
                    coalescer.submit("fp", package, f"hog-{i}", f"h{i}", tenant="hog")
                    for i in range(4)
                ],
                coalescer.submit("fp", package, "small", "s0", tenant="small"),
            )

        results = asyncio.run(main())
        assert len(results) == 5
        first = dispatched[0]
        # the small tenant rides the first dispatch; the hog is capped at 2
        assert "s0" in first
        assert sum(1 for m in first if str(m).startswith("h")) == 2
        assert coalescer.stats.fairness_evictions == 2

    def test_no_cap_means_no_evictions(self):
        dispatched = []
        coalescer = self._coalescer(dispatched)
        package = self.FakePackage()

        async def main():
            await asyncio.gather(
                *[
                    coalescer.submit("fp", package, f"d{i}", f"m{i}", tenant="hog")
                    for i in range(5)
                ]
            )

        asyncio.run(main())
        assert len(dispatched) == 1
        assert coalescer.stats.fairness_evictions == 0

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            self._coalescer([], max_per_tenant=0)

    def test_fairness_evictions_in_stats_dict(self):
        coalescer = self._coalescer([])
        assert coalescer.stats.to_dict()["fairness_evictions"] == 0

    def test_lane_counters_in_stats_dict(self):
        from repro.serve import BatchingCoalescer

        hold = 0.02
        dispatched = []
        started = asyncio.Event()
        release = asyncio.Event()

        async def dispatch(package, models):
            dispatched.append(list(models))
            started.set()
            await release.wait()
            return np.zeros((len(models), 1, 1))

        coalescer = BatchingCoalescer(dispatch)
        assert coalescer.stats.to_dict()["lane_waits"] == 0
        assert coalescer.stats.to_dict()["lane_busy_s"] == 0.0
        package = self.FakePackage()

        async def main():
            first = asyncio.create_task(coalescer.submit("fp-a", package, "d0", "m0"))
            await started.wait()  # m0 is in flight until release
            later = [
                asyncio.create_task(coalescer.submit("fp-a", package, "d1", "m1")),
                asyncio.create_task(coalescer.submit("fp-b", package, "d0", "m2")),
            ]
            for _ in range(10):
                await asyncio.sleep(0)  # m1 and m2 reach dispatch
            await asyncio.sleep(hold)
            release.set()
            await asyncio.gather(first, *later)

        asyncio.run(main())
        stats = coalescer.stats.to_dict()
        assert dispatched == [["m0"], ["m1"], ["m2"]]
        # both later dispatches started while m0's was in flight
        assert stats["lane_waits"] == 2
        assert stats["lane_busy_s"] >= hold


# ---------------------------------------------------------------------------
# the /v1/query endpoint
# ---------------------------------------------------------------------------


class TestQueryEndpoint:
    @pytest.fixture(scope="class")
    def served(self, trained_cnn, digit_dataset, tmp_path_factory):
        """A released mnist-style package saved for serving."""
        from repro.api import ReleaseRequest, Session

        with Session() as session:
            released = session.release(
                ReleaseRequest(
                    dataset="mnist",
                    train_size=30,
                    test_size=12,
                    epochs=1,
                    width_multiplier=0.1,
                    num_tests=3,
                    candidate_pool=10,
                    gradient_updates=3,
                )
            )
        directory = tmp_path_factory.mktemp("query-artifacts")
        released.save(directory)
        return released, directory

    def _serve(self, directory, fn):
        from repro.serve import HttpServer, ServeConfig, ValidationService

        async def main():
            config = ServeConfig(
                port=0, artifacts_root=str(directory), coalesce_window_s=0.0
            )
            service = ValidationService(config)
            server = HttpServer(service, config)
            host, port = await server.start()
            try:
                return await fn(host, port)
            finally:
                await server.stop()

        return asyncio.run(main())

    def test_query_round_trips_exact_float64(self, served):
        released, directory = served
        tests = released.package.tests

        async def run(host, port):
            from repro.serve import HttpClient

            client = HttpClient(host, port, tenant="query-test")
            status, body = await client.post(
                "/v1/query",
                {
                    "schema_version": 1,
                    "kind": "query",
                    "body": {
                        "model_path": "model.npz",
                        "arch": "mnist",
                        "width_multiplier": 0.1,
                        "inputs": tests.tolist(),
                    },
                },
            )
            stats = await client.stats()
            return status, body, stats

        status, body, stats = self._serve(directory, run)
        assert status == 200
        assert body["kind"] == "query_result"
        outputs = np.asarray(body["body"]["outputs"], dtype=np.float64)
        np.testing.assert_array_equal(outputs, released.model.predict(tests))
        assert stats["queries"]["requests"] == 1
        assert stats["queries"]["inputs"] == len(tests)
        assert stats["operations"]["query"] == 1

    def test_query_path_is_sandboxed(self, served):
        _released, directory = served

        async def run(host, port):
            from repro.serve import HttpClient

            client = HttpClient(host, port)
            return await client.post(
                "/v1/query",
                {
                    "schema_version": 1,
                    "kind": "query",
                    "body": {
                        "model_path": "../escape.npz",
                        "arch": "mnist",
                        "inputs": [[0.0]],
                    },
                },
            )

        status, body = self._serve(directory, run)
        assert status == 400
        assert "artifacts_root" in body["error"]

    def test_remote_model_full_loop(self, served):
        released, directory = served
        package = released.package

        async def run(host, port):
            loop = asyncio.get_running_loop()
            transport = HttpTransport(
                f"http://{host}:{port}",
                model_path="model.npz",
                arch="mnist",
                width_multiplier=0.1,
            )
            remote = RemoteModel(transport)
            outputs = await loop.run_in_executor(None, remote, package.tests)
            return outputs, remote.stats()

        outputs, stats = self._serve(directory, run)
        np.testing.assert_array_equal(outputs, released.model.predict(package.tests))
        assert stats["queries_sent"] == package.num_tests
        assert stats["transport"]["transport"] == "http"


# ---------------------------------------------------------------------------
# the verify CLI and api wiring
# ---------------------------------------------------------------------------


class TestVerifyCli:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        from repro.api import ReleaseRequest, Session

        with Session() as session:
            released = session.release(
                ReleaseRequest(
                    dataset="mnist",
                    train_size=30,
                    test_size=12,
                    epochs=1,
                    width_multiplier=0.1,
                    num_tests=4,
                    candidate_pool=10,
                    gradient_updates=3,
                    measure_discrimination=True,
                    discrimination_trials=2,
                )
            )
        directory = tmp_path_factory.mktemp("verify-cli")
        return released.save(directory)

    def test_verify_local_sequential(self, artifacts, capsys):
        from repro.cli import main

        code = main(
            [
                "verify",
                "--package",
                str(artifacts["package"]),
                "--model",
                str(artifacts["model"]),
                "--arch",
                "mnist",
                "--width",
                "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sequential verdict" in out

    def test_verify_expect_detected_flips_exit_code(self, artifacts):
        from repro.cli import main

        code = main(
            [
                "verify",
                "--package",
                str(artifacts["package"]),
                "--model",
                str(artifacts["model"]),
                "--arch",
                "mnist",
                "--width",
                "0.1",
                "--expect-detected",
            ]
        )
        assert code == 3  # clean model, detection expected

    def test_validate_request_mode_validation(self):
        from repro.api import ValidateRequest

        with pytest.raises(ValueError, match="mode"):
            ValidateRequest(package="p.npz", mode="express").validate()
        with pytest.raises(ValueError, match="confidence"):
            ValidateRequest(
                package="p.npz", mode="sequential", confidence=2.0
            ).validate()
        with pytest.raises(ValueError, match="model_path"):
            ValidateRequest(
                package="p.npz", remote_url="http://127.0.0.1:1"
            ).validate()

    def test_session_sequential_outcome(self, artifacts):
        from repro.api import Session, ValidateRequest

        with Session() as session:
            outcome = session.validate(
                ValidateRequest(
                    package=str(artifacts["package"]),
                    model_path=str(artifacts["model"]),
                    arch="mnist",
                    width_multiplier=0.1,
                    mode="sequential",
                )
            )
        assert outcome.passed
        assert outcome.mode == "sequential"
        assert outcome.sequential is not None
        # at N=4 four matches cannot reach the 0.99 clean threshold, so the
        # set exhausts undecided with a clean (full-replay-rule) verdict
        assert outcome.sequential["queries_used"] <= outcome.num_tests
        assert outcome.sequential["verdict"] == "clean"
        assert "sequential verdict" in outcome.summary()

    def test_outcome_wire_round_trip(self, artifacts):
        from repro.api import Session, ValidateRequest, ValidationOutcome

        with Session() as session:
            outcome = session.validate(
                ValidateRequest(
                    package=str(artifacts["package"]),
                    model_path=str(artifacts["model"]),
                    arch="mnist",
                    width_multiplier=0.1,
                    mode="sequential",
                )
            )
        clone = ValidationOutcome.from_wire(outcome.to_wire())
        assert clone.mode == "sequential"
        assert clone.sequential == outcome.sequential


# ---------------------------------------------------------------------------
# property: sequential verdict == full-replay verdict on the CI matrix
# ---------------------------------------------------------------------------


class TestSequentialMatchesFullReplay:
    """Satellite property: for every (model, attack, criterion) cell of the
    pinned CI matrix, sequential mode reaches the same detected/clean
    verdict as full replay (scaled-down sizes keep this inside test time;
    the full-size gate lives in benchmarks/bench_verify.py)."""

    SCALED = dict(
        num_tests=8,
        strategy="combined",
        train_size=40,
        test_size=12,
        epochs=1,
        width_multiplier=0.1,
        candidate_pool=16,
        gradient_updates=3,
        measure_discrimination=True,
        discrimination_trials=2,
        seed=2019,
    )

    @staticmethod
    def _matrix_axes():
        root = Path(__file__).resolve().parents[1]
        from repro.campaign import CampaignSpec

        spec = CampaignSpec.load(root / ".github" / "campaign" / "ci_matrix.toml")
        return spec.models, spec.criteria, spec.attacks

    def test_verdicts_agree_on_every_cell(self):
        from repro.api import ReleaseRequest, RunConfig, Session
        from repro.validation import default_attack_factories

        models, criteria, attacks = self._matrix_axes()
        disagreements = []
        with Session(RunConfig(seed=2019)) as session:
            for model_name in models:
                for criterion in criteria:
                    released = session.release(
                        ReleaseRequest(
                            dataset=model_name, criterion=criterion, **self.SCALED
                        )
                    )
                    package = released.package
                    factories = default_attack_factories(package.tests)
                    cells = [("clean", released.model)]
                    for attack in attacks:
                        rng = np.random.default_rng(7)
                        cells.append(
                            (attack, factories[attack](rng).apply(released.model).model)
                        )
                    for cell_name, ip in cells:
                        full = validate_ip(ip, package)
                        sequential = verify_online(ip, package)
                        if sequential.detected != full.detected:
                            disagreements.append(
                                f"{model_name}/{criterion}/{cell_name}"
                            )
        assert not disagreements, (
            "sequential verdict diverged from full replay on: "
            + ", ".join(disagreements)
        )
