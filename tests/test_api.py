"""Tests of the repro.api façade: Session, RunConfig, typed requests, the
one-shot helpers and the wire envelope."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    ReleasePackage,
    ReleaseRequest,
    RunConfig,
    Session,
    SweepRequest,
    ValidateRequest,
    ValidationOutcome,
)


def _toml_available() -> bool:
    try:
        import tomllib  # noqa: F401
    except ModuleNotFoundError:
        try:
            import tomli  # noqa: F401
        except ModuleNotFoundError:
            return False
    return True


requires_toml = pytest.mark.skipif(
    not _toml_available(), reason="needs tomllib (3.11+) or the tomli backport"
)

#: preparation small enough for unit tests; shared so the session-scoped
#: release fixture and the one-shot tests hit the same cached experiment
TINY_PREP = dict(train_size=30, test_size=12, epochs=1, width_multiplier=0.1)
TINY_GEN = dict(num_tests=3, candidate_pool=10, gradient_updates=3)


@pytest.fixture(scope="module")
def session():
    with Session() as s:
        yield s


@pytest.fixture(scope="module")
def released(session):
    return session.release(ReleaseRequest(dataset="mnist", **TINY_PREP, **TINY_GEN))


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunConfig fields"):
            RunConfig.from_dict({"turbo": True})

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="batch_size"):
            RunConfig(batch_size=0).validate()
        with pytest.raises(ValueError, match="engine_cache_size"):
            RunConfig(engine_cache_size=0).validate()

    def test_json_round_trip(self, tmp_path):
        config = RunConfig(shards=2, batch_size=32, seed=7)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config.to_dict()))
        assert RunConfig.load(path) == config

    @requires_toml
    def test_toml_with_run_table(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('[run]\nseed = 5\nbatch_size = 16\n')
        assert RunConfig.load(path).batch_size == 16

    @requires_toml
    def test_toml_rejects_split_tables(self, tmp_path):
        path = tmp_path / "run.toml"
        path.write_text('seed = 3\n[run]\nbatch_size = 16\n')
        with pytest.raises(ValueError, match="outside the \\[run\\] table"):
            RunConfig.load(path)


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


class TestRequests:
    def test_release_request_from_dict_round_trip(self):
        request = ReleaseRequest(dataset="cifar", num_tests=5, strategy="random")
        rebuilt = ReleaseRequest.from_dict(request.to_dict())
        assert rebuilt == request

    def test_release_request_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ReleaseRequest(strategy="psychic").validate()
        with pytest.raises(ValueError, match="num_tests"):
            ReleaseRequest(num_tests=0).validate()
        with pytest.raises(ValueError, match="train_size"):
            ReleaseRequest(train_size=0).validate()

    def test_coerce_accepts_dict_and_overrides(self):
        request = ReleaseRequest.coerce({"dataset": "mnist"}, num_tests=4)
        assert request.dataset == "mnist" and request.num_tests == 4
        base = ReleaseRequest(num_tests=9)
        assert ReleaseRequest.coerce(base) is base
        assert ReleaseRequest.coerce(base, num_tests=2).num_tests == 2
        with pytest.raises(TypeError, match="cannot build"):
            ReleaseRequest.coerce(42)

    @requires_toml
    def test_release_request_loads_toml(self, tmp_path):
        path = tmp_path / "release.toml"
        path.write_text('[release]\ndataset = "mnist"\nnum_tests = 6\n')
        request = ReleaseRequest.load(path)
        assert request.num_tests == 6

    def test_validate_request_requires_package(self):
        with pytest.raises(ValueError, match="package is required"):
            ValidateRequest().validate()

    def test_validate_request_with_object_package_not_serialisable(self, released):
        request = ValidateRequest(package=released.package)
        request.validate()
        with pytest.raises(ValueError, match="not\\s+serialisable"):
            request.to_dict()

    def test_sweep_request_requires_spec(self):
        with pytest.raises(ValueError, match="spec is required"):
            SweepRequest().validate()

    def test_sweep_request_resolves_spec_dict(self):
        from repro.campaign import CampaignSpec

        request = SweepRequest(
            spec=dict(models=("mnist",), strategies=("random",), budgets=(2,)),
            store="s.jsonl",
        )
        spec = request.resolve_spec()
        assert isinstance(spec, CampaignSpec)
        assert request.to_dict()["store"] == "s.jsonl"


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


class TestSession:
    def test_config_coercion(self):
        assert Session({"batch_size": 16}).config.batch_size == 16
        assert Session(RunConfig(seed=3), seed=5).config.seed == 5
        assert Session(batch_size=8).config.batch_size == 8
        with pytest.raises(TypeError, match="cannot build a RunConfig"):
            Session(42)

    def test_engine_lru_reuse_and_eviction(self, trained_mlp, trained_cnn):
        with Session(engine_cache_size=1) as s:
            e1 = s.engine_for(trained_mlp)
            assert s.engine_for(trained_mlp) is e1  # warm reuse
            e2 = s.engine_for(trained_cnn)  # evicts the MLP engine
            assert s.engine_for(trained_cnn) is e2
            assert s.engine_for(trained_mlp) is not e1

    def test_prepared_lru_re_prepares_an_evicted_key(self, monkeypatch):
        from repro.analysis import sweep

        calls = []

        def fake_prepare(dataset, **kwargs):
            calls.append(dataset)
            return object()

        monkeypatch.setattr(sweep, "prepare_experiment", fake_prepare)
        with Session(prepared_cache_size=1) as s:
            first = s.prepare("mnist")
            assert s.prepare("mnist") is first  # warm reuse
            s.prepare("cifar")  # evicts mnist
            assert s.prepare("mnist") is not first
        assert calls == ["mnist", "cifar", "mnist"]

    def test_engines_inherit_config(self, trained_mlp):
        with Session(batch_size=8, memory_budget_bytes=1 << 20) as s:
            engine = s.engine_for(trained_mlp)
            assert engine.batch_size == 8
            assert engine.memory_budget_bytes == 1 << 20

    def test_closed_session_rejects_use(self, trained_mlp):
        s = Session()
        s.close()
        with pytest.raises(RuntimeError, match="session is closed"):
            s.engine_for(trained_mlp)

    def test_release_produces_consistent_package(self, released):
        assert isinstance(released, ReleasePackage)
        assert released.num_tests == 3
        assert 0.0 < released.coverage <= 1.0
        assert released.package.metadata["generator"] == "combined"
        # reference outputs really are the model's outputs
        np.testing.assert_allclose(
            released.model.predict(released.package.tests),
            released.package.expected_outputs,
        )

    def test_release_reuses_prepared_model(self, session, released):
        second = session.release(
            ReleaseRequest(dataset="mnist", **TINY_PREP, **TINY_GEN, strategy="random")
        )
        assert second.model is released.model  # same cached preparation
        assert second.generation.method != released.generation.method

    def test_release_is_deterministic_across_sessions(self, released):
        with Session() as other:
            again = other.release(
                ReleaseRequest(dataset="mnist", **TINY_PREP, **TINY_GEN)
            )
        np.testing.assert_array_equal(again.package.tests, released.package.tests)
        np.testing.assert_array_equal(
            again.package.expected_outputs, released.package.expected_outputs
        )

    def test_validate_clean_and_tampered(self, session, released):
        clean = session.validate(package=released.package, ip=released.model)
        assert isinstance(clean, ValidationOutcome)
        assert clean.passed and not clean.detected
        from repro.attacks import SingleBiasAttack

        tampered_model = SingleBiasAttack(rng=3).apply(released.model).model
        tampered = session.validate(
            ValidateRequest(package=released.package), ip=tampered_model
        )
        assert tampered.detected
        assert tampered.num_mismatched > 0
        assert "TAMPERED" in tampered.summary()

    def test_validate_accepts_callable_black_box(self, session, released):
        calls = []

        def black_box(batch):
            calls.append(batch.shape[0])
            return released.model.predict(batch)

        outcome = session.validate(package=released.package, ip=black_box)
        assert outcome.passed and calls == [released.num_tests]

    def test_validate_from_saved_artefacts(self, session, released, tmp_path):
        paths = released.save(tmp_path)
        assert sorted(p.name for p in paths.values()) == ["model.npz", "package.npz"]
        outcome = session.validate(
            ValidateRequest(
                package=str(paths["package"]),
                model_path=str(paths["model"]),
                arch="mnist",
                width_multiplier=0.1,
            )
        )
        assert outcome.passed

    def test_cifar_round_trip_applies_width_scale(self, tmp_path):
        # the cifar recipe trains at width_multiplier * 0.5; the symmetric
        # ValidateRequest(arch="cifar", width_multiplier=...) must apply the
        # same scale or the rebuilt model's parameter shapes mismatch
        with Session() as s:
            released = s.release(
                ReleaseRequest(
                    dataset="cifar",
                    train_size=20,
                    test_size=8,
                    epochs=1,
                    width_multiplier=0.125,
                    num_tests=2,
                    candidate_pool=8,
                    gradient_updates=2,
                )
            )
            paths = released.save(tmp_path)
            outcome = s.validate(
                ValidateRequest(
                    package=str(paths["package"]),
                    model_path=str(paths["model"]),
                    arch="cifar",
                    width_multiplier=0.125,
                )
            )
        assert outcome.passed

    def test_validate_without_ip_or_path_rejected(self, session, released):
        with pytest.raises(ValueError, match="no IP to validate"):
            session.validate(package=released.package)

    def test_outcome_round_trips_to_dict(self, session, released):
        outcome = session.validate(package=released.package, ip=released.model)
        data = outcome.to_dict()
        assert data["passed"] is True
        assert data["num_tests"] == released.num_tests

    def test_sweep_delegates_and_resumes(self, tmp_path):
        spec = dict(
            attacks=("sba",),
            models=("mnist",),
            strategies=("random",),
            budgets=(2,),
            trials=2,
            train_size=24,
            test_size=12,
            epochs=1,
            candidate_pool=12,
            gradient_updates=3,
            reference_inputs=6,
        )
        store = str(tmp_path / "results.jsonl")
        with Session() as s:
            first = s.sweep(SweepRequest(spec=spec, store=store))
            assert first.executed == 1
            resumed = s.sweep(spec=spec, store=store)
            assert resumed.executed == 0 and resumed.skipped == 1

    def test_sweep_writes_report(self, tmp_path):
        spec = dict(
            attacks=("sba",),
            models=("mnist",),
            strategies=("random",),
            budgets=(2,),
            trials=1,
            train_size=24,
            test_size=12,
            epochs=1,
            candidate_pool=12,
            gradient_updates=3,
            reference_inputs=6,
        )
        report = tmp_path / "report.md"
        with Session() as s:
            s.sweep(
                spec=spec, store=str(tmp_path / "r.jsonl"), report=str(report)
            )
        assert "Detection" in report.read_text() or report.stat().st_size > 0


# ---------------------------------------------------------------------------
# module-level one-shot helpers
# ---------------------------------------------------------------------------


class TestOneShotHelpers:
    def test_release_and_validate_functions(self):
        from repro import release, validate

        released = release(
            ReleaseRequest(dataset="mnist", **TINY_PREP, **TINY_GEN, strategy="random")
        )
        outcome = validate(
            ValidateRequest(package=released.package), ip=released.model
        )
        assert outcome.passed

    def test_request_object_calls_do_not_warn(self):
        from repro import release, validate

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            released = release(
                ReleaseRequest(
                    dataset="mnist", **TINY_PREP, **TINY_GEN, strategy="random"
                )
            )
            outcome = validate(
                ValidateRequest(package=released.package), ip=released.model
            )
        assert outcome.passed
        assert [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ] == []

    def test_top_level_lazy_exports(self):
        import repro

        assert repro.Session is Session
        assert repro.RunConfig is RunConfig
        assert callable(repro.release) and callable(repro.validate)
        assert repro.get_registry().names("strategies")
        with pytest.raises(AttributeError, match="has no attribute"):
            _ = repro.not_an_export

    def test_import_repro_is_lazy(self):
        # the lazy surface must not leak eager imports: a fresh interpreter
        # importing repro must not pull numpy
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        code = "import repro, sys; sys.exit(1 if 'numpy' in sys.modules else 0)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0


# ---------------------------------------------------------------------------
# retired options
# ---------------------------------------------------------------------------


class TestRetiredOptions:
    """Options of the removed backend choice and ``parallel`` backend, the
    removed ``bench`` subcommand, and the removed float32 and engine-retry
    layers fail loudly, naming the offending option or value."""

    def test_parallel_backend_options_fail_loudly(self, capsys):
        from repro.cli import main

        with pytest.raises(TypeError, match="backend"):
            Session(backend="parallel")
        with pytest.raises(ValueError, match=r"unknown RunConfig fields \['backend', 'workers'\]"):
            RunConfig.from_dict({"backend": "numpy", "workers": 2})
        with pytest.raises(ValueError, match=r"unknown SweepRequest fields \['backend'\]"):
            SweepRequest.coerce({"spec": {"attacks": ["sba"]}, "backend": "numpy"})
        with pytest.raises(ValueError, match=r"unknown SweepRequest fields \['workers'\]"):
            SweepRequest.coerce({"spec": {"attacks": ["sba"]}, "workers": 2})
        with pytest.raises(ValueError, match="dispatch_timeout_s"):
            RunConfig(faults={"dispatch_timeout_s": 30.0}).validate()
        argv = ["campaign", "run", "--spec", "s.toml", "--store", "s.jsonl"]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        for retired in (argv, ["release", "--dataset", "mnist", "--out", "o"]):
            with pytest.raises(SystemExit) as exit_info:
                main([*retired, "--backend", "model_axis"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --backend model_axis" in capsys.readouterr().err

    def test_bench_subcommand_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_dtype_and_engine_retry_options_fail_loudly(self, capsys):
        from repro.cli import main
        from repro.engine import Engine
        from repro.faults import FaultPolicy
        from repro.models.zoo import small_mlp

        with pytest.raises(ValueError, match=r"unknown RunConfig fields \['dtype'\]"):
            RunConfig.from_dict({"dtype": "float32"})
        with pytest.raises(ValueError, match="unknown FaultPolicy field"):
            FaultPolicy.from_dict({"downgrade_backend": "numpy"})
        model = small_mlp(rng=0)
        with pytest.raises(TypeError):
            Engine(model, dtype="float32")
        with pytest.raises(TypeError):
            Engine(model, fault_policy={})
        argv = ["campaign", "run", "--spec", "s.toml", "--store", "s.jsonl"]
        for args, flag in (
            (["release", "--out", "out", "--dtype", "float32"], "--dtype float32"),
            ([*argv, "--retries", "3"], "--retries 3"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(args)
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the versioned wire envelope
# ---------------------------------------------------------------------------


class TestWireEnvelope:
    def test_request_round_trips_through_wire(self):
        from repro.api import WIRE_SCHEMA_VERSION

        request = ReleaseRequest(dataset="mnist", num_tests=7, strategy="random")
        wire = request.to_wire()
        assert wire["schema_version"] == WIRE_SCHEMA_VERSION
        assert wire["kind"] == "release"
        assert wire["body"]["num_tests"] == 7
        assert ReleaseRequest.from_wire(wire) == request

    def test_wire_is_json_serialisable(self):
        request = ValidateRequest(package="p.npz", model_path="m.npz")
        wire = json.loads(json.dumps(request.to_wire()))
        assert ValidateRequest.from_wire(wire) == request

    def test_envelope_rejects_future_schema_version(self):
        wire = ValidateRequest(package="p.npz").to_wire()
        wire["schema_version"] = 99
        with pytest.raises(ValueError, match="unsupported wire schema_version"):
            ValidateRequest.from_wire(wire)

    def test_envelope_rejects_wrong_kind(self):
        wire = ValidateRequest(package="p.npz").to_wire()
        with pytest.raises(ValueError, match="does not match the expected"):
            ReleaseRequest.from_wire(wire)

    def test_envelope_requires_version_and_kind(self):
        from repro.api import open_envelope

        with pytest.raises(ValueError, match="missing 'schema_version'"):
            open_envelope({"kind": "validate", "body": {}})
        with pytest.raises(ValueError, match="missing 'kind'"):
            open_envelope({"schema_version": 1, "body": {}})
        with pytest.raises(ValueError, match="'body' must be a dict"):
            open_envelope({"schema_version": 1, "kind": "x", "body": 3})

    def test_coerce_detects_wire_envelopes(self):
        request = ValidateRequest(package="p.npz", arch="mnist")
        coerced = ValidateRequest.coerce(request.to_wire())
        assert coerced == request
        # bare field dicts keep working unchanged
        assert ValidateRequest.coerce({"package": "p.npz"}).package == "p.npz"

    def test_session_validate_accepts_wire_envelope(self, session, released, tmp_path):
        paths = released.save(tmp_path)
        request = ValidateRequest(
            package=str(paths["package"]),
            model_path=str(paths["model"]),
            arch="mnist",
            width_multiplier=0.1,
        )
        outcome = session.validate(request.to_wire())
        assert outcome.passed

    def test_outcome_round_trips_through_wire(self, session, released):
        outcome = session.validate(
            ValidateRequest(package=released.package), ip=released.model
        )
        wire = json.loads(json.dumps(outcome.to_wire()))
        assert wire["kind"] == "outcome"
        assert ValidationOutcome.from_wire(wire) == outcome
