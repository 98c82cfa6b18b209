"""Tests for the campaign subsystem: spec expansion, store semantics,
resumable execution, drift detection, registries and the CLI.

The runner tests share one tiny campaign (24 training images, 1 epoch,
2 trials) via a module-scoped fixture so the expensive train/package work
happens once; resume/determinism assertions replay it into fresh stores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    Scenario,
    ScenarioRecord,
    derive_scenario_seed,
    diff_against_expectations,
    expectations_from_records,
    run_campaign,
)
from repro.campaign.runner import CampaignRunner
from repro.coverage.activation import ActivationCriterion, resolve_criterion
from repro.models.zoo import small_mlp
from repro.registry import registry
from repro.testgen.strategies import build_generator


def available_strategies():
    return registry.names("strategies")


def get_strategy(name):
    return registry.get("strategies", name)


def _toml_available() -> bool:
    try:
        import tomllib  # noqa: F401
    except ModuleNotFoundError:
        try:
            import tomli  # noqa: F401
        except ModuleNotFoundError:
            return False
    return True


#: the dev extras install tomli on <3.11, so CI always runs these; the skip
#: only guards bare interpreters
requires_toml = pytest.mark.skipif(
    not _toml_available(), reason="needs tomllib (3.11+) or the tomli backport"
)


def tiny_spec(**overrides: object) -> CampaignSpec:
    """A campaign small enough to execute inside a unit test."""
    base = dict(
        name="tiny",
        attacks=("sba", "random"),
        models=("mnist",),
        criteria=("default",),
        strategies=("random",),
        budgets=(2, 3),
        trials=2,
        train_size=24,
        test_size=12,
        epochs=1,
        width_multiplier=0.08,
        candidate_pool=12,
        gradient_updates=3,
        reference_inputs=6,
    )
    base.update(overrides)
    return CampaignSpec(**base)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# spec expansion
# ---------------------------------------------------------------------------


class TestSpecExpansion:
    def test_cross_product_size_and_order(self):
        spec = tiny_spec()
        scenarios = spec.expand()
        assert len(scenarios) == 2 * 1 * 1 * 1 * 2
        # nested axis order: model, attack, criterion, strategy, budget
        assert [s.key for s in scenarios] == [
            ("mnist", "sba", "default", "random", 2),
            ("mnist", "sba", "default", "random", 3),
            ("mnist", "random", "default", "random", 2),
            ("mnist", "random", "default", "random", 3),
        ]

    @pytest.mark.parametrize(
        "axis", ["attacks", "models", "criteria", "strategies", "budgets"]
    )
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="is empty"):
            tiny_spec(**{axis: ()}).expand()

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ValueError, match="unknown attacks"):
            tiny_spec(attacks=("sba", "meteor")).validate()
        with pytest.raises(ValueError, match="unknown models"):
            tiny_spec(models=("mnist", "imagenet")).validate()
        with pytest.raises(ValueError, match="unknown strategies"):
            tiny_spec(strategies=("combined", "psychic")).validate()
        with pytest.raises(ValueError, match="unknown criterion"):
            tiny_spec(criteria=("default", "vibes")).validate()

    def test_duplicate_axis_values_dedupe_by_digest(self):
        plain = tiny_spec().expand()
        doubled = tiny_spec(
            attacks=("sba", "sba", "random"), budgets=(2, 3, 2)
        ).expand()
        assert [s.digest for s in doubled] == [s.digest for s in plain]

    def test_scenario_seeds_unique_and_deterministic(self):
        spec = tiny_spec()
        first = spec.expand()
        second = spec.expand()
        assert [s.seed for s in first] == [s.seed for s in second]
        assert len({s.seed for s in first}) == len(first)

    def test_seed_depends_on_spec_seed_and_coordinates(self):
        a = derive_scenario_seed(0, "mnist", "sba", "default", "combined", 10)
        b = derive_scenario_seed(1, "mnist", "sba", "default", "combined", 10)
        c = derive_scenario_seed(0, "mnist", "sba", "default", "combined", 20)
        assert a != b and a != c
        assert a == derive_scenario_seed(0, "mnist", "sba", "default", "combined", 10)

    def test_seeds_are_stable_across_processes(self):
        """SHA-256 derivation must not depend on PYTHONHASHSEED."""
        spec = tiny_spec()
        expected = [(s.seed, s.digest) for s in spec.expand()]
        code = (
            "import json, sys\n"
            "from repro.campaign import CampaignSpec\n"
            "spec = CampaignSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(json.dumps([[s.seed, s.digest] for s in spec.expand()]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(spec.to_dict())],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "PYTHONHASHSEED": "12345"},
        )
        assert [tuple(x) for x in json.loads(out.stdout)] == expected

    def test_digest_covers_outcome_relevant_knobs(self):
        base = {s.key: s.digest for s in tiny_spec().expand()}
        for change in (
            {"seed": 9},
            {"trials": 3},
            {"train_size": 30},
            {"output_atol": 1e-5},
            {"budgets": (2, 3, 5)},  # max budget changes every prefix
        ):
            changed = {s.key: s.digest for s in tiny_spec(**change).expand()}
            for key in base:
                if key in changed:
                    assert changed[key] != base[key], (change, key)

    def test_name_is_a_label_not_an_input(self):
        base = [s.digest for s in tiny_spec().expand()]
        renamed = [s.digest for s in tiny_spec(name="other").expand()]
        assert base == renamed

    def test_validation_bounds(self):
        with pytest.raises(ValueError, match="budgets must be positive"):
            tiny_spec(budgets=(0,)).validate()
        with pytest.raises(ValueError, match="trials must be positive"):
            tiny_spec(trials=0).validate()
        with pytest.raises(ValueError, match="reference_inputs cannot exceed"):
            tiny_spec(reference_inputs=99).validate()

    def test_criterion_suffix_forms(self):
        model = small_mlp(input_features=4, hidden_units=4, num_classes=2, rng=0)
        assert resolve_criterion("exact", model) == ActivationCriterion(0.0, "sum")
        assert resolve_criterion("eps:1e-3@max", model) == ActivationCriterion(
            1e-3, "max"
        )
        assert resolve_criterion("default", model).scalarization == "sum"
        with pytest.raises(ValueError, match="invalid criterion epsilon"):
            resolve_criterion("eps:nope", model)


class TestSpecSerialization:
    @requires_toml
    def test_toml_and_json_roundtrip(self, tmp_path):
        spec = tiny_spec()
        json_path = spec.save(tmp_path / "spec.json")
        assert CampaignSpec.load(json_path) == spec

        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            "[campaign]\n"
            'name = "tiny"\n'
            'attacks = ["sba", "random"]\n'
            'models = ["mnist"]\n'
            'criteria = ["default"]\n'
            'strategies = ["random"]\n'
            "budgets = [2, 3]\n"
            "trials = 2\n"
            "train_size = 24\n"
            "test_size = 12\n"
            "epochs = 1\n"
            "width_multiplier = 0.08\n"
            "candidate_pool = 12\n"
            "gradient_updates = 3\n"
            "reference_inputs = 6\n",
            encoding="utf-8",
        )
        assert CampaignSpec.load(toml_path) == spec

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"attacks": ["sba"], "warp": 9}), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown campaign spec fields"):
            CampaignSpec.load(path)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("attacks: [sba]", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported spec format"):
            CampaignSpec.load(path)

    @requires_toml
    def test_stray_keys_outside_campaign_table_rejected(self, tmp_path):
        """A knob typed above the [campaign] header must error, not silently
        fall back to its default."""
        path = tmp_path / "spec.toml"
        path.write_text(
            "trials = 100\n"
            "[campaign]\n"
            'attacks = ["sba"]\n'
            'models = ["mnist"]\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="outside the \\[campaign\\] table"):
            CampaignSpec.load(path)

    @requires_toml
    def test_ci_pinned_spec_loads_and_covers_the_paper_matrix(self):
        """The committed CI spec must keep all four attack families on both
        Table-I architectures (the acceptance bar of the campaign PR)."""
        root = Path(__file__).resolve().parents[1]
        spec = CampaignSpec.load(root / ".github" / "campaign" / "ci_matrix.toml")
        assert set(spec.attacks) == {"sba", "gda", "random", "bitflip"}
        assert set(spec.models) == {"mnist", "cifar"}
        assert len(spec.criteria) >= 2


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------


def _record(digest: str = "d" * 64, detections: int = 1) -> ScenarioRecord:
    return ScenarioRecord(
        digest=digest,
        scenario={
            "model": "mnist",
            "attack": "sba",
            "criterion": "default",
            "strategy": "random",
            "budget": 2,
        },
        seed=42,
        trials=2,
        detections=detections,
        coverage=0.5,
    )


class TestResultStore:
    def test_append_load_roundtrip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(_record("a" * 64))
        store.append(_record("b" * 64, detections=2))
        reloaded = ResultStore(path)
        assert len(reloaded) == 2
        assert reloaded.completed_digests() == {"a" * 64, "b" * 64}
        assert reloaded.get("b" * 64).detection_rate == pytest.approx(1.0)
        assert "a" * 64 in reloaded

    def test_double_append_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(_record())
        with pytest.raises(ValueError, match="already in the store"):
            store.append(_record())

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(_record("a" * 64))
        full_line = _record("b" * 64).to_json_line()
        with path.open("a", encoding="utf-8") as fh:
            fh.write(full_line[: len(full_line) // 2])  # torn mid-record
        torn_bytes = path.read_bytes()

        recovered = ResultStore(path)
        assert recovered.completed_digests() == {"a" * 64}
        # loading is a pure read: repair is deferred until the next append,
        # so read-only stores can still be reported/diffed
        assert path.read_bytes() == torn_bytes
        recovered.append(_record("c" * 64))
        assert ResultStore(path).completed_digests() == {"a" * 64, "c" * 64}
        # ... and the torn tail is gone after the repairing append
        assert full_line[: len(full_line) // 2] not in path.read_text(
            encoding="utf-8"
        )

    def test_newline_terminated_corrupt_final_line_raises(self, tmp_path):
        """A complete (newline-terminated) line that fails to parse is
        corruption, not a torn append — it must raise, never be repaired."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(_record("a" * 64))
        with path.open("a", encoding="utf-8") as fh:
            fh.write("{not json}\n")
        with pytest.raises(ValueError, match="corrupt record"):
            ResultStore(path)

    def test_complete_but_invalid_final_record_raises(self, tmp_path):
        """Only torn (unparseable) tails are repaired away; a final line
        that parses as JSON but fails record validation must raise, never
        be silently deleted."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(_record("a" * 64))
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"digest": "x", "trials": "many"}) + "\n")
        before = path.read_bytes()
        with pytest.raises(ValueError, match="corrupt record"):
            ResultStore(path)
        assert path.read_bytes() == before  # nothing was erased

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(_record("a" * 64))
        text = path.read_text(encoding="utf-8")
        path.write_text("not json\n" + text, encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt record"):
            ResultStore(path)

    def test_expectations_roundtrip_and_drift(self):
        records = [_record("a" * 64, detections=1), _record("b" * 64, detections=2)]
        doc = expectations_from_records(records)
        assert diff_against_expectations(records, doc) == []

        drifted = [_record("a" * 64, detections=0), _record("b" * 64, detections=2)]
        drifts = diff_against_expectations(drifted, doc)
        assert len(drifts) == 1 and "detection drift" in drifts[0]

        drifts = diff_against_expectations(records[:1], doc)
        assert len(drifts) == 1 and "missing scenario" in drifts[0]

        drifts = diff_against_expectations(
            records + [_record("c" * 64)], doc
        )
        assert len(drifts) == 1 and "unexpected scenario" in drifts[0]


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert set(available_strategies()) >= {
            "combined",
            "selection",
            "gradient",
            "neuron",
            "random",
        }

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("psychic")

    def test_knob_declarations(self):
        assert registry.knobs("strategies", "combined") == {
            "candidate_pool": "candidate_pool",
            "max_updates": "gradient_updates",
        }
        assert registry.knobs("strategies", "random") == {}
        with pytest.raises(ValueError, match="unknown strategy"):
            registry.knobs("strategies", "psychic")

    def test_runner_rejects_knob_without_spec_field(self):
        """A registered strategy declaring a knob CampaignSpec lacks must
        fail with a clear error, not an AttributeError."""
        from repro.campaign.runner import _generator_kwargs

        name = "test-bad-knob"
        registry.register(
            "strategies",
            name,
            lambda *a, **k: None,
            knobs={"zap": "no_such_field"},
        )
        try:
            with pytest.raises(ValueError, match="does not define"):
                _generator_kwargs(tiny_spec(), name)
        finally:
            registry.unregister("strategies", name)

    def test_build_generator_requires_dataset_where_needed(self, trained_mlp):
        with pytest.raises(ValueError, match="requires a training set"):
            build_generator("random", trained_mlp, None)

    def test_build_generator_builds_each_strategy(self, trained_cnn, digit_dataset):
        for name in ("random", "selection", "gradient"):
            gen = build_generator(name, trained_cnn, digit_dataset, rng=0)
            result = gen.generate(2)
            assert result.num_tests == 2


# ---------------------------------------------------------------------------
# runner end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def executed_campaign(tmp_path_factory):
    """One executed tiny campaign: (spec, store path, summary)."""
    spec = tiny_spec()
    path = tmp_path_factory.mktemp("campaign") / "results.jsonl"
    summary = run_campaign(spec, str(path))
    return spec, path, summary


class TestRunner:
    def test_executes_every_scenario_once(self, executed_campaign):
        spec, path, summary = executed_campaign
        scenarios = spec.expand()
        assert summary.executed == len(scenarios)
        assert summary.skipped == 0
        store = ResultStore(path)
        assert store.completed_digests() == {s.digest for s in scenarios}
        for record in store.records():
            assert record.trials == spec.trials
            assert 0 <= record.detections <= record.trials
            assert 0.0 <= record.coverage <= 1.0

    def test_second_invocation_executes_zero(self, executed_campaign):
        spec, path, _ = executed_campaign
        before = path.read_bytes()
        summary = run_campaign(spec, str(path))
        assert summary.executed == 0
        assert summary.skipped == len(spec.expand())
        assert path.read_bytes() == before  # byte-identical store

    def test_fresh_run_is_byte_identical(self, executed_campaign, tmp_path):
        spec, path, _ = executed_campaign
        other = tmp_path / "other.jsonl"
        run_campaign(spec, str(other))
        assert other.read_bytes() == path.read_bytes()

    def test_resume_after_partial_store(self, executed_campaign, tmp_path):
        """Dropping a suffix of the store and re-running reproduces the
        full store byte-for-byte — interrupted campaigns lose nothing."""
        spec, path, _ = executed_campaign
        full = path.read_text(encoding="utf-8")
        lines = full.splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_text("".join(lines[:1]), encoding="utf-8")

        summary = run_campaign(spec, str(partial))
        assert summary.skipped == 1
        assert summary.executed == len(spec.expand()) - 1
        assert partial.read_text(encoding="utf-8") == full

    def test_resume_after_interior_gap(self, executed_campaign, tmp_path):
        """A non-suffix gap still resumes to the same *records*, appended
        at the end (append-only stores never rewrite history)."""
        spec, path, _ = executed_campaign
        lines = path.read_text(encoding="utf-8").splitlines()
        gap = tmp_path / "gap.jsonl"
        gap.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")

        summary = run_campaign(spec, str(gap))
        assert summary.executed == 1
        by_digest = {r.digest: r.to_json_line() for r in ResultStore(gap).records()}
        expected = {r.digest: r.to_json_line() for r in ResultStore(path).records()}
        assert by_digest == expected

    def test_progress_callback_receives_lines(self, tmp_path):
        spec = tiny_spec(attacks=("sba",), budgets=(2,))
        lines = []
        run_campaign(spec, str(tmp_path / "s.jsonl"), progress=lines.append)
        assert any("training victim" in line for line in lines)
        assert any("package" in line for line in lines)

    def test_runner_validates_spec(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="is empty"):
            CampaignRunner(tiny_spec(attacks=()), store)

    def test_model_pool_re_prepares_an_evicted_model(self, tmp_path):
        from types import SimpleNamespace

        from repro.campaign.runner import MODEL_CACHE_SLOTS

        runner = CampaignRunner(tiny_spec(), ResultStore(tmp_path / "s.jsonl"))
        prepared = []

        def fake_prepare(model_name):
            prepared.append(model_name)
            return SimpleNamespace(model=small_mlp(rng=0))

        runner._prepare_model = fake_prepare
        names = [f"m{i}" for i in range(MODEL_CACHE_SLOTS + 1)]
        contexts = [runner._model_context(name) for name in names]
        assert runner._model_context(names[-1]) is contexts[-1]  # still pooled
        assert runner._model_context(names[0]) is not contexts[0]  # evicted
        assert prepared == names + [names[0]]


# ---------------------------------------------------------------------------
# aggregation + CLI
# ---------------------------------------------------------------------------


class TestReporting:
    def test_report_covers_axes(self, executed_campaign):
        from repro.analysis.campaign import (
            campaign_csv,
            coverage_summary_rows,
            render_campaign_report,
        )

        _, path, _ = executed_campaign
        records = ResultStore(path).records()
        report = render_campaign_report(records)
        assert "model `mnist`" in report
        assert "random:sba" in report  # strategy:attack column
        csv_text = campaign_csv(records)
        assert csv_text.count("\n") == len(records) + 1

        rows = coverage_summary_rows(records)
        # coverage collapses the attack axis: budgets × strategies rows only
        assert len(rows) == 2

    def test_empty_report_rejected(self):
        from repro.analysis.campaign import render_campaign_report

        with pytest.raises(ValueError, match="no records"):
            render_campaign_report([])


class TestCli:
    def test_run_report_expectations_diff(self, executed_campaign, tmp_path):
        from repro.campaign.__main__ import main

        spec, store_path, _ = executed_campaign
        spec_path = spec.save(tmp_path / "spec.json")

        # resume via the CLI: exits 0, report written
        report_path = tmp_path / "report.md"
        assert (
            main(
                [
                    "run",
                    "--spec",
                    str(spec_path),
                    "--store",
                    str(store_path),
                    "--report",
                    str(report_path),
                ]
            )
            == 0
        )
        assert "Campaign report" in report_path.read_text(encoding="utf-8")

        exp_path = tmp_path / "exp.json"
        assert main(
            ["expectations", "--store", str(store_path), "--out", str(exp_path)]
        ) == 0
        assert main(
            ["diff", "--store", str(store_path), "--expectations", str(exp_path)]
        ) == 0

        doc = json.loads(exp_path.read_text(encoding="utf-8"))
        digest = next(iter(doc["scenarios"]))
        doc["scenarios"][digest]["detections"] += 1
        exp_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(
            ["diff", "--store", str(store_path), "--expectations", str(exp_path)]
        ) == 1

    def test_report_of_empty_store_fails(self, tmp_path):
        from repro.campaign.__main__ import main

        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["report", "--store", str(empty)]) == 1


class TestAttackRecordSerialization:
    def test_perturbation_record_roundtrip(self):
        from repro.attacks.base import PerturbationRecord

        record = PerturbationRecord(
            attack="sba",
            flat_indices=np.array([3, 7]),
            deltas=np.array([0.5, -1.5]),
            parameter_names=["fc1/bias", "fc1/bias"],
            metadata={"magnitude": 10.0},
        )
        rebuilt = PerturbationRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert rebuilt.attack == "sba"
        np.testing.assert_array_equal(rebuilt.flat_indices, record.flat_indices)
        np.testing.assert_array_equal(rebuilt.deltas, record.deltas)
        assert rebuilt.parameter_names == record.parameter_names
        assert rebuilt.metadata == {"magnitude": 10.0}
