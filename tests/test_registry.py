"""Tests of the cross-subsystem plugin registry (repro.registry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.registry import (
    NAMESPACES,
    Registry,
    RegistryEntry,
    registry,
)


# ---------------------------------------------------------------------------
# core Registry behaviour (on private instances — the global one is shared)
# ---------------------------------------------------------------------------


class TestRegistryCore:
    def test_namespaces_present(self):
        fresh = Registry()
        assert fresh.namespaces() == list(NAMESPACES)

    def test_register_and_resolve(self):
        fresh = Registry(("widgets",))
        fresh.register("widgets", "a", lambda x: x + 1, summary="inc")
        assert fresh.names("widgets") == ["a"]
        assert fresh.get("widgets", "a")(1) == 2
        assert fresh.create("widgets", "a", 2) == 3
        entry = fresh.entry("widgets", "a")
        assert isinstance(entry, RegistryEntry)
        assert entry.summary == "inc"

    def test_register_as_decorator(self):
        fresh = Registry(("widgets",))

        @fresh.register("widgets", "b", knobs={"k": "field"})
        def build(k=0):
            return k * 2

        assert build(k=3) == 6  # the decorator returns the factory unchanged
        assert fresh.knobs("widgets", "b") == {"k": "field"}

    def test_reregistration_replaces(self):
        fresh = Registry(("widgets",))
        fresh.register("widgets", "a", lambda: "old")
        fresh.register("widgets", "a", lambda: "new")
        assert fresh.create("widgets", "a") == "new"

    def test_unregister(self):
        fresh = Registry(("widgets",))
        fresh.register("widgets", "a", lambda: None)
        fresh.unregister("widgets", "a")
        assert fresh.names("widgets") == []
        with pytest.raises(ValueError, match="no 'widgets' entry"):
            fresh.unregister("widgets", "a")

    def test_unknown_name_lists_choices(self):
        fresh = Registry(("widgets",))
        fresh.register("widgets", "a", lambda: None)
        with pytest.raises(ValueError, match=r"choose from \['a'\]"):
            fresh.get("widgets", "zzz")

    def test_unknown_namespace_rejected(self):
        fresh = Registry(("widgets",))
        with pytest.raises(ValueError, match="unknown registry namespace"):
            fresh.register("gadgets", "a", lambda: None)
        with pytest.raises(ValueError, match="unknown registry namespace"):
            fresh.names("gadgets")

    def test_add_namespace(self):
        fresh = Registry(("widgets",))
        fresh.add_namespace("gadgets")
        fresh.register("gadgets", "g", lambda: 1)
        assert fresh.names("gadgets") == ["g"]

    def test_knobs_are_copies(self):
        fresh = Registry(("widgets",))
        fresh.register("widgets", "a", lambda: None, knobs={"k": "f"})
        fresh.knobs("widgets", "a")["k"] = "mutated"
        assert fresh.knobs("widgets", "a") == {"k": "f"}

    def test_metadata_is_separate_from_knobs(self):
        fresh = Registry(("widgets",))
        fresh.register(
            "widgets", "a", lambda: None, knobs={"k": "f"}, metadata={"note": 1}
        )
        assert fresh.metadata("widgets", "a") == {"note": 1}
        assert fresh.knobs("widgets", "a") == {"k": "f"}
        assert fresh.describe()["widgets"][0]["metadata"] == {"note": 1}

    def test_failed_builtin_import_is_not_latched(self, monkeypatch):
        import repro.registry as registry_module

        fresh = Registry(("widgets",))
        monkeypatch.setitem(
            registry_module._BUILTIN_MODULES, "widgets", ("no.such.module",)
        )
        with pytest.raises(ModuleNotFoundError):
            fresh.names("widgets")
        # the failure is not latched: the namespace is retried, not reported
        # as a misleading empty namespace
        with pytest.raises(ModuleNotFoundError):
            fresh.names("widgets")
        monkeypatch.setitem(registry_module._BUILTIN_MODULES, "widgets", ())
        assert fresh.names("widgets") == []  # recovered once the import works

    def test_describe_shape(self):
        fresh = Registry(("widgets",))
        fresh.register("widgets", "a", lambda: None, summary="s")
        doc = fresh.describe()
        assert list(doc) == ["widgets"]
        assert doc["widgets"][0]["name"] == "a"
        assert doc["widgets"][0]["summary"] == "s"

    def test_entry_point_discovery_runs_once(self):
        fresh = Registry(("widgets",))
        # no repro.plugins entry points are installed in the test env, so
        # discovery is a 0-hook no-op — and stays one on repeat calls
        assert fresh.discover_entry_points() == 0
        assert fresh.discover_entry_points() == 0


# ---------------------------------------------------------------------------
# builtin namespaces of the global registry
# ---------------------------------------------------------------------------


class TestBuiltinEntries:
    def test_strategies(self):
        assert set(registry.names("strategies")) >= {
            "combined",
            "selection",
            "gradient",
            "neuron",
            "random",
        }

    def test_attacks(self):
        assert set(registry.names("attacks")) >= {"sba", "gda", "random", "bitflip"}

    def test_criteria(self):
        assert set(registry.names("criteria")) >= {"default", "exact", "eps"}

    def test_datasets(self):
        assert set(registry.names("datasets")) >= {
            "mnist",
            "cifar",
            "digits",
            "noise",
            "imagenet",
        }

    def test_models(self):
        assert set(registry.names("models")) >= {
            "mnist",
            "cifar",
            "small_cnn",
            "small_mlp",
        }

    def test_dataset_recipes(self):
        mnist = registry.metadata("datasets", "mnist")
        assert mnist["model"] == "mnist" and mnist["epochs"] == 8
        cifar = registry.metadata("datasets", "cifar")
        assert cifar["model"] == "cifar" and cifar["width_scale"] == 0.5
        # recipes live in metadata, never in the factory-kwarg knobs
        assert registry.knobs("datasets", "mnist") == {}
        # raw generators carry no recipe
        assert "model" not in registry.metadata("datasets", "digits")

    def test_attack_knob_declarations(self):
        assert registry.knobs("attacks", "sba") == {"magnitude": "sba_magnitude"}
        assert registry.knobs("attacks", "gda") == {"num_parameters": "gda_parameters"}
        assert registry.knobs("attacks", "random") == {
            "num_parameters": "random_parameters",
            "relative_std": "random_relative_std",
        }
        assert registry.knobs("attacks", "bitflip") == {}


# ---------------------------------------------------------------------------
# consumers resolve through the registry with unchanged behaviour
# ---------------------------------------------------------------------------


class TestRegistryConsumers:
    def test_attack_factories_build_the_same_attacks(self):
        from repro.attacks import (
            BitFlipAttack,
            GradientDescentAttack,
            RandomPerturbation,
            SingleBiasAttack,
        )
        from repro.validation.detection import default_attack_factories

        reference = np.random.default_rng(0).random((4, 1, 8, 8))
        factories = default_attack_factories(
            reference,
            sba_magnitude=7.5,
            gda_parameters=9,
            random_parameters=3,
            random_relative_std=1.5,
        )
        assert list(factories) == ["sba", "gda", "random", "bitflip"]
        rng = np.random.default_rng(1)
        sba = factories["sba"](rng)
        assert isinstance(sba, SingleBiasAttack) and sba.magnitude == 7.5
        gda = factories["gda"](rng)
        assert isinstance(gda, GradientDescentAttack) and gda.num_parameters == 9
        rnd = factories["random"](rng)
        assert isinstance(rnd, RandomPerturbation)
        assert rnd.num_parameters == 3 and rnd.relative_std == 1.5
        assert isinstance(factories["bitflip"](rng), BitFlipAttack)

    def test_third_party_attack_becomes_available(self):
        from repro.attacks.random_noise import RandomPerturbation
        from repro.validation.detection import (
            available_attacks,
            default_attack_factories,
        )

        @registry.register(
            "attacks", "test-noise", knobs={"num_parameters": "test_noise_parameters"}
        )
        def _noise(reference_inputs, rng=None, num_parameters=2):
            return RandomPerturbation(num_parameters=num_parameters, rng=rng)

        try:
            assert "test-noise" in available_attacks()
            factories = default_attack_factories(
                np.ones((2, 1, 4, 4)), test_noise_parameters=5
            )
            attack = factories["test-noise"](np.random.default_rng(0))
            assert attack.num_parameters == 5
        finally:
            registry.unregister("attacks", "test-noise")

    def test_criterion_resolution_through_registry(self, trained_mlp):
        from repro.coverage.activation import ActivationCriterion, resolve_criterion

        assert resolve_criterion("exact", trained_mlp).epsilon == 0.0
        crit = resolve_criterion("eps:1e-3@max", trained_mlp)
        assert crit.epsilon == 1e-3 and crit.scalarization == "max"

        @registry.register("criteria", "test-fixed")
        def _fixed(model, argument, scalarization):
            return ActivationCriterion(epsilon=0.5, scalarization=scalarization)

        try:
            resolved = resolve_criterion("test-fixed@predicted", trained_mlp)
            assert resolved.epsilon == 0.5 and resolved.scalarization == "predicted"
        finally:
            registry.unregister("criteria", "test-fixed")

    def test_prepare_experiment_rejects_recipeless_dataset(self):
        from repro.analysis.sweep import prepare_experiment

        with pytest.raises(ValueError, match="no experiment recipe"):
            prepare_experiment("digits", train_size=4, test_size=2)

    def test_prepare_experiment_rejects_unknown_dataset(self):
        from repro.analysis.sweep import prepare_experiment

        with pytest.raises(ValueError, match="unknown dataset"):
            prepare_experiment("not-a-dataset")

    def test_preparable_datasets(self):
        from repro.analysis.sweep import preparable_datasets

        assert preparable_datasets() == ["cifar", "mnist"]

    def test_build_model_through_registry(self):
        from repro.models.zoo import build_model

        model = build_model("small_mlp", rng=0)
        assert model.name == "small_mlp"
        with pytest.raises(ValueError, match="unknown model"):
            build_model("not-a-model")

    def test_spec_validation_uses_registry(self):
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            models=("mnist",), strategies=("random",), budgets=(2,), trials=1
        )
        spec.validate()
        with pytest.raises(ValueError, match="unknown strategies"):
            CampaignSpec(strategies=("psychic",)).validate()
        with pytest.raises(ValueError, match="unknown attacks"):
            CampaignSpec(attacks=("emp",)).validate()
        with pytest.raises(ValueError, match="unknown models"):
            CampaignSpec(models=("svhn",)).validate()
