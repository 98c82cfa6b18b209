"""Tests for the utility modules (rng, logging, config)."""

import logging

import numpy as np
import pytest

from repro.utils.config import TestGenConfig as GenCfg
from repro.utils import (
    CoverageConfig,
    DetectionConfig,
    ExperimentConfig,
    Timer,
    TrainingConfig,
    as_generator,
    check_probability,
    choice_without_replacement,
    derive_seed,
    enable_console_logging,
    get_logger,
    spawn,
)


class TestRng:
    def test_as_generator_from_int_is_deterministic(self):
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        np.testing.assert_array_equal(a, b)

    def test_as_generator_passes_generator_through(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_none_uses_default_seed(self):
        np.testing.assert_array_equal(as_generator(None).random(2), as_generator(None).random(2))

    def test_as_generator_rejects_bad_type(self):
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_spawn_produces_independent_generators(self):
        children = spawn(0, 3)
        assert len(children) == 3
        values = [c.random() for c in children]
        assert len(set(values)) == 3
        with pytest.raises(ValueError):
            spawn(0, -1)

    def test_derive_seed_is_deterministic(self):
        assert derive_seed(1, 2) == derive_seed(1, 2)

    def test_check_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5)

    def test_choice_without_replacement(self):
        idx = choice_without_replacement(0, 10, 4)
        assert len(set(idx.tolist())) == 4
        with pytest.raises(ValueError):
            choice_without_replacement(0, 3, 5)


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("foo").name == "repro.foo"
        assert get_logger("repro.bar").name == "repro.bar"

    def test_enable_console_logging_is_idempotent(self):
        enable_console_logging(logging.DEBUG)
        handlers_before = len(get_logger().handlers)
        enable_console_logging(logging.DEBUG)
        assert len(get_logger().handlers) == handlers_before

    def test_timer_measures_elapsed(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0


class TestConfigs:
    def test_training_config_validation(self):
        TrainingConfig().validate()
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0).validate()

    def test_coverage_config_validation(self):
        CoverageConfig().validate()
        with pytest.raises(ValueError):
            CoverageConfig(epsilon=-1).validate()
        with pytest.raises(ValueError):
            CoverageConfig(scalarization="norm").validate()

    def test_testgen_config_validation(self):
        GenCfg().validate()
        GenCfg(switch_policy="fixed:5").validate()
        with pytest.raises(ValueError):
            GenCfg(max_tests=0).validate()
        with pytest.raises(ValueError):
            GenCfg(switch_policy="sometimes").validate()
        with pytest.raises(ValueError):
            GenCfg(candidate_pool=0).validate()

    def test_detection_config_validation(self):
        DetectionConfig().validate()
        with pytest.raises(ValueError):
            DetectionConfig(trials=0).validate()
        with pytest.raises(ValueError):
            DetectionConfig(test_budgets=(0,)).validate()
        with pytest.raises(ValueError):
            DetectionConfig(attacks=("alien",)).validate()

    def test_experiment_config_bundle(self):
        config = ExperimentConfig(name="exp")
        config.validate()
        d = config.to_dict()
        assert d["name"] == "exp"
        assert "training" in d and "detection" in d
