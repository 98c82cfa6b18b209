"""Tests for the validation-coverage metric (activation criterion, VC(x),
VC(X), trackers and a candidate pool's packed masks)."""

import numpy as np
import pytest

from repro.coverage import (
    ActivationCriterion,
    CoverageMap,
    CoverageTracker,
    ParameterCoverage,
    activation_mask,
    default_criterion_for,
    mean_validation_coverage,
    set_validation_coverage,
    validation_coverage,
)
from repro.models.zoo import small_cnn, small_mlp


class TestActivationCriterion:
    def test_exact_zero_criterion(self):
        crit = ActivationCriterion(epsilon=0.0)
        grads = np.array([0.0, 1e-30, -2.0])
        np.testing.assert_array_equal(crit.activated(grads), [False, True, True])

    def test_epsilon_criterion(self):
        crit = ActivationCriterion(epsilon=1e-3)
        grads = np.array([0.0, 5e-4, -2e-3])
        np.testing.assert_array_equal(crit.activated(grads), [False, False, True])

    def test_validation(self):
        with pytest.raises(ValueError):
            ActivationCriterion(epsilon=-1.0)
        with pytest.raises(ValueError):
            ActivationCriterion(scalarization="median")

    def test_default_criterion_relu_vs_tanh(self, trained_cnn, trained_tanh_cnn):
        relu_crit = default_criterion_for(trained_cnn)
        tanh_crit = default_criterion_for(trained_tanh_cnn)
        assert relu_crit.epsilon == 0.0
        assert tanh_crit.epsilon > 0.0


class TestActivationMask:
    def test_mask_shape_matches_parameter_count(self, trained_cnn, digit_dataset):
        mask = activation_mask(trained_cnn, digit_dataset.images[0])
        assert mask.shape == (trained_cnn.num_parameters(),)
        assert mask.dtype == bool

    def test_relu_network_leaves_some_parameters_unactivated(
        self, trained_cnn, digit_dataset
    ):
        mask = activation_mask(trained_cnn, digit_dataset.images[0])
        assert 0.0 < mask.mean() < 1.0

    def test_mask_is_deterministic(self, trained_cnn, digit_dataset):
        x = digit_dataset.images[3]
        np.testing.assert_array_equal(
            activation_mask(trained_cnn, x), activation_mask(trained_cnn, x)
        )

    def test_mask_detects_dead_relu_path(self):
        """A hidden unit that never fires must leave its incoming weights unactivated."""
        model = small_mlp(input_features=4, hidden_units=3, num_classes=2, depth=1, rng=0)
        view = model.parameter_view()
        # force hidden unit 0 to be dead: zero incoming weights, very negative bias
        fc1_w = view.parameters[0]
        fc1_b = view.parameters[1]
        fc1_w.value[:, 0] = 0.0
        fc1_b.value[0] = -100.0
        x = np.abs(np.random.default_rng(0).random(4))
        mask = activation_mask(model, x, ActivationCriterion(epsilon=0.0))
        # incoming weights of the dead unit are the first column of fc1/weight
        incoming = np.zeros_like(fc1_w.value, dtype=bool)
        incoming[:, 0] = True
        assert not mask[: fc1_w.size].reshape(fc1_w.value.shape)[incoming].any()


class TestValidationCoverage:
    def test_single_sample_coverage_in_unit_interval(self, trained_cnn, digit_dataset):
        vc = validation_coverage(trained_cnn, digit_dataset.images[0])
        assert 0.0 < vc < 1.0

    def test_set_coverage_at_least_best_single(self, trained_cnn, digit_dataset):
        tests = digit_dataset.images[:5]
        singles = [validation_coverage(trained_cnn, t) for t in tests]
        combined = set_validation_coverage(trained_cnn, tests)
        assert combined >= max(singles) - 1e-12

    def test_set_coverage_monotone_in_tests(self, trained_cnn, digit_dataset):
        small = set_validation_coverage(trained_cnn, digit_dataset.images[:2])
        large = set_validation_coverage(trained_cnn, digit_dataset.images[:6])
        assert large >= small - 1e-12

    def test_average_sample_coverage(self, trained_cnn, digit_dataset):
        avg = mean_validation_coverage(trained_cnn, digit_dataset.images[:4])
        singles = [validation_coverage(trained_cnn, x) for x in digit_dataset.images[:4]]
        assert avg == pytest.approx(np.mean(singles))

    def test_average_sample_coverage_empty_raises(self, trained_cnn):
        with pytest.raises(ValueError):
            mean_validation_coverage(trained_cnn, np.zeros((0, 1, 12, 12)))

    def test_larger_epsilon_never_increases_coverage(self, trained_tanh_cnn, digit_dataset):
        x = digit_dataset.images[0]
        small_eps = validation_coverage(
            trained_tanh_cnn, x, ActivationCriterion(epsilon=1e-6)
        )
        large_eps = validation_coverage(
            trained_tanh_cnn, x, ActivationCriterion(epsilon=1e-1)
        )
        assert large_eps <= small_eps


class TestCoverageTracker:
    def test_incremental_union_matches_batch_computation(self, trained_cnn, digit_dataset):
        tests = digit_dataset.images[:4]
        tracker = CoverageTracker(trained_cnn)
        for t in tests:
            tracker.add_sample(t)
        assert tracker.coverage == pytest.approx(
            set_validation_coverage(trained_cnn, tests)
        )
        assert tracker.num_tests == 4

    def test_marginal_gain_consistency(self, trained_cnn, digit_dataset):
        tracker = CoverageTracker(trained_cnn)
        tracker.add_sample(digit_dataset.images[0])
        before = tracker.coverage
        mask = tracker.mask_for(digit_dataset.images[1])
        gain = tracker.marginal_gain(mask)
        tracker.add_mask(mask)
        assert tracker.coverage == pytest.approx(before + gain)

    def test_adding_same_sample_twice_gains_nothing(self, trained_cnn, digit_dataset):
        tracker = CoverageTracker(trained_cnn)
        x = digit_dataset.images[2]
        tracker.add_sample(x)
        assert tracker.marginal_gain_of_sample(x) == 0.0

    def test_reset(self, trained_cnn, digit_dataset):
        tracker = CoverageTracker(trained_cnn)
        tracker.add_sample(digit_dataset.images[0])
        tracker.reset()
        assert tracker.coverage == 0.0
        assert tracker.num_tests == 0

    def test_mask_size_validation(self, trained_cnn):
        tracker = CoverageTracker(trained_cnn)
        with pytest.raises(ValueError):
            tracker.add_mask(np.ones(3, dtype=bool))

    def test_uncovered_indices_shrink(self, trained_cnn, digit_dataset):
        tracker = CoverageTracker(trained_cnn)
        before = tracker.uncovered_indices().size
        tracker.add_sample(digit_dataset.images[0])
        assert tracker.uncovered_indices().size < before


class TestActivationMaskCache:
    """The candidate-pool masks Algorithm 1 runs on, built through
    :class:`ParameterCoverage`."""

    def test_masks_match_direct_computation(self, trained_cnn, digit_dataset):
        images = digit_dataset.images[:5]
        masks = ParameterCoverage().mask_matrix(trained_cnn, images)
        assert len(masks) == 5
        for i in range(5):
            np.testing.assert_array_equal(
                masks.dense_row(i), activation_mask(trained_cnn, images[i])
            )

    def test_marginal_gains_match_tracker(self, trained_cnn, digit_dataset):
        images = digit_dataset.images[:5]
        masks = ParameterCoverage().mask_matrix(trained_cnn, images)
        tracker = CoverageTracker(trained_cnn)
        tracker.add_sample(images[0])
        counts = masks.marginal_counts(tracker.covered_map)
        for i in range(5):
            assert counts[i] / masks.nbits == tracker.marginal_gain(masks.row(i))

    def test_per_sample_coverage(self, trained_cnn, digit_dataset):
        images = digit_dataset.images[:3]
        vcs = ParameterCoverage().mask_matrix(trained_cnn, images).fractions()
        for i in range(3):
            assert vcs[i] == pytest.approx(validation_coverage(trained_cnn, images[i]))

    def test_shape_validation(self, trained_cnn):
        coverage = ParameterCoverage()
        with pytest.raises(ValueError):
            coverage.mask_matrix(trained_cnn, np.zeros((3, 12, 12)))
        masks = coverage.mask_matrix(trained_cnn, np.zeros((2, 1, 12, 12)))
        with pytest.raises(ValueError):
            masks.marginal_counts(CoverageMap(5))
