"""Tests for the neuron-coverage baseline metric."""

import numpy as np
import pytest

from repro.coverage import (
    CoverageMap,
    NeuronCoverage,
    NeuronCoverageTracker,
    count_neurons,
    neuron_activation_mask,
    neuron_coverage,
)
from repro.engine import neuron_layer_indices
from repro.models.zoo import small_cnn, small_mlp
from repro.nn.layers import Flatten, MaxPool2D
from repro.nn.model import Sequential


class TestCounting:
    def test_count_neurons_mlp(self):
        model = small_mlp(input_features=6, hidden_units=9, num_classes=4, depth=2, rng=0)
        # two hidden dense layers of 9 units plus the 4 logits
        assert count_neurons(model) == 9 + 9 + 4

    def test_count_neurons_cnn(self):
        model = small_cnn(
            channels=3, dense_units=8, input_shape=(1, 8, 8), num_classes=5, rng=0
        )
        # conv output 3x8x8, dense 8, logits 5 (pooling/flatten add none)
        assert count_neurons(model) == 3 * 8 * 8 + 8 + 5

    def test_count_neurons_without_neuron_layers(self):
        # counting shares the engine's rule, but an empty count is 0 where
        # the engine's layer lookup refuses the model
        model = Sequential([MaxPool2D(2), Flatten()]).build((1, 4, 4))
        assert count_neurons(model) == 0
        with pytest.raises(ValueError, match="no neuron-bearing layers"):
            neuron_layer_indices(model)


class TestMask:
    def test_mask_shape_and_dtype(self, trained_cnn, digit_dataset):
        mask = neuron_activation_mask(trained_cnn, digit_dataset.images[0])
        assert mask.shape == (count_neurons(trained_cnn),)
        assert mask.dtype == bool

    def test_threshold_reduces_activations(self, trained_cnn, digit_dataset):
        x = digit_dataset.images[0]
        low = neuron_activation_mask(trained_cnn, x, threshold=0.0).sum()
        high = neuron_activation_mask(trained_cnn, x, threshold=1.0).sum()
        assert high <= low

    def test_some_relu_neurons_inactive(self, trained_cnn, digit_dataset):
        mask = neuron_activation_mask(trained_cnn, digit_dataset.images[0])
        assert 0 < mask.sum() < mask.size


class TestCoverageAndTracker:
    def test_neuron_coverage_monotone(self, trained_cnn, digit_dataset):
        few = neuron_coverage(trained_cnn, digit_dataset.images[:2])
        many = neuron_coverage(trained_cnn, digit_dataset.images[:8])
        assert 0.0 < few <= many <= 1.0

    def test_tracker_matches_batch_function(self, trained_cnn, digit_dataset):
        tests = digit_dataset.images[:5]
        tracker = NeuronCoverageTracker(trained_cnn)
        for t in tests:
            tracker.add_sample(t)
        assert tracker.coverage == pytest.approx(neuron_coverage(trained_cnn, tests))

    def test_marginal_gain_and_reset(self, trained_cnn, digit_dataset):
        tracker = NeuronCoverageTracker(trained_cnn)
        gain = tracker.add_sample(digit_dataset.images[0])
        assert gain == pytest.approx(tracker.coverage)
        assert tracker.marginal_gain_of_sample(digit_dataset.images[0]) == 0.0
        tracker.reset()
        assert tracker.coverage == 0.0

    def test_mask_size_validation(self, trained_cnn):
        tracker = NeuronCoverageTracker(trained_cnn)
        with pytest.raises(ValueError):
            tracker.add_mask(np.ones(2, dtype=bool))


class TestNeuronMaskCache:
    """The candidate-pool masks the neuron-coverage selector runs on."""

    def test_cache_matches_direct_masks(self, trained_cnn, digit_dataset):
        images = digit_dataset.images[:4]
        masks = NeuronCoverage().mask_matrix(trained_cnn, images)
        assert len(masks) == 4
        for i in range(4):
            np.testing.assert_array_equal(
                masks.dense_row(i), neuron_activation_mask(trained_cnn, images[i])
            )

    def test_marginal_gains_shape_validation(self, trained_cnn, digit_dataset):
        masks = NeuronCoverage().mask_matrix(trained_cnn, digit_dataset.images[:2])
        with pytest.raises(ValueError):
            masks.marginal_counts(CoverageMap(3))


class TestNeuronVsParameterCoverage:
    def test_full_neuron_coverage_does_not_imply_full_parameter_coverage(
        self, trained_cnn, digit_dataset
    ):
        """The paper's core argument (Section II-B): covering every neuron can
        still leave parameters unvalidated."""
        from repro.coverage import set_validation_coverage

        tests = digit_dataset.images[:30]
        ncov = neuron_coverage(trained_cnn, tests)
        pcov = set_validation_coverage(trained_cnn, tests)
        # neuron coverage saturates faster than parameter coverage on ReLU CNNs
        assert ncov > pcov or pcov < 1.0
