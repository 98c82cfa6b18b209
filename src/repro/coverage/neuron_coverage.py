"""Neuron coverage — the hardware-testing baseline metric.

The paper contrasts its *parameter* coverage with the *neuron* coverage used
by DNN testing work (DeepXplore, DeepCT): a neuron is covered when some test
drives its post-activation output above a threshold.  Section II argues (and
Tables II/III show) that full neuron coverage is not sufficient to expose
parameter perturbations, because a weight between two neurons is only
exercised when both are active *for the same test*.

This module mirrors the parameter-coverage API so the two can be swapped in
the test-generation and detection experiments:

* :func:`neuron_activation_mask` — per-sample boolean mask over all neurons;
* :func:`neuron_coverage` — coverage of a test set;
* :class:`NeuronCoverage` — the pluggable
  :class:`~repro.coverage.bitmap.CoverageCriterion` implementation.
  :class:`~repro.testgen.selection.NeuronCoverageSelector` runs Algorithm 1's
  greedy loop with it to build the neuron-coverage baseline's tests;
* :class:`NeuronCoverageTracker` — incremental union bookkeeping.

Like parameter coverage, pool masks are stored *packed*
(:mod:`repro.coverage.bitmap`): one bit per neuron, marginal gains by
popcount, dense materialisation on demand.

"Neurons" are the scalar post-activation outputs of every hidden layer that
has parameters or applies a non-linearity (convolution feature-map cells,
dense hidden units).  Pooling/flatten outputs are excluded — they introduce no
new neurons.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coverage.bitmap import CoverageCriterion, MaskMatrix, PackedCoverageTracker
from repro.engine import Engine, neuron_layer_indices, resolve_engine
from repro.engine.engine import NEURON_LAYER_TYPES
from repro.nn.model import Sequential


def count_neurons(model: Sequential) -> int:
    """Total number of neurons considered by the coverage metric."""
    if model.input_shape is None:
        raise RuntimeError("model has not been built")
    total = 0
    shape = model.input_shape
    for layer in model.layers:
        shape = layer.output_shape(shape)
        if isinstance(layer, NEURON_LAYER_TYPES):
            total += int(np.prod(shape))
    return total


def neuron_activation_mask(
    model: Sequential, x: np.ndarray, threshold: float = 0.0
) -> np.ndarray:
    """Boolean mask over all neurons activated by sample ``x``.

    A neuron is activated when its post-activation output exceeds
    ``threshold`` (the DeepXplore-style criterion; 0.0 suits ReLU networks,
    small positive values suit Tanh networks whose outputs may be negative).
    """
    x = np.asarray(x, dtype=np.float64)
    if model.input_shape is not None and x.shape == model.input_shape:
        x = x[None, ...]
    outputs = model.forward_collect(x)
    indices = set(neuron_layer_indices(model))
    parts = []
    for i, out in enumerate(outputs):
        if i in indices:
            parts.append((out[0] > threshold).ravel())
    return np.concatenate(parts)


def neuron_activation_masks(
    model: Sequential,
    images: np.ndarray,
    threshold: float = 0.0,
    engine: Optional[Engine] = None,
) -> np.ndarray:
    """Batched :func:`neuron_activation_mask`: ``(N, num_neurons)`` matrix.

    Row ``i`` equals ``neuron_activation_mask(model, images[i], threshold)``,
    computed with chunked batched forward passes through the execution
    engine.  For large pools prefer :func:`packed_neuron_masks`.
    """
    eng = resolve_engine(model, engine=engine, cache=False)
    return eng.neuron_masks(np.asarray(images), threshold)


def packed_neuron_masks(
    model: Sequential,
    images: np.ndarray,
    threshold: float = 0.0,
    engine: Optional[Engine] = None,
    memory_budget_bytes: Optional[int] = None,
) -> MaskMatrix:
    """Packed :func:`neuron_activation_masks` at 1/8 the dense bytes."""
    eng = resolve_engine(model, engine=engine, cache=False)
    return eng.packed_neuron_masks(
        np.asarray(images), threshold, memory_budget_bytes=memory_budget_bytes
    )


def neuron_coverage(
    model: Sequential,
    tests: np.ndarray | Sequence[np.ndarray],
    threshold: float = 0.0,
) -> float:
    """Fraction of neurons activated by at least one test in ``tests``."""
    tracker = NeuronCoverageTracker(model, threshold=threshold)
    for sample in tests:
        tracker.add_sample(sample)
    return tracker.coverage


class NeuronCoverage(CoverageCriterion):
    """DeepXplore-style neuron coverage as a pluggable criterion.

    Bit space: one bit per neuron; a bit is set when the neuron's
    post-activation output exceeds the threshold.
    """

    name = "neuron"

    def __init__(self, threshold: float = 0.0) -> None:
        self.threshold = float(threshold)

    def num_bits(self, model: Sequential) -> int:
        return count_neurons(model)

    def mask_matrix(
        self, model: Sequential, images: np.ndarray, engine: Optional[Engine] = None
    ) -> MaskMatrix:
        return packed_neuron_masks(model, images, self.threshold, engine)

    def tracker(self, model: Sequential) -> "NeuronCoverageTracker":
        return NeuronCoverageTracker(model, threshold=self.threshold)


class NeuronCoverageTracker(PackedCoverageTracker):
    """Incremental neuron-coverage bookkeeping (mirrors ``CoverageTracker``)."""

    def __init__(self, model: Sequential, threshold: float = 0.0) -> None:
        super().__init__(count_neurons(model))
        self._model = model
        self.threshold = float(threshold)

    @property
    def total_neurons(self) -> int:
        return self._total

    def mask_for(self, x: np.ndarray) -> np.ndarray:
        return neuron_activation_mask(self._model, x, self.threshold)

    def marginal_gain_of_sample(self, x: np.ndarray) -> float:
        return self.marginal_gain(self.mask_for(x))

    def add_sample(self, x: np.ndarray) -> float:
        return self.add_mask(self.mask_for(x))


__all__ = [
    "count_neurons",
    "neuron_activation_mask",
    "neuron_activation_masks",
    "packed_neuron_masks",
    "neuron_coverage",
    "NeuronCoverage",
    "NeuronCoverageTracker",
]
