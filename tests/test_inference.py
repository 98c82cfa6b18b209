"""Inference records nothing and keeps nothing.

Validation replays tests and compares outputs, so every inference entry
point (``predict``, ``Engine.forward``, ``Engine.stacked_forward``,
``forward_collect`` and SBA's flip check) runs ``forward(x, record=False)``:
the same kernels and bitwise the same logits as a recording forward, with no
layer cache, no workspace lease and no free workspace buffer left behind.
Pinned on both Table-I architectures and on both backend names.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.base import bias_flat_indices
from repro.attacks.sba import SingleBiasAttack
from repro.engine import BACKENDS, Engine
from repro.faults import FaultPlan, inject
from repro.models.zoo import cifar_cnn, mnist_cnn
from repro.nn.layers import Dropout, Flatten
from repro.nn.tensor import bit_pattern

ARCHS = {
    "mnist": lambda: mnist_cnn(width_multiplier=0.125, input_size=28, rng=0),
    "cifar": lambda: cifar_cnn(width_multiplier=0.0625, input_size=32, rng=0),
}


@pytest.fixture(params=sorted(ARCHS))
def model(request):
    """A fresh Table-I victim: nothing recorded, an empty workspace."""
    return ARCHS[request.param]()


def batch_for(model, rows, seed=0):
    return np.random.default_rng(seed).random((rows, *model.input_shape))


def kept(model) -> list:
    """What ``model`` holds between calls beyond its parameters."""
    found = []
    for layer in model.layers:
        if getattr(layer, "_cache", None):
            found.append(f"{layer.name}: cache")
        if getattr(layer, "_cols_leased", False):
            found.append(f"{layer.name}: workspace lease")
        if isinstance(layer, Flatten) and layer._input_shape is not None:
            found.append(f"{layer.name}: input shape")
        if isinstance(layer, Dropout) and layer._mask is not None:
            found.append(f"{layer.name}: mask")
    if len(model._workspace):
        found.append(f"{len(model._workspace)} free workspace buffers")
    return found


def head_copies(model, count):
    """Copies perturbed on distinct output-head biases, plus one on the first
    layer, so the fused path runs both a late and a whole-network group."""
    biases = bias_flat_indices(model)
    copies = []
    for i in range(count):
        copy = model.copy()
        copy.parameter_view().add_scalar(int(biases[-1 - i]), 5.0)
        copies.append(copy)
    first = model.copy()
    first.parameter_view().add_scalar(0, 0.5)
    return copies + [first]


class TestRecordFalseIsTheSameForward:
    @pytest.mark.parametrize("rows", [1, 16, 64])
    def test_logits_bitwise_equal(self, model, rows):
        x = batch_for(model, rows, seed=rows)
        plain = model.forward(x, record=False)
        assert kept(model) == []
        recorded = model.forward(x)
        assert kept(model) != []  # the default still records for backward
        assert np.array_equal(bit_pattern(plain), bit_pattern(recorded))

    def test_a_recording_survives_an_inference_pass(self, model):
        # forward -> predict -> backward still reads the first forward's record
        x = batch_for(model, 4)
        logits = model.forward(x)
        g = np.ones_like(logits)
        _, want = model.backward_batch(g, need_input_grad=True)
        model.forward(x)
        model.predict(batch_for(model, 7, seed=3))
        _, got = model.backward_batch(g, need_input_grad=True)
        assert np.array_equal(bit_pattern(got), bit_pattern(want))


class TestInferenceKeepsNothing:
    def test_predict(self, model):
        model.predict(batch_for(model, 300))  # two predict chunks
        assert kept(model) == []

    def test_forward_collect(self, model):
        model.forward_collect(batch_for(model, 8))
        assert kept(model) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_forward(self, model, backend):
        Engine(model, backend=backend, cache=False).forward(batch_for(model, 100))
        assert kept(model) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_stacked_forward(self, model, backend):
        copies = head_copies(model, 3)
        Engine(model, backend=backend).stacked_forward(copies, batch_for(model, 70))
        for involved in [model, *copies]:
            assert kept(involved) == []

    def test_sba_apply(self, model):
        refs = batch_for(model, 12)
        outcome = SingleBiasAttack(reference_inputs=refs, rng=4).apply(model)
        assert kept(model) == []
        assert kept(outcome.model) == []

    def test_a_gradient_query_leaves_buffers_that_inference_drops(self, model):
        x = batch_for(model, 8)
        model.output_gradients_batch(x)
        caches = [getattr(layer, "_cache", None) for layer in model.layers]
        assert len(model._workspace) > 0
        model.predict(x)
        assert len(model._workspace) == 0
        # the gradient query's record is the layers' own, and stays as it was
        assert all(
            getattr(layer, "_cache", None) is cache
            for layer, cache in zip(model.layers, caches)
        )


class TestFaultsStillFire:
    @pytest.mark.parametrize("entry", ["predict", "engine"])
    def test_layer_forward_fault(self, model, entry):
        x = batch_for(model, 4)
        plan = FaultPlan()
        plan.raise_error("layer.forward", exception="OSError", at=(2,))
        run = model.predict if entry == "predict" else Engine(model, cache=False).forward
        with inject.activate(plan), pytest.raises(OSError):
            run(x)
        assert plan.faults[0].fires == 1
        # the interrupted pass handed its buffers back all the same
        assert kept(model) == []
