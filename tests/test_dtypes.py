"""Dtype-following kernels, fused kernels, repeatable backward and
copy-free fast paths.

Pins the dtype-following behaviour of every layer's forward/backward (no
silent float64 upcasts), the fused in-place activation fast paths, the
engine's no-copy float64 batch ingestion, and that one tape can be
backpropagated repeatedly with identical results.
"""

import numpy as np
import pytest

from repro.engine import Engine
from repro.models.zoo import mnist_cnn, small_cnn
from repro.nn.activations import (
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    get_activation,
)


def _pool(model, size, seed):
    rng = np.random.default_rng(seed)
    return rng.random((size, *model.input_shape))


def _float32_copy(model):
    """A structural copy of ``model`` with float32 parameters."""
    copy = model.copy()
    for param in copy.parameters():
        param.value = param.value.astype(np.float32)
    return copy


class TestDtypeFollowingKernels:
    """No hardcoded float64 buffers anywhere in the backward path."""

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "leaky_relu"])
    def test_layer_stack_preserves_float32(self, activation):
        model = small_cnn(activation=activation, rng=5)
        shadow = _float32_copy(model)
        x = _pool(model, 3, seed=15).astype(np.float32)
        tape = []
        y = shadow.forward(x, tape=tape)
        assert y.dtype == np.float32
        # the summed backward returns float32 input and parameter gradients
        grad_x, param_grads = shadow.backward(np.ones_like(y), tape)
        assert grad_x.dtype == np.float32
        assert len(param_grads) == len(shadow.parameters())
        assert all(g.dtype == np.float32 for g in param_grads)
        # the full batched backward (conv, maxpool scatter, dense) follows
        grads = shadow.output_gradients_batch(x)
        assert grads.dtype == np.float32

    def test_maxpool_scatter_buffer_follows_gradient_dtype(self):
        """Regression test for the hardcoded float64 scatter buffer."""
        from repro.nn.layers import MaxPool2D

        pool = MaxPool2D(2)
        x = np.random.default_rng(0).random((2, 3, 8, 8)).astype(np.float32)
        tape = {}
        out = pool.forward(x, tape=tape)
        grad, param_grads = pool.backward(np.ones_like(out), tape)
        assert param_grads == []
        assert out.dtype == np.float32
        assert grad.dtype == np.float32


class TestFusedActivations:
    def test_forward_inplace_matches_forward(self):
        rng = np.random.default_rng(0)
        for act in (Identity(), ReLU(), Tanh(), Sigmoid(), Softmax(), LeakyReLU()):
            x = rng.normal(0.0, 2.0, size=(5, 7))
            expected = act.forward(x.copy())
            got = act.forward_inplace(x.copy())
            np.testing.assert_allclose(got, expected, atol=0, rtol=0)

    def test_inplace_reuses_the_buffer(self):
        for act in (ReLU(), Tanh(), Sigmoid(), Softmax()):
            x = np.random.default_rng(1).normal(size=(4, 4))
            assert act.forward_inplace(x) is x
        x = np.ones((2, 2))
        assert Identity().forward_inplace(x) is x

    def test_grad_from_output_backward_accepts_y_for_x(self):
        """For flagged activations, backward(y, y, g) == backward(x, y, g)."""
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 2.0, size=(6, 5))
        # include exact zeros: the ReLU boundary case
        x[0, 0] = 0.0
        g = rng.normal(size=x.shape)
        for name in ("identity", "relu", "tanh", "sigmoid", "softmax", "leaky_relu"):
            act = get_activation(name)
            assert act.grad_from_output, name
            y = act.forward(x)
            np.testing.assert_array_equal(act.backward(x, y, g), act.backward(y, y, g))

    def test_fused_layers_match_per_sample_reference(self):
        """End-to-end: fusion changes allocations, never results."""
        for activation in ("relu", "tanh"):
            model = small_cnn(activation=activation, rng=6)
            x = _pool(model, 4, seed=16)
            batched = model.output_gradients_batch(x)
            singles = np.stack(
                [model.output_gradients(x[i]) for i in range(len(x))]
            )
            assert np.abs(batched - singles).max() <= 1e-8


class TestEngineNoCopyFastPath:
    def test_as_batch_returns_the_same_object(self):
        """Micro-assert: no copy for a conforming pool array."""
        model = small_cnn(rng=7)
        images = _pool(model, 4, seed=17)  # float64, C-contiguous
        engine = Engine(model)
        assert engine._as_batch(images) is images

    def test_as_batch_casts_only_when_needed(self):
        model = small_cnn(rng=8)
        images = _pool(model, 4, seed=18)
        engine = Engine(model)
        images32 = images.astype(np.float32)
        out = engine._as_batch(images32)
        assert out is not images32 and out.dtype == np.float64
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, images32)

    def test_as_batch_still_validates_shapes(self):
        model = small_cnn(rng=9)
        engine = Engine(model)
        with pytest.raises(ValueError):
            engine._as_batch(np.zeros((2, 3, 5)))
        with pytest.raises(ValueError):
            engine._as_batch(np.zeros((0, *model.input_shape)))


class TestWorkspacePool:
    """The one contract of the former im2col workspace pool that outlived
    it: a recording forward's tape stays valid however often it is
    backpropagated, including through equal-geometry input-gradient
    gathers."""

    def test_repeated_backward_after_one_forward_is_stable(self):
        """A tape is only read: a second backward sees the same record."""
        model = small_cnn(rng=11)
        x = _pool(model, 3, seed=19)
        tape = []
        logits = model.forward(x, tape=tape)
        g = np.ones_like(logits)
        _, first = model.backward_batch(g, tape, need_input_grad=False)
        _, second = model.backward_batch(g, tape, need_input_grad=False)
        np.testing.assert_array_equal(first, second)

    def test_repeated_backward_with_equal_channel_convs(self):
        """Regression: an equal-channel same-padding conv's input-gradient
        gather has the *same* patch geometry as its forward cols; no
        backward may write into the taped patch matrix, or every backward
        after the first would read corrupted data."""
        model = mnist_cnn(width_multiplier=0.125, input_size=12, rng=12)
        x = _pool(model, 3, seed=20)
        tape = []
        logits = model.forward(x, tape=tape)
        g = np.ones_like(logits)
        # need_input_grad=True forces the full-correlation gather in every
        # conv, including conv2/conv4 whose in==out channel counts collide
        # with their own forward patch geometry
        _, first = model.backward_batch(g, tape, need_input_grad=True)
        _, second = model.backward_batch(g, tape, need_input_grad=True)
        _, third = model.backward_batch(g, tape, need_input_grad=True)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, third)
