"""Tests for layers: shapes, forward values, and numeric gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import (
    ActivationLayer,
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    col2im,
    im2col,
)
from repro.nn.tensor import Parameter, bit_pattern


def _rng():
    return np.random.default_rng(42)


def _check_layer_gradients(layer, x, rtol=1e-5, atol=1e-7):
    """Numeric check of input and parameter gradients of sum(layer(x))."""
    tape = {}
    y = layer.forward(x, tape=tape)
    grad_out = np.ones_like(y)
    grad_in, param_grads = layer.backward(grad_out, tape)
    assert len(param_grads) == len(layer.parameters())

    eps = 1e-6

    # input gradient on a handful of entries
    rng = _rng()
    flat_idx = rng.choice(x.size, size=min(12, x.size), replace=False)
    for fi in flat_idx:
        idx = np.unravel_index(fi, x.shape)
        orig = x[idx]
        x[idx] = orig + eps
        plus = layer.forward(x, training=False).sum()
        x[idx] = orig - eps
        minus = layer.forward(x, training=False).sum()
        x[idx] = orig
        numeric = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad_in[idx], numeric, rtol=rtol, atol=atol)

    # parameter gradients on a handful of entries per parameter
    for param, analytic in zip(layer.parameters(), param_grads):
        assert analytic.shape == param.value.shape
        flat_idx = rng.choice(param.size, size=min(10, param.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, param.value.shape)
            orig = param.value[idx]
            param.value[idx] = orig + eps
            plus = layer.forward(x, training=False).sum()
            param.value[idx] = orig - eps
            minus = layer.forward(x, training=False).sum()
            param.value[idx] = orig
            numeric = (plus - minus) / (2 * eps)
            np.testing.assert_allclose(analytic[idx], numeric, rtol=rtol, atol=atol)


class TestIm2Col:
    def test_round_trip_shapes(self):
        x = _rng().random((2, 3, 6, 6))
        cols, oh, ow = im2col(x, 3, 3, stride=1, padding=1)
        assert cols.shape == (2, 3 * 9, 36)
        assert (oh, ow) == (6, 6)

    def test_col2im_accumulates_overlaps(self):
        x = np.ones((1, 1, 4, 4))
        cols, _, _ = im2col(x, 3, 3, stride=1, padding=0)
        back = col2im(np.ones_like(cols), (1, 1, 4, 4), 3, 3, stride=1, padding=0)
        # centre pixels belong to 4 overlapping 3x3 patches
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0

    def test_invalid_geometry_raises(self):
        x = np.ones((1, 1, 2, 2))
        with pytest.raises(ValueError):
            im2col(x, 5, 5, stride=1, padding=0)


class TestDense:
    def test_build_and_output_shape(self):
        layer = Dense(7, activation="relu")
        layer.build((5,), _rng())
        assert layer.weight.shape == (5, 7)
        assert layer.bias.shape == (7,)
        assert layer.output_shape((5,)) == (7,)

    def test_requires_flat_input(self):
        layer = Dense(3)
        with pytest.raises(ValueError, match="Flatten"):
            layer.build((2, 4, 4), _rng())

    def test_forward_linear_values(self):
        layer = Dense(2, activation=None, use_bias=True)
        layer.build((3,), _rng())
        layer.weight.assign(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        layer.bias.assign(np.array([0.5, -0.5]))
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[4.5, 4.5]])

    @pytest.mark.parametrize("activation", [None, "relu", "tanh", "sigmoid"])
    def test_gradients(self, activation):
        layer = Dense(4, activation=activation)
        layer.build((6,), _rng())
        x = _rng().normal(size=(3, 6))
        _check_layer_gradients(layer, x)

    def test_no_bias_option(self):
        layer = Dense(4, use_bias=False)
        layer.build((3,), _rng())
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_rejects_nonpositive_units(self):
        with pytest.raises(ValueError):
            Dense(0)

    def test_forward_before_build_raises(self):
        with pytest.raises(RuntimeError):
            Dense(3).forward(np.zeros((1, 3)))


class TestConv2D:
    def test_output_shapes_same_and_valid(self):
        conv_same = Conv2D(8, 3, padding="same")
        conv_valid = Conv2D(8, 3, padding="valid")
        assert conv_same.output_shape((3, 10, 10)) == (8, 10, 10)
        assert conv_valid.output_shape((3, 10, 10)) == (8, 8, 8)

    def test_stride_two_output_shape(self):
        conv = Conv2D(4, 3, stride=2, padding=0)
        assert conv.output_shape((1, 9, 9)) == (4, 4, 4)

    def test_same_padding_requires_stride_one(self):
        conv = Conv2D(4, 3, stride=2, padding="same")
        with pytest.raises(ValueError, match="stride 1"):
            conv.output_shape((1, 8, 8))
        # one symmetric pad keeps the size only for odd square kernels
        for kernel in [2, 4, (3, 5), (1, 3)]:
            with pytest.raises(ValueError, match="odd square kernel"):
                Conv2D(4, kernel, padding="same").output_shape((1, 8, 8))

    def test_known_convolution_value(self):
        conv = Conv2D(1, 3, padding="valid", activation=None, use_bias=True)
        conv.build((1, 3, 3), _rng())
        conv.weight.assign(np.ones((1, 1, 3, 3)))
        conv.bias.assign(np.array([1.0]))
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv.forward(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == pytest.approx(np.arange(9).sum() + 1.0)

    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_gradients(self, activation, padding):
        conv = Conv2D(3, 3, padding=padding, activation=activation)
        conv.build((2, 6, 6), _rng())
        x = _rng().normal(size=(2, 2, 6, 6))
        _check_layer_gradients(conv, x)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            Conv2D(0)
        with pytest.raises(ValueError):
            Conv2D(4, stride=0)
        with pytest.raises(ValueError):
            Conv2D(4, padding="weird").output_shape((1, 8, 8))


class TestPooling:
    def test_maxpool_values(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = pool.forward(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    def test_maxpool_backward_routes_to_argmax(self):
        pool = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        tape = {}
        pool.forward(x, tape=tape)
        grad, _ = pool.backward(np.array([[[[5.0]]]]), tape)
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = 5.0
        np.testing.assert_allclose(grad, expected)

    def test_avgpool_values_and_backward(self):
        pool = AvgPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        tape = {}
        out = pool.forward(x, tape=tape)
        assert out[0, 0, 0, 0] == pytest.approx(2.5)
        grad, _ = pool.backward(np.array([[[[4.0]]]]), tape)
        np.testing.assert_allclose(grad, np.ones_like(x))

    def test_maxpool_gradients_numeric(self):
        pool = MaxPool2D(2)
        x = _rng().normal(size=(2, 3, 6, 6))
        _check_layer_gradients(pool, x)

    def test_output_shapes(self):
        assert MaxPool2D(2).output_shape((4, 8, 8)) == (4, 4, 4)
        assert AvgPool2D(2).output_shape((4, 8, 8)) == (4, 4, 4)


def _reference_maxpool(x, pool_size, stride, grad_out):
    """The im2col + argmax kernel MaxPool2D ran before its tap fold:
    ``(output, input gradient)``."""
    n, c, h, w = x.shape
    ph, pw = pool_size
    cols, out_h, out_w = im2col(x.reshape(n * c, 1, h, w), ph, pw, stride, 0)
    argmax = np.argmax(cols, axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1).reshape(n, c, out_h, out_w)
    grad_cols = np.zeros(cols.shape, dtype=grad_out.dtype)
    np.put_along_axis(grad_cols, argmax[:, None, :], grad_out.reshape(n * c, 1, -1), axis=1)
    grad_x = col2im(grad_cols, (n * c, 1, h, w), ph, pw, stride, 0)
    return out, grad_x.reshape(x.shape)


def _reference_avgpool(x, pool_size, stride, grad_out):
    """The im2col + mean kernel AvgPool2D ran before its tap fold:
    ``(output, input gradient)``."""
    n, c, h, w = x.shape
    ph, pw = pool_size
    cols, out_h, out_w = im2col(x.reshape(n * c, 1, h, w), ph, pw, stride, 0)
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    grad_flat = grad_out.reshape(n * c, -1) / (ph * pw)
    grad_cols = np.broadcast_to(grad_flat[:, None, :], cols.shape).copy()
    grad_x = col2im(grad_cols, (n * c, 1, h, w), ph, pw, stride, 0)
    return out, grad_x.reshape(x.shape)


_REFERENCES = {MaxPool2D: _reference_maxpool, AvgPool2D: _reference_avgpool}


def _assert_pool_matches_reference(x, pool_size=2, stride=None, seed=0, kind=MaxPool2D):
    pool = kind(pool_size, stride=stride)
    state = dict(vars(pool))
    plain = pool.forward(x)
    assert vars(pool) == state  # a pass stores nothing on the layer
    tape = {}
    out = pool.forward(x, tape=tape)
    assert vars(pool) == state
    grad_out = np.random.default_rng(seed).normal(size=out.shape).astype(x.dtype)
    grad_x, _ = pool.backward(grad_out, tape)
    want_out, want_grad = _REFERENCES[kind](x, pool.pool_size, pool.stride, grad_out)
    for got, want in ((plain, want_out), (out, want_out), (grad_x, want_grad)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(bit_pattern(got), bit_pattern(want))


def _table_one_pool_inputs(arch):
    """``(input, layer)`` of every pooling layer of a Table-I model."""
    from repro.models.zoo import cifar_cnn, mnist_cnn

    if arch == "mnist":
        model = mnist_cnn(width_multiplier=0.125, input_size=28, rng=0)
    else:
        model = cifar_cnn(width_multiplier=0.0625, input_size=32, rng=0)
    x = np.random.default_rng(1).random((16, *model.input_shape))
    inputs = [x, *model.forward_collect(x)]
    pools = [i for i, layer in enumerate(model.layers) if isinstance(layer, MaxPool2D)]
    assert pools
    return [(inputs[i], model.layers[i]) for i in pools]


class TestMaxPoolTapFold:
    """The tap fold equals the im2col + argmax kernel bit for bit, forward
    and input gradient, recording or not."""

    SPECIALS = (-0.0, 0.0, np.nan, np.inf, -np.inf, 1.0)

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_table_one_pool_inputs(self, arch):
        for i, (x, layer) in enumerate(_table_one_pool_inputs(arch)):
            _assert_pool_matches_reference(x, layer.pool_size, layer.stride, seed=i)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_window_of_special_values(self, dtype):
        # one 2x2 window per channel: every ordering of ties, signed zeros,
        # NaN and infinities
        values = np.array(self.SPECIALS)
        grid = np.stack(np.meshgrid(*[values] * 4, indexing="ij"), axis=-1).reshape(-1, 2, 2)
        _assert_pool_matches_reference(grid[None].astype(dtype))

    @pytest.mark.parametrize("pool_size, stride", [(2, 1), (3, 2), ((2, 3), 2)])
    def test_overlapping_and_uneven_windows(self, pool_size, stride):
        rng = np.random.default_rng(7)
        x = rng.choice(np.array(self.SPECIALS), size=(2, 3, 7, 8))
        _assert_pool_matches_reference(x, pool_size, stride)
        _assert_pool_matches_reference(np.round(rng.normal(size=(2, 3, 7, 8))), pool_size, stride)

    def test_needs_no_workspace(self):
        assert not hasattr(MaxPool2D(2), "_workspace")


class TestAvgPoolTapFold:
    """The tap fold (sum the taps in ``(ki, kj)`` order from zero, divide by
    the window) equals the im2col + mean kernel bit for bit, forward and
    input gradient, recording or not."""

    SPECIALS = (-0.0, 0.0, 1.0, -1.0, 0.5)

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_table_one_pool_inputs(self, arch):
        for i, (x, layer) in enumerate(_table_one_pool_inputs(arch)):
            _assert_pool_matches_reference(
                x, layer.pool_size, layer.stride, seed=i, kind=AvgPool2D
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_window_of_ties_and_signed_zeros(self, dtype):
        values = np.array(self.SPECIALS)
        grid = np.stack(np.meshgrid(*[values] * 4, indexing="ij"), axis=-1).reshape(-1, 2, 2)
        _assert_pool_matches_reference(grid[None].astype(dtype), kind=AvgPool2D)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("pool_size, stride", [(2, 1), (3, 1), (3, 2), ((2, 3), 2), (2, 2)])
    def test_overlapping_and_uneven_windows(self, pool_size, stride, dtype):
        rng = np.random.default_rng(11)
        ties = rng.choice(np.array(self.SPECIALS), size=(2, 3, 7, 8)).astype(dtype)
        _assert_pool_matches_reference(ties, pool_size, stride, kind=AvgPool2D)
        # magnitudes 1e-8..1e8 make the summation order show in the low bits
        spread = rng.normal(size=(2, 3, 7, 8)) * 10.0 ** rng.integers(-8, 8, size=(2, 3, 7, 8))
        _assert_pool_matches_reference(spread.astype(dtype), pool_size, stride, kind=AvgPool2D)

    def test_needs_no_patch_matrix(self, monkeypatch):
        import repro.nn.layers as layers

        def refuse(*_args, **_kwargs):
            raise AssertionError("pooling built a patch matrix")

        monkeypatch.setattr(layers, "im2col", refuse)
        monkeypatch.setattr(layers, "col2im", refuse)
        x = np.random.default_rng(3).random((2, 3, 6, 6))
        for kind in (MaxPool2D, AvgPool2D):
            tape = {}
            out = kind(2).forward(x, tape=tape)
            kind(2).backward(np.ones_like(out), tape)


class TestFlattenDropoutActivationLayer:
    def test_flatten_round_trip(self):
        flat = Flatten()
        x = _rng().random((2, 3, 4, 4))
        tape = {}
        y = flat.forward(x, tape=tape)
        assert y.shape == (2, 48)
        back, param_grads = flat.backward(np.ones_like(y), tape)
        assert back.shape == x.shape
        assert param_grads == []

    def test_flatten_output_shape(self):
        assert Flatten().output_shape((3, 4, 4)) == (48,)

    def test_dropout_identity_at_inference(self):
        drop = Dropout(0.5, seed=0)
        x = _rng().random((4, 10))
        np.testing.assert_array_equal(drop.forward(x, training=False), x)

    def test_dropout_masks_during_training(self):
        drop = Dropout(0.5, seed=0)
        x = np.ones((10, 100))
        y = drop.forward(x, training=True)
        zero_fraction = np.mean(y == 0.0)
        assert 0.3 < zero_fraction < 0.7
        # surviving activations are scaled up
        assert np.allclose(y[y != 0], 2.0)

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_activation_layer_gradients(self):
        layer = ActivationLayer("tanh")
        x = _rng().normal(size=(3, 7))
        _check_layer_gradients(layer, x)
