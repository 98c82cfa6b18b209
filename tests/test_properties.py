"""Property-based tests (hypothesis) for core numeric building blocks and
coverage invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.coverage import ActivationCriterion, CoverageTracker
from repro.nn.activations import ReLU, Sigmoid, Softmax, Tanh
from repro.nn.layers import Conv2D, col2im, im2col
from repro.nn.losses import SoftmaxCrossEntropy, one_hot
from repro.nn.tensor import Parameter, ParameterView

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6), elements=finite_floats)
)
def test_softmax_rows_are_probability_distributions(x):
    y = Softmax().forward(x)
    assert np.all(y >= 0.0)
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(x.shape[0]), atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=8), elements=finite_floats)
)
def test_relu_is_idempotent_and_nonnegative(x):
    relu = ReLU()
    y = relu.forward(x)
    assert np.all(y >= 0.0)
    np.testing.assert_array_equal(relu.forward(y), y)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=8), elements=finite_floats)
)
def test_tanh_and_sigmoid_ranges(x):
    assert np.all(np.abs(Tanh().forward(x)) <= 1.0)
    s = Sigmoid().forward(x)
    assert np.all((s >= 0.0) & (s <= 1.0))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.integers(3, 8),
    kernel=st.integers(1, 3),
    padding=st.integers(0, 2),
)
def test_im2col_col2im_adjointness(n, c, size, kernel, padding):
    """<im2col(x), y> == <x, col2im(y)> — the two operators are adjoint,
    which is exactly the property the convolution backward pass relies on."""
    rng = np.random.default_rng(42)
    x = rng.normal(size=(n, c, size, size))
    cols, oh, ow = im2col(x, kernel, kernel, stride=1, padding=padding)
    y = rng.normal(size=cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, kernel, kernel, stride=1, padding=padding)))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def _col2im_scatter(cols, x_shape, kh, kw, stride, padding):
    """Reference col2im: one ``np.add.at`` scatter of every patch row."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    rows = np.arange(c * kh * kw)
    channel, ki, kj = rows // (kh * kw), (rows // kw) % kh, rows % kw
    pos = np.arange(out_h * out_w)
    i = ki[:, None] + stride * (pos // out_w)[None, :]
    j = kj[:, None] + stride * (pos % out_w)[None, :]
    x_pad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    np.add.at(x_pad, (slice(None), channel[:, None], i, j), cols)
    return x_pad[:, :, padding : padding + h, padding : padding + w]


@pytest.mark.parametrize("kernel", [2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_col2im_is_bitwise_equal_to_scatter_add(kernel, stride, padding, dtype):
    """The shifted-slice col2im sums each pixel's terms in the scatter's order.

    Terms spread over 16 decades, so any other summation order changes low
    bits somewhere; signed zeros pin the zero-start semantics.  The
    ``kernel == stride, padding == 0`` cells are the pooling layout.
    """
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    for n, c, h, w in [(2, 3, 7, 7), (1, 2, 8, 5), (3, 1, 6, 9)]:
        out_h = (h + 2 * padding - kernel) // stride + 1
        out_w = (w + 2 * padding - kernel) // stride + 1
        shape = (n, c * kernel * kernel, out_h * out_w)
        cols = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        cols[rng.random(shape) < 0.05] = -0.0
        cols = cols.astype(dtype)
        got = col2im(cols, (n, c, h, w), kernel, kernel, stride, padding)
        want = _col2im_scatter(cols, (n, c, h, w), kernel, kernel, stride, padding)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included


# the conv backward grid's edges for the transposed-convolution crop: stride
# 3, padding 2 on kernel 2 (padding > k - 1) and a non-square (3, 2) kernel
CONV_KERNELS = [2, 3, pytest.param((3, 2), id="3x2")]


def _kernel_hw(kernel):
    return (kernel, kernel) if isinstance(kernel, int) else kernel


def _conv_after_forward(kh, kw, stride, padding, dtype, n=3, c=2, h=7, w=6, filters=4):
    """A built linear ``kh × kw`` ``Conv2D`` in ``dtype`` after one training
    forward: ``(conv, x, grad_out, tape)``."""
    rng = np.random.default_rng(kh * 100 + stride * 10 + padding)
    conv = Conv2D(filters, (kh, kw), stride=stride, padding=padding, activation=None)
    conv.build((c, h, w), rng)
    for param in conv.parameters():
        param.value = rng.normal(size=param.value.shape).astype(dtype)
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    tape = {}
    out = conv.forward(x, training=True, tape=tape)
    return conv, x, rng.normal(size=out.shape).astype(dtype), tape


@pytest.mark.parametrize("kernel", CONV_KERNELS)
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_backward_matches_einsum_reference(kernel, stride, padding, dtype):
    """Weight, bias and input gradients agree with the einsum contraction."""
    kh, kw = _kernel_hw(kernel)
    conv, x, grad_out, tape = _conv_after_forward(kh, kw, stride, padding, dtype)
    grad_x, (grad_w, grad_b) = conv.backward(grad_out, tape)

    cols, _, _ = im2col(x, kh, kw, stride, padding)
    grad_z = grad_out.reshape(x.shape[0], conv.filters, -1)
    w_mat = conv.weight.value.reshape(conv.filters, -1)
    want_w = np.einsum("nfp,nkp->fk", grad_z, cols).reshape(conv.weight.value.shape)
    want_cols = np.einsum("fk,nfp->nkp", w_mat, grad_z)
    want_x = col2im(want_cols, x.shape, kh, kw, stride, padding)

    # entries that cancel to near zero get the tolerance of the largest one
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    for got, want in [
        (grad_w, want_w),
        (grad_b, grad_z.sum(axis=(0, 2))),
        (grad_x, want_x),
    ]:
        assert got.dtype == want.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("kernel", CONV_KERNELS)
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_weight_gradient_is_bitwise_sum_of_per_sample_gradients(
    kernel, stride, padding, dtype
):
    """``backward`` sums the very per-sample products ``backward_batch`` returns."""
    conv, _, grad_out, tape = _conv_after_forward(*_kernel_hw(kernel), stride, padding, dtype)
    _, per_sample = conv.backward_batch(grad_out, tape, need_input_grad=False)
    grad_x, (grad_w, _) = conv.backward(grad_out, tape, need_input_grad=False)
    assert grad_x is None
    want = per_sample[0].sum(axis=0)
    assert grad_w.dtype == want.dtype
    assert grad_w.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", CONV_KERNELS)
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_input_gradient_is_bitwise_in_both_backwards(kernel, stride, padding, dtype):
    """``backward`` and ``backward_batch`` run one input-gradient kernel."""
    conv, _, grad_out, tape = _conv_after_forward(*_kernel_hw(kernel), stride, padding, dtype)
    want, _ = conv.backward_batch(grad_out, tape)
    grad_x, grads = conv.backward(grad_out, tape, need_param_grads=False)
    assert grads == []
    assert grad_x.dtype == want.dtype == dtype
    assert grad_x.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.integers(0, 6), min_size=1, max_size=12),
)
def test_one_hot_rows_sum_to_one(labels):
    labels = np.array(labels)
    out = one_hot(labels, 7)
    np.testing.assert_array_equal(out.sum(axis=1), np.ones(len(labels)))
    np.testing.assert_array_equal(np.argmax(out, axis=1), labels)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 5)),
        elements=st.floats(-50, 50, allow_nan=False),
    ),
)
def test_cross_entropy_is_nonnegative_and_grad_rows_sum_to_zero(logits):
    n, k = logits.shape
    targets = np.arange(n) % k
    loss, grad = SoftmaxCrossEntropy().value_and_grad(logits, targets)
    assert loss >= -1e-12
    np.testing.assert_allclose(grad.sum(axis=1), np.zeros(n), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
    epsilon=st.floats(0, 1),
)
def test_activation_criterion_threshold_monotonicity(values, epsilon):
    grads = np.array(values)
    strict = ActivationCriterion(epsilon=epsilon)
    loose = ActivationCriterion(epsilon=0.0)
    assert strict.activated(grads).sum() <= loose.activated(grads).sum()


@settings(max_examples=30, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4
    ),
    data=st.data(),
)
def test_parameter_view_flat_round_trip(shapes, data):
    params = [
        Parameter(np.zeros(shape), name=f"p{i}") for i, shape in enumerate(shapes)
    ]
    view = ParameterView(params)
    flat = np.array(
        data.draw(
            st.lists(
                finite_floats, min_size=view.total_size, max_size=view.total_size
            )
        )
    )
    view.set_flat_values(flat)
    np.testing.assert_allclose(view.flat_values(), flat)
    # locate() round-trips every index to the right scalar
    for idx in range(view.total_size):
        assert view.get_scalar(idx) == flat[idx]


class _MaskModel:
    """Stand-in exposing just enough of the Sequential API for CoverageTracker."""

    def __init__(self, n):
        self._n = n
        self.layers = []

    def num_parameters(self):
        return self._n


@settings(max_examples=40, deadline=None)
@given(
    n_params=st.integers(4, 64),
    n_masks=st.integers(1, 8),
    data=st.data(),
)
def test_coverage_tracker_union_invariants(n_params, n_masks, data):
    """Union coverage equals the OR of all masks; marginal gains sum to coverage."""
    from repro.coverage.activation import ActivationCriterion

    from repro.coverage.bitmap import CoverageMap

    tracker = CoverageTracker.__new__(CoverageTracker)
    tracker._model = _MaskModel(n_params)
    tracker.criterion = ActivationCriterion()
    tracker._total = n_params
    tracker._covered = CoverageMap(n_params)
    tracker._num_tests = 0

    union = np.zeros(n_params, dtype=bool)
    total_gain = 0.0
    for _ in range(n_masks):
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=n_params, max_size=n_params))
        )
        gain = tracker.add_mask(mask)
        union |= mask
        total_gain += gain
        assert 0.0 <= gain <= 1.0
    assert tracker.num_covered == union.sum()
    assert tracker.coverage == pytest.approx(total_gain)
    assert tracker.coverage == pytest.approx(union.mean())
