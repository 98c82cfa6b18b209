"""Neural-network layers with explicit forward/backward passes.

The layers operate on batches.  Image tensors use the ``(N, C, H, W)`` layout;
dense layers use ``(N, features)``.  A layer holds its parameters and its
configuration, nothing else.  What one pass records for its backward lives
on a *tape* the caller owns, in the functional vector-Jacobian style of
Frostig et al., "Compiling machine learning programs via high-level
tracing" (SysML 2018): ``forward(x, tape=record)`` writes into the dict
``record`` what ``backward(grad_out, record)`` reads, and ``backward``
returns

* the gradient with respect to the layer input (needed to chain the
  backward pass and, at the network input, by the gradient-based test
  generation of Algorithm 2), and
* one gradient per parameter (needed by training, the GDA attack and the
  parameter-coverage metric).

A caller that reads only one of the two skips the other (see
:meth:`Layer.backward`).

Inference never runs ``backward``, so it passes no tape: the same kernels and
bitwise the same output, with nothing stored anywhere.  Parameters hold
values only and no pass leaves state on a layer, so one model can serve
several threads at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: alias for the ``(input_gradient, parameter_gradients)`` pair returned by
#: :meth:`Layer.backward` and :meth:`Layer.backward_batch`
BackwardResult = Tuple[Optional["np.ndarray"], List["np.ndarray"]]

#: one layer's record of a recording forward: what its backward reads
Tape = Dict[str, object]

import numpy as np

from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import (
    Initializer,
    default_for_activation,
    get_initializer,
    zeros,
)
from repro.nn.tensor import Parameter
from repro.utils.rng import RngLike, as_generator


class Layer:
    """Base class for all layers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.built = False

    # -- shape handling ------------------------------------------------------
    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        """Create parameters for the given per-sample input shape."""
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape for a per-sample input shape."""
        return input_shape

    # -- computation -----------------------------------------------------------
    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        """The layer's output on a batch.

        With ``tape=None`` the call is inference and stores nothing.  Given
        a dict, the layer writes into it what :meth:`backward` reads; the
        output is bitwise the same either way.
        """
        raise NotImplementedError

    def backward(
        self,
        grad_out: np.ndarray,
        tape: Tape,
        need_input_grad: bool = True,
        need_param_grads: bool = True,
    ) -> BackwardResult:
        """Chain ``grad_out`` back through the layer.

        Returns ``(input_grad, param_grads)``: the gradient with respect to
        the layer input, and one gradient per entry of :meth:`parameters`
        (in the same order), summed over the batch.  ``tape`` is the dict a
        recording :meth:`forward` filled; it is only read, so one tape can
        be backpropagated any number of times.

        ``need_input_grad=False`` skips the input gradient and returns
        ``None`` in its place; ``need_param_grads=False`` skips the parameter
        gradients and returns ``[]``.  Parameterless layers ignore both
        flags: their backward *is* the input gradient, and their parameter
        gradients are ``[]``.
        """
        raise NotImplementedError

    def backward_batch(
        self, grad_out: np.ndarray, tape: Tape, need_input_grad: bool = True
    ) -> BackwardResult:
        """:meth:`backward`, with parameter gradients kept per sample.

        Returns ``(grad_input, per_sample_grads)`` where ``per_sample_grads``
        holds one array of shape ``(N, *param.shape)`` per entry of
        :meth:`parameters` (in the same order), which is what the batched
        execution engine needs to build activation masks for a whole
        candidate pool in one pass.

        ``need_input_grad=False`` lets the bottom-most layer of a network
        skip the (potentially expensive) input-gradient computation and
        return ``None`` in its place.

        The default implementation is only valid for parameterless layers
        (their backward is already independent per sample); layers with
        parameters must override it.
        """
        if self.parameters():
            raise NotImplementedError(
                f"{self.__class__.__name__} has parameters but does not "
                "implement backward_batch"
            )
        return self.backward(grad_out, tape)

    # -- parameters --------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Learnable parameters of this layer (possibly empty)."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully-connected layer ``y = act(x W + b)``.

    Parameters
    ----------
    units: number of output features.
    activation: activation name or instance; ``None`` for linear.
    use_bias: include an additive bias vector.
    weight_initializer: name or callable; defaults to a sensible choice for
        the activation (He for ReLU, Xavier otherwise).
    """

    def __init__(
        self,
        units: int,
        activation: str | Activation | None = None,
        use_bias: bool = True,
        weight_initializer: str | Initializer | None = None,
        name: str = "dense",
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ValueError("units must be positive")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.use_bias = bool(use_bias)
        self._weight_initializer = weight_initializer
        self.weight: Optional[Parameter] = None
        self.bias: Optional[Parameter] = None

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense layer {self.name!r} expects flat inputs, got per-sample "
                f"shape {input_shape}; add a Flatten layer first"
            )
        in_features = input_shape[0]
        init = self._weight_initializer
        if init is None:
            init = default_for_activation(self.activation.name)
        init_fn = get_initializer(init)
        self.weight = Parameter(
            init_fn((in_features, self.units), rng), name=f"{self.name}/weight"
        )
        if self.use_bias:
            self.bias = Parameter(zeros((self.units,)), name=f"{self.name}/bias")
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.units,)

    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        if self.weight is None:
            raise RuntimeError(f"layer {self.name!r} has not been built")
        z = x @ self.weight.value
        if self.bias is not None:
            z += self.bias.value  # z is freshly allocated by the matmul
        if self.activation.grad_from_output:
            # fused dense+bias+activation: the activation overwrites the
            # fresh matmul buffer, and backward reads y in place of z
            y = z = self.activation.forward_inplace(z)
        else:
            y = self.activation.forward(z)
        if tape is not None:
            tape.update(x=x, z=z, y=y)
        return y

    def backward(
        self,
        grad_out: np.ndarray,
        tape: Tape,
        need_input_grad: bool = True,
        need_param_grads: bool = True,
    ) -> BackwardResult:
        x, z, y = tape["x"], tape["z"], tape["y"]
        grad_z = self.activation.backward(z, y, grad_out)
        assert self.weight is not None
        grads = []
        if need_param_grads:
            grads.append(x.T @ grad_z)
            if self.bias is not None:
                grads.append(grad_z.sum(axis=0))
        grad_in = grad_z @ self.weight.value.T if need_input_grad else None
        return grad_in, grads

    def backward_batch(
        self, grad_out: np.ndarray, tape: Tape, need_input_grad: bool = True
    ) -> BackwardResult:
        x, z, y = tape["x"], tape["z"], tape["y"]
        grad_z = self.activation.backward(z, y, grad_out)
        assert self.weight is not None
        # per-sample outer products x_n ⊗ grad_z_n, shape (N, in, units)
        grads = [x[:, :, None] * grad_z[:, None, :]]
        if self.bias is not None:
            grads.append(grad_z)
        grad_in = grad_z @ self.weight.value.T if need_input_grad else None
        return grad_in, grads

    def parameters(self) -> List[Parameter]:
        params = [self.weight] if self.weight is not None else []
        if self.bias is not None:
            params.append(self.bias)
        return params


# ---------------------------------------------------------------------------
# im2col helpers for convolution and pooling
# ---------------------------------------------------------------------------

def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size for input {size}, "
            f"kernel {kernel}, stride {stride}, padding {padding}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Rearrange image batches into patch matrices.

    Parameters
    ----------
    x: input of shape ``(N, C, H, W)``.

    Returns
    -------
    cols: array of shape ``(N, C*kh*kw, out_h*out_w)``.
    out_h, out_w: spatial output sizes.
    """
    n, c, h, w = x.shape
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    out_h = _conv_output_size(h, kh, stride, padding)
    out_w = _conv_output_size(w, kw, stride, padding)
    # a strided window view plus one contiguous copy is several times faster
    # than an advanced-indexing gather, and yields a C-contiguous (N, K, P)
    # patch matrix so the matmuls that consume it hit the fast BLAS path
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (N, C, out_h, out_w, kh, kw)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: sum every patch back onto its image pixels.

    One strided-slice add per kernel tap, in ``(ki, kj)`` row-major order.
    That is the order in which a scatter-add (``np.add.at``) over the patch
    rows meets each pixel, so every pixel sums the same terms in the same
    order from the same zero: the result is bitwise equal to the scatter,
    for every stride, padding and overlap, at a fraction of its cost.
    """
    n, c, h, w = x_shape
    out_h = _conv_output_size(h, kh, stride, padding)
    out_w = _conv_output_size(w, kw, stride, padding)
    x_pad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    for ki in range(kh):
        rows = slice(ki, ki + stride * out_h, stride)
        for kj in range(kw):
            x_pad[:, :, rows, kj : kj + stride * out_w : stride] += patches[:, :, ki, kj]
    if padding == 0:
        return x_pad
    return x_pad[:, :, padding:-padding, padding:-padding]


class Conv2D(Layer):
    """2-D convolution with optional activation.

    Weights have shape ``(filters, in_channels, kh, kw)``; inputs and outputs
    use the ``(N, C, H, W)`` layout.  Implemented with im2col so the forward
    and backward passes are large matrix multiplications.  ``backward`` and
    ``backward_batch`` run one input-gradient kernel (bitwise equal results).
    """

    def __init__(
        self,
        filters: int,
        kernel_size: int | Tuple[int, int] = 3,
        stride: int = 1,
        padding: str | int = "same",
        activation: str | Activation | None = None,
        use_bias: bool = True,
        weight_initializer: str | Initializer | None = None,
        name: str = "conv",
    ) -> None:
        super().__init__(name)
        if filters <= 0:
            raise ValueError("filters must be positive")
        self.filters = int(filters)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kernel_size = (int(kernel_size[0]), int(kernel_size[1]))
        if stride <= 0:
            raise ValueError("stride must be positive")
        self.stride = int(stride)
        self._padding_spec = padding
        self.activation = get_activation(activation)
        self.use_bias = bool(use_bias)
        self._weight_initializer = weight_initializer
        self.weight: Optional[Parameter] = None
        self.bias: Optional[Parameter] = None

    # -- padding resolution ----------------------------------------------------
    def _padding(self) -> int:
        if isinstance(self._padding_spec, int):
            if self._padding_spec < 0:
                raise ValueError("padding must be non-negative")
            return self._padding_spec
        if self._padding_spec == "same":
            if self.stride != 1:
                raise ValueError("'same' padding requires stride 1")
            kh, kw = self.kernel_size
            if kh != kw or kh % 2 == 0:
                raise ValueError("'same' padding requires an odd square kernel")
            return (kh - 1) // 2
        if self._padding_spec == "valid":
            return 0
        raise ValueError(f"unknown padding spec {self._padding_spec!r}")

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(
                f"Conv2D layer {self.name!r} expects (C, H, W) inputs, got {input_shape}"
            )
        in_c = input_shape[0]
        kh, kw = self.kernel_size
        init = self._weight_initializer
        if init is None:
            init = default_for_activation(self.activation.name)
        init_fn = get_initializer(init)
        self.weight = Parameter(
            init_fn((self.filters, in_c, kh, kw), rng), name=f"{self.name}/weight"
        )
        if self.use_bias:
            self.bias = Parameter(zeros((self.filters,)), name=f"{self.name}/bias")
        self.built = True

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        _, h, w = input_shape
        kh, kw = self.kernel_size
        pad = self._padding()
        out_h = _conv_output_size(h, kh, self.stride, pad)
        out_w = _conv_output_size(w, kw, self.stride, pad)
        return (self.filters, out_h, out_w)

    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        if self.weight is None:
            raise RuntimeError(f"layer {self.name!r} has not been built")
        n = x.shape[0]
        kh, kw = self.kernel_size
        cols, out_h, out_w = im2col(x, kh, kw, self.stride, self._padding())
        w_mat = self.weight.value.reshape(self.filters, -1)  # (F, C*kh*kw)
        z = np.matmul(w_mat, cols)  # (F, K) @ (N, K, P) -> (N, F, P) via BLAS
        if tape is not None:
            tape.update(x_shape=x.shape, cols=cols)
        del cols  # the matmul was this pass's last read; only a tape keeps it
        if self.bias is not None:
            z += self.bias.value[None, :, None]  # z is fresh from the matmul
        z = z.reshape(n, self.filters, out_h, out_w)
        if self.activation.grad_from_output:
            # fused conv+bias+activation: activate the fresh matmul buffer in
            # place; backward reads y in place of z
            y = z = self.activation.forward_inplace(z)
        else:
            y = self.activation.forward(z)
        if tape is not None:
            tape.update(z=z, y=y)
        return y

    def _grad_z(
        self, grad_out: np.ndarray, tape: Tape, need_input_grad: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``grad_z`` as ``(N, F, P)`` and, if asked, the input gradient: a
        stride-1 full correlation of the stride-dilated ``grad_z`` with the
        flipped kernels, cropped by the padding (an ``im2col`` and one
        matmul, with no ``col2im`` accumulation) for every conv shape."""
        z, y, (n, c, h, w) = tape["z"], tape["y"], tape["x_shape"]
        grad_z = self.activation.backward(z, y, grad_out)
        grad_z_mat = grad_z.reshape(n, self.filters, -1)  # (N, F, P)
        if not need_input_grad:
            return grad_z_mat, None
        (kh, kw), s, pad = self.kernel_size, self.stride, self._padding()
        out_h, out_w = z.shape[2:]
        padded_shape = (n, self.filters, h + 2 * pad + kh - 1, w + 2 * pad + kw - 1)
        dilated = np.zeros(padded_shape, grad_z.dtype)
        dilated[:, :, kh - 1 : kh - 1 + s * out_h : s, kw - 1 : kw - 1 + s * out_w : s] = grad_z
        cropped = dilated[:, :, pad : pad + h + kh - 1, pad : pad + w + kw - 1]
        gcols, _, _ = im2col(cropped, kh, kw, 1, 0)  # (N, F*kh*kw, H*W)
        assert self.weight is not None
        w_flip = self.weight.value[:, :, ::-1, ::-1]  # (F, C, kh, kw)
        w_flip_mat = w_flip.transpose(1, 0, 2, 3).reshape(c, -1)
        grad_x = np.matmul(w_flip_mat, gcols)  # (C, F*kh*kw) @ (N, ., P)
        return grad_z_mat, grad_x.reshape(n, c, h, w)

    def backward(
        self,
        grad_out: np.ndarray,
        tape: Tape,
        need_input_grad: bool = True,
        need_param_grads: bool = True,
    ) -> BackwardResult:
        grad_z, grad_x = self._grad_z(grad_out, tape, need_input_grad)
        assert self.weight is not None
        grads = []
        if need_param_grads:
            # the per-sample (N, F, P) @ (N, P, K) products of backward_batch,
            # summed over samples.  One (F, N*P) @ (N*P, K) GEMM (tensordot)
            # measured 1.5-4x slower at 8 and 32 images on the Table-I convs
            grad_w = np.matmul(grad_z, tape["cols"].transpose(0, 2, 1)).sum(axis=0)
            grads.append(grad_w.reshape(self.weight.value.shape))
            if self.bias is not None:
                grads.append(grad_z.sum(axis=(0, 2)))
        return grad_x, grads

    def backward_batch(
        self, grad_out: np.ndarray, tape: Tape, need_input_grad: bool = True
    ) -> BackwardResult:
        grad_z, grad_x = self._grad_z(grad_out, tape, need_input_grad)
        assert self.weight is not None
        # contract only over patch positions, keeping the sample axis; matmul
        # dispatches to batched BLAS where an equivalent einsum would not
        grad_w = np.matmul(grad_z, tape["cols"].transpose(0, 2, 1))  # (N, F, K)
        grads = [grad_w.reshape(grad_z.shape[0], *self.weight.value.shape)]
        if self.bias is not None:
            grads.append(grad_z.sum(axis=2))
        return grad_x, grads

    def parameters(self) -> List[Parameter]:
        params = [self.weight] if self.weight is not None else []
        if self.bias is not None:
            params.append(self.bias)
        return params


class _Pool2D(Layer):
    """A parameterless ``ph × pw`` window moved by ``stride`` (the pool size
    by default) over each channel."""

    def __init__(
        self, pool_size: int | Tuple[int, int], stride: Optional[int], name: str
    ) -> None:
        super().__init__(name)
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        self.pool_size = (int(pool_size[0]), int(pool_size[1]))
        self.stride = int(stride) if stride is not None else self.pool_size[0]
        if self.stride <= 0:
            raise ValueError("stride must be positive")

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        ph, pw = self.pool_size
        out_h = _conv_output_size(h, ph, self.stride, 0)
        out_w = _conv_output_size(w, pw, self.stride, 0)
        return (c, out_h, out_w)

    def _taps(self, x_shape: Tuple[int, ...]) -> List[Tuple[object, slice, slice]]:
        """Index of each window tap in ``(ki, kj)`` order: tap ``k`` picks
        pixel ``(ki + stride·i, kj + stride·j)`` for output cell ``(i, j)``."""
        _, out_h, out_w = self.output_shape(tuple(x_shape[1:]))
        s = self.stride
        ph, pw = self.pool_size
        return [
            (Ellipsis, slice(ki, ki + s * out_h, s), slice(kj, kj + s * out_w, s))
            for ki in range(ph)
            for kj in range(pw)
        ]


class MaxPool2D(_Pool2D):
    """Max pooling over non-overlapping (or strided) windows.

    Both passes walk the window's ``ph·pw`` strided taps in ``(ki, kj)``
    order; no patch matrix is built.  A tap replaces the running maximum
    where ``~(out >= tap) & (out == out)``: it is larger, or it is NaN and
    the maximum so far is not.  That is :func:`numpy.argmax`'s rule over the
    window (the first maximum wins, a NaN counts as the maximum, and of
    ``-0.0`` and ``+0.0`` the first is kept), so the output is the value at
    the window's argmax, bit for bit.  A recording forward also tapes the
    winning tap's index, and :meth:`backward` routes each gradient to it.
    """

    def __init__(
        self,
        pool_size: int | Tuple[int, int] = 2,
        stride: Optional[int] = None,
        name: str = "maxpool",
    ) -> None:
        super().__init__(pool_size, stride, name)

    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        taps = self._taps(x.shape)
        out = x[taps[0]].copy()
        index = None
        if tape is not None:
            index = np.zeros(out.shape, dtype=np.min_scalar_type(len(taps) - 1))
            tape.update(index=index, x_shape=x.shape)
        for k, tap in enumerate(taps[1:], start=1):
            values = x[tap]
            take = ~(out >= values) & (out == out)
            np.copyto(out, values, where=take)
            if index is not None:
                np.copyto(index, k, where=take)
        return out

    def backward(self, grad_out: np.ndarray, tape: Tape, **_flags: bool) -> BackwardResult:
        index, x_shape = tape["index"], tape["x_shape"]
        grad_out = grad_out.reshape(index.shape)
        # the gradient buffer follows the gradient dtype: hardcoding float64
        # here silently upcast every float32 backward through a pooling layer.
        # Taps add in (ki, kj) order, as col2im sums a scattered patch matrix
        grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
        for k, tap in enumerate(self._taps(x_shape)):
            grad_x[tap] += np.where(index == k, grad_out, 0)
        return grad_x, []


class AvgPool2D(_Pool2D):
    """Average pooling over strided windows.

    Forward sums the window's ``ph·pw`` strided taps in ``(ki, kj)`` order
    from zero and divides by the window size, the order in which
    ``mean`` over an im2col patch matrix sums them (except for a single
    output cell of 8 or more taps, where NumPy's mean sums pairwise);
    backward adds ``grad / window`` tap by tap from zero, as
    :func:`col2im` does.  No patch matrix is built.
    """

    def __init__(
        self,
        pool_size: int | Tuple[int, int] = 2,
        stride: Optional[int] = None,
        name: str = "avgpool",
    ) -> None:
        super().__init__(pool_size, stride, name)

    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        taps = self._taps(x.shape)
        out = np.zeros(x[taps[0]].shape, dtype=x.dtype)
        for tap in taps:
            out += x[tap]
        out /= len(taps)
        if tape is not None:
            tape["x_shape"] = x.shape
        return out

    def backward(self, grad_out: np.ndarray, tape: Tape, **_flags: bool) -> BackwardResult:
        x_shape = tape["x_shape"]
        taps = self._taps(x_shape)
        grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
        grad = grad_out.reshape(grad_x[taps[0]].shape) / len(taps)
        for tap in taps:
            grad_x[tap] += grad
        return grad_x, []


class Flatten(Layer):
    """Flatten per-sample tensors to vectors."""

    def __init__(self, name: str = "flatten") -> None:
        super().__init__(name)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        if tape is not None:
            tape["x_shape"] = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray, tape: Tape, **_flags: bool) -> BackwardResult:
        return grad_out.reshape(tape["x_shape"]), []


class Dropout(Layer):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float = 0.5, seed: int = 0, name: str = "dropout") -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = float(rate)
        self._rng = as_generator(seed)

    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        mask = None
        if training and self.rate > 0.0:
            keep = 1.0 - self.rate
            mask = (self._rng.random(x.shape) < keep) / keep
        if tape is not None:
            tape["mask"] = mask
        return x if mask is None else x * mask

    def backward(self, grad_out: np.ndarray, tape: Tape, **_flags: bool) -> BackwardResult:
        mask = tape["mask"]
        return (grad_out if mask is None else grad_out * mask), []


class ActivationLayer(Layer):
    """Standalone activation layer (for architectures that separate them)."""

    def __init__(self, activation: str | Activation, name: str = "activation") -> None:
        super().__init__(name)
        self.activation = get_activation(activation)

    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[Tape] = None
    ) -> np.ndarray:
        y = self.activation.forward(x)
        if tape is not None:
            tape.update(x=x, y=y)
        return y

    def backward(self, grad_out: np.ndarray, tape: Tape, **_flags: bool) -> BackwardResult:
        return self.activation.backward(tape["x"], tape["y"], grad_out), []


__all__ = [
    "BackwardResult",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "Dropout",
    "ActivationLayer",
    "im2col",
    "col2im",
]
