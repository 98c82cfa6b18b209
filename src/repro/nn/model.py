"""Sequential model: composition of layers plus the gradient queries the
paper's method needs.

Beyond the usual ``forward``/``predict``/``fit``-style API, the model exposes
three gradient queries used throughout the library:

* :meth:`Sequential.loss_parameter_gradients` — flat parameter gradient of a
  loss (the engine's primitive behind the gradient-descent attack).
* :meth:`Sequential.output_gradients` — parameter gradients of a scalarised
  network output ``F(x)`` for a single sample (the quantity ``∇θ F(x)`` that
  defines *activated parameters* in Section IV-A).
* :meth:`Sequential.input_gradient` — gradient of a loss with respect to the
  *input* (used by the gradient-based test generation of Algorithm 2 and by
  adversarial-style updates).

A model holds its layers and their parameters, nothing else.  A recording
:meth:`Sequential.forward` fills a tape the caller passes in (a list that
receives one record per layer), and :meth:`Sequential.backward` reads it
back.  Each gradient query makes its own tape, which dies when the query
returns, so between calls a model keeps no activation, and several threads
can query one model at once; only ``Parameter.grad`` accumulation
(:meth:`~Sequential.loss_parameter_gradients`,
:meth:`~Sequential.output_gradients`, training) is shared.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults import inject as _inject
from repro.nn.layers import Layer, Tape
from repro.nn.losses import Loss, SoftmaxCrossEntropy, get_loss
from repro.nn.tensor import Parameter, ParameterView
from repro.utils.rng import RngLike, as_generator

#: supported scalarisations of the vector-valued network output F(x)
SCALARIZATIONS = ("sum", "max", "predicted")

#: rows per chunk of the inference helpers (``predict`` and friends); BLAS
#: results depend on batch shape, so code that must reproduce their outputs
#: bit for bit chunks its inputs the same way
PREDICT_BATCH_SIZE = 256


class Sequential:
    """A feed-forward stack of layers.

    Parameters
    ----------
    layers:
        Layers in execution order.  They may be unbuilt; :meth:`build` creates
        their parameters for a concrete input shape.
    name:
        Model identifier used in serialisation and reporting.
    """

    def __init__(self, layers: Optional[Sequence[Layer]] = None, name: str = "model") -> None:
        self.layers: List[Layer] = list(layers) if layers else []
        self.name = name
        self.input_shape: Optional[Tuple[int, ...]] = None
        self._built = False

    # -- construction ----------------------------------------------------------
    def add(self, layer: Layer) -> "Sequential":
        """Append a layer (before :meth:`build`)."""
        if self._built:
            raise RuntimeError("cannot add layers after the model has been built")
        self.layers.append(layer)
        return self

    def build(self, input_shape: Tuple[int, ...], rng: RngLike = None) -> "Sequential":
        """Create all layer parameters for a per-sample ``input_shape``.

        ``input_shape`` excludes the batch dimension, e.g. ``(1, 28, 28)`` for
        MNIST-like images or ``(features,)`` for flat inputs.
        """
        if not self.layers:
            raise ValueError("model has no layers")
        gen = as_generator(rng)
        shape = tuple(int(s) for s in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            layer.build(shape, gen)
            shape = layer.output_shape(shape)
        self._built = True
        return self

    @property
    def built(self) -> bool:
        return self._built

    @property
    def output_shape(self) -> Tuple[int, ...]:
        if not self._built or self.input_shape is None:
            raise RuntimeError("model has not been built")
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    @property
    def num_classes(self) -> int:
        """Width of the output layer (number of classes for classifiers)."""
        shape = self.output_shape
        if len(shape) != 1:
            raise ValueError(f"output shape {shape} is not a flat class vector")
        return shape[0]

    # -- parameters ---------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All parameters in layer order."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def parameter_view(self) -> ParameterView:
        """Flat-indexed view over every scalar parameter in the network."""
        return ParameterView(self.parameters())

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # -- forward / backward ----------------------------------------------------------
    def forward(
        self, x: np.ndarray, training: bool = False, tape: Optional[List[Tape]] = None
    ) -> np.ndarray:
        """Run the network on a batch and return the output logits.

        With ``tape=None`` the call is inference: nothing is stored
        anywhere.  Given a list, its contents are replaced by one record per
        layer, which :meth:`backward` and :meth:`backward_batch` read; the
        logits are bitwise the same either way.  The tape is the caller's:
        the model keeps no reference to it.
        """
        self._check_input(x)
        return self._run(x, training, tape)

    def forward_collect(self, x: np.ndarray) -> List[np.ndarray]:
        """Run the network and return every layer's output (for neuron coverage).

        An inference pass: it records nothing (see :meth:`forward`).
        """
        self._check_input(x)
        outputs: List[np.ndarray] = []
        self._run(x, False, None, outputs)
        return outputs

    def _run(
        self,
        x: np.ndarray,
        training: bool,
        tape: Optional[List[Tape]],
        outputs: Optional[List[np.ndarray]] = None,
    ) -> np.ndarray:
        """The layer loop of :meth:`forward`; appends each layer's output to
        ``outputs`` when given."""
        if tape is not None:
            tape[:] = [{} for _ in self.layers]
        out = x
        for index, layer in enumerate(self.layers):
            if _inject.active():
                # chaos-plan hook: latency/exception faults addressed to a
                # named layer's forward ("layer.forward" site)
                _inject.check("layer.forward", layer=layer.name, index=index, model=self.name)
            out = layer.forward(
                out, training=training, tape=None if tape is None else tape[index]
            )
            if outputs is not None:
                outputs.append(out)
        return out

    def _check_tape(self, tape: List[Tape]) -> None:
        if len(tape) != len(self.layers):
            raise ValueError(
                f"tape holds {len(tape)} records for {len(self.layers)} layers; "
                "pass the list a recording forward filled"
            )

    def backward(
        self,
        grad_out: np.ndarray,
        tape: List[Tape],
        need_input_grad: bool = True,
        need_param_grads: bool = True,
    ) -> Optional[np.ndarray]:
        """Backpropagate an output gradient; returns the input gradient.

        ``tape`` is the list a recording :meth:`forward` filled; it is only
        read, so it can be backpropagated more than once.  Parameter
        gradients are *accumulated*; call :meth:`zero_grad` first if fresh
        gradients are required.  ``need_param_grads=False`` leaves every
        ``Parameter.grad`` untouched; ``need_input_grad=False`` lets the bottom
        layer skip its input gradient and returns ``None``.  What is computed
        is bitwise the same as with both flags on.
        """
        self._check_tape(tape)
        grad = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            grad = self.layers[i].backward(
                grad,
                tape[i],
                need_input_grad=(i > 0 or need_input_grad),
                need_param_grads=need_param_grads,
            )
        return grad if need_input_grad else None

    def backward_batch(
        self, grad_out: np.ndarray, tape: List[Tape], need_input_grad: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Backpropagate an output gradient, keeping parameter gradients per sample.

        Returns ``(input_gradient, per_sample_grads)`` where ``per_sample_grads``
        has shape ``(N, num_parameters)``: row ``n`` is the flat parameter
        gradient attributable to sample ``n`` alone.  Nothing is accumulated
        into ``Parameter.grad``, so no :meth:`zero_grad` is needed around this
        call.  This is the primitive the batched execution engine
        (:mod:`repro.engine`) builds activation masks from.

        With ``need_input_grad=False`` the bottom layer skips its input-
        gradient computation and the returned input gradient is ``None``.
        ``tape`` is as for :meth:`backward`.
        """
        self._check_tape(tape)
        grad = np.asarray(grad_out)
        if grad.dtype not in (np.float32, np.float64):
            grad = grad.astype(np.float64)
        n = grad.shape[0]
        per_layer: List[List[np.ndarray]] = []
        for i in range(len(self.layers) - 1, -1, -1):
            grad, grads = self.layers[i].backward_batch(
                grad, tape[i], need_input_grad=(i > 0 or need_input_grad)
            )
            per_layer.append(grads)
        per_layer.reverse()
        parts = [g.reshape(n, -1) for grads in per_layer for g in grads]
        if parts:
            per_sample = np.concatenate(parts, axis=1)
        else:
            per_sample = np.zeros((n, 0), dtype=np.float64)
        return grad, per_sample

    def output_gradients_batch(
        self, x: np.ndarray, scalarization: str = "sum"
    ) -> np.ndarray:
        """Per-sample flat parameter gradients of the scalarised output.

        The batched counterpart of :meth:`output_gradients`: for a batch of
        ``N`` samples it returns an ``(N, num_parameters)`` matrix whose row
        ``i`` equals ``output_gradients(x[i], scalarization)`` (to floating-
        point equivalence), computed with one forward and one backward pass
        over the whole batch instead of ``N`` single-sample passes.
        """
        if scalarization not in SCALARIZATIONS:
            raise ValueError(
                f"unknown scalarization {scalarization!r}; choose from {SCALARIZATIONS}"
            )
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        tape: List[Tape] = []
        logits = self.forward(x, tape=tape)
        grad_out = np.zeros_like(logits)
        if scalarization == "sum":
            grad_out[:] = 1.0
        else:
            rows = np.arange(logits.shape[0])
            grad_out[rows, np.argmax(logits, axis=1)] = 1.0
        _, per_sample = self.backward_batch(grad_out, tape, need_input_grad=False)
        return per_sample

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- inference helpers ----------------------------------------------------------
    def predict(self, x: np.ndarray, batch_size: int = PREDICT_BATCH_SIZE) -> np.ndarray:
        """Logits for a (possibly large) batch, evaluated in chunks."""
        self._check_input(x)
        chunks = []
        for start in range(0, x.shape[0], batch_size):
            chunks.append(self.forward(x[start : start + batch_size]))
        return np.concatenate(chunks, axis=0)

    def predict_classes(self, x: np.ndarray, batch_size: int = PREDICT_BATCH_SIZE) -> np.ndarray:
        """Predicted class index per sample."""
        return np.argmax(self.predict(x, batch_size=batch_size), axis=1)

    def predict_proba(self, x: np.ndarray, batch_size: int = PREDICT_BATCH_SIZE) -> np.ndarray:
        """Softmax class probabilities per sample."""
        logits = self.predict(x, batch_size=batch_size)
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    # -- gradient queries ---------------------------------------------------------------
    def loss_parameter_gradients(
        self, x: np.ndarray, targets: np.ndarray, loss: str | Loss = "cross_entropy"
    ) -> Tuple[float, np.ndarray]:
        """Loss value and flat parameter gradient of a loss for a batch.

        Inference-mode forward; the bottom layer skips its input gradient.
        ``Parameter.grad`` is zero on return.
        """
        self.zero_grad()
        tape: List[Tape] = []
        logits = self.forward(x, tape=tape)
        value, grad = get_loss(loss).value_and_grad(logits, targets)
        self.backward(grad, tape, need_input_grad=False)
        flat = self.parameter_view().flat_grads()
        self.zero_grad()
        return value, flat

    def input_gradient(
        self, x: np.ndarray, targets: np.ndarray, loss: str | Loss = "cross_entropy"
    ) -> Tuple[float, np.ndarray]:
        """Loss value and gradient of the loss with respect to the input batch.

        Used by Algorithm 2 (gradient-based test generation).  Runs an
        input-only backward: no parameter gradient is computed, and
        ``Parameter.grad`` is left exactly as it was.
        """
        tape: List[Tape] = []
        logits = self.forward(x, training=True, tape=tape)
        value, grad = get_loss(loss).value_and_grad(logits, targets)
        return value, self.backward(grad, tape, need_param_grads=False)

    def output_gradients(
        self, x: np.ndarray, scalarization: str = "sum"
    ) -> np.ndarray:
        """Flat parameter-gradient vector of the scalarised output ``F(x)``.

        ``x`` must be a single sample (with or without the batch axis).  The
        scalarisation determines which scalar the gradient is taken of:

        * ``"sum"`` — the sum of all output logits (default; a perturbation of
          θ is deemed detectable if it moves any logit).
        * ``"max"`` — the largest logit.
        * ``"predicted"`` — the logit of the predicted class.
        """
        if scalarization not in SCALARIZATIONS:
            raise ValueError(
                f"unknown scalarization {scalarization!r}; choose from {SCALARIZATIONS}"
            )
        sample = self._as_single_batch(x)
        self.zero_grad()
        tape: List[Tape] = []
        logits = self.forward(sample, tape=tape)
        grad_out = np.zeros_like(logits)
        if scalarization == "sum":
            grad_out[:] = 1.0
        else:
            idx = int(np.argmax(logits[0]))
            grad_out[0, idx] = 1.0
        self.backward(grad_out, tape, need_input_grad=False)
        flat = self.parameter_view().flat_grads()
        self.zero_grad()
        return flat

    # -- copying / state ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Mapping of parameter names to copies of their values."""
        state: Dict[str, np.ndarray] = {}
        for p in self.parameters():
            if p.name in state:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            state[p.name] = p.value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values by name; shapes must match."""
        params = {p.name: p for p in self.parameters()}
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ValueError(
                f"state dict mismatch; missing={sorted(missing)} extra={sorted(extra)}"
            )
        for name, value in state.items():
            params[name].assign(value)

    def copy(self) -> "Sequential":
        """Deep copy sharing nothing with the original (``copy.deepcopy``), so
        perturbing the copy (as the attacks do) never touches the original."""
        import copy as _copy

        return _copy.deepcopy(self)

    # -- internals ---------------------------------------------------------------------------
    def _check_input(self, x: np.ndarray) -> None:
        if not self._built:
            raise RuntimeError("model has not been built; call build(input_shape)")
        if self.input_shape is not None and tuple(x.shape[1:]) != self.input_shape:
            raise ValueError(
                f"input per-sample shape {tuple(x.shape[1:])} does not match the "
                f"model input shape {self.input_shape}"
            )

    def _as_single_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.input_shape is None:
            raise RuntimeError("model has not been built")
        if x.shape == self.input_shape:
            return x[None, ...]
        if x.ndim == len(self.input_shape) + 1 and x.shape[0] == 1:
            return x
        raise ValueError(
            "output_gradients expects a single sample of shape "
            f"{self.input_shape} (optionally with a leading batch axis of 1), "
            f"got {x.shape}"
        )

    def architecture_signature(self) -> Tuple:
        """Hashable description of the built architecture (not the weights).

        Two models share a signature exactly when their layer stacks are
        interchangeable: same layer classes in the same order, same
        activations, same parameter shapes and dtypes, same input shape.
        This is the compatibility check behind stacked replay
        (:meth:`repro.engine.Engine.stacked_forward`), which reads equal
        parameters as equal activations between perturbed copies of one
        model — only weight *values* may differ between stacked copies.
        """
        if not self._built:
            raise RuntimeError("model has not been built")
        entries = []
        for layer in self.layers:
            activation = getattr(layer, "activation", None)
            entries.append(
                (
                    type(layer).__name__,
                    activation.name if activation is not None else None,
                    tuple(
                        (tuple(p.value.shape), np.dtype(p.value.dtype).str)
                        for p in layer.parameters()
                    ),
                )
            )
        return (self.input_shape, tuple(entries))

    def summary(self) -> str:
        """Human-readable architecture summary."""
        if not self._built or self.input_shape is None:
            raise RuntimeError("model has not been built")
        lines = [f"Model: {self.name}", f"Input shape: {self.input_shape}"]
        shape = self.input_shape
        total = 0
        for layer in self.layers:
            shape = layer.output_shape(shape)
            count = sum(p.size for p in layer.parameters())
            total += count
            lines.append(
                f"  {layer.name:<16} {layer.__class__.__name__:<12} "
                f"out={shape!s:<18} params={count}"
            )
        lines.append(f"Total parameters: {total}")
        return "\n".join(lines)


__all__ = ["Sequential", "SCALARIZATIONS", "PREDICT_BATCH_SIZE"]
