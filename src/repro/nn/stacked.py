"""Model-axis stacked execution: many same-architecture models, one dispatch.

The detection experiments (Tables II/III) and every campaign scenario
evaluate hundreds of *perturbed copies of one model* on the *same* stacked
fingerprint batch.  Looping the copies one at a time re-dispatches every
layer operation per copy; :class:`StackedSequential` instead stacks each
parametric layer's weights along a leading model axis and runs **one**
batched matmul / grouped im2col per layer for the whole set.

Exactness is the design constraint, not an afterthought: the stacked matmuls
are shaped so NumPy decomposes them into the *same* per-model GEMMs the
single-model path runs (``(N, in) @ (in, units)`` for dense layers,
``(F, K) @ (K, P)`` for convolutions), so per-model output slices are
bit-identical to running each copy through its own
:class:`~repro.nn.model.Sequential`.  Two structural tricks keep the work
minimal:

* **Shared prefix** — the forward pass stays un-tiled until the first layer
  whose parameters actually *differ* somewhere in the stack.  The attacks
  perturb a handful of parameters in one or two layers, so every layer
  before the earliest perturbation — frequently the convolutional front of
  the Table-I CNNs, which dominates wall-clock — runs **once** on the
  shared batch instead of once per copy (equal parameters on equal inputs
  are bit-identical, so sharing changes nothing observable).  The first
  stacked layer's patch matrix is still gathered once and shared by every
  model via matmul broadcasting.
* **Fold-to-``M·N``** — parameterless layers (pooling, flatten, dropout,
  standalone activations) are model-agnostic, so stacked tensors fold the
  model axis into the batch axis and ride through the template layer's
  ordinary ``forward``/``backward``.  Parametric layers in the shared
  prefix execute the template layer's plain ``forward`` the same way.

The gradient pass keeps the conservative split (every parametric layer runs
stacked) because its backward needs per-layer stacked caches either way.

The backward pass (for activation masks of all copies at once) descends only
to the first parametric layer — layers below it contribute no parameters and
no mask bits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.model import SCALARIZATIONS, Sequential
from repro.nn.tensor import bit_pattern
from repro.nn.workspace import WorkspacePool


class StackedSequential:
    """A set of same-architecture models fused along a leading model axis.

    Parameters
    ----------
    models:
        Built :class:`~repro.nn.model.Sequential` instances with identical
        :meth:`~repro.nn.model.Sequential.architecture_signature`; only
        parameter values may differ (the perturbed copies the attacks
        produce).  The first model acts as the structural template; its
        parameterless layers execute the shared/folded segments.
    start:
        Layer index the stack starts executing at; ``forward`` then takes
        the (shared) activation feeding that layer instead of the model
        input.  Used by the model-axis backend's trunk sharing — the base
        model's activations up to ``start`` stand in for every copy's,
        bitwise, when the copies' parameters first diverge at ``start``.
        Gradient queries require ``start == 0``.

    All query outputs carry a leading model axis: ``forward`` returns
    ``(M, N, num_classes)``, ``output_gradients_batch`` returns
    ``(M, N, num_parameters)``, ``forward_collect`` a list of ``(M, N, ...)``
    arrays.  Index ``m`` of any output is bit-identical to querying
    ``models[m]`` alone.
    """

    def __init__(self, models: Sequence[Sequential], start: int = 0) -> None:
        models = list(models)
        if not models:
            raise ValueError("StackedSequential needs at least one model")
        template = models[0]
        if not template.built:
            raise ValueError("StackedSequential requires built models")
        if not 0 <= start < len(template.layers):
            raise ValueError(
                f"start must name a layer (0..{len(template.layers) - 1}), "
                f"got {start}"
            )
        self.start = int(start)
        signature = template.architecture_signature()
        for i, model in enumerate(models[1:], start=1):
            if not model.built or model.architecture_signature() != signature:
                raise ValueError(
                    f"model {i} does not match the template architecture; "
                    "stacked execution requires identical layer stacks"
                )
        self.template = template
        self.num_models = len(models)
        self.input_shape = template.input_shape
        # stacked parameter tensors per parametric layer index
        self._stacked: Dict[int, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        for idx, layer in enumerate(template.layers):
            if layer.parameters():
                weight = np.stack([m.layers[idx].weight.value for m in models])
                bias = (
                    np.stack([m.layers[idx].bias.value for m in models])
                    if layer.bias is not None
                    else None
                )
                self._stacked[idx] = (weight, bias)
        if not self._stacked:
            raise ValueError("stacked execution needs at least one parametric layer")
        self._first_param = min(self._stacked)
        # first parametric layer whose parameters differ anywhere across the
        # stack, bit for bit: the forward pass computes everything before it
        # once on the shared batch (equal parameters on equal inputs are
        # bit-identical)
        self._first_diff = len(template.layers)
        for idx in sorted(self._stacked):
            if idx < self.start:
                continue
            if any(
                not (bits == bits[:1]).all()
                for bits in (bit_pattern(a) for a in self._stacked[idx] if a is not None)
            ):
                self._first_diff = idx
                break
        self._pool = WorkspacePool()
        self._caches: Dict[int, Dict[str, np.ndarray]] = {}

    def __len__(self) -> int:
        return self.num_models

    @property
    def num_classes(self) -> int:
        return self.template.num_classes

    # -- forward -------------------------------------------------------------
    def _forward(
        self, x: np.ndarray, collect: bool = False, keep_caches: bool = False
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        if self.start == 0:
            self.template._check_input(x)
        m = self.num_models
        out = x  # shared (N, ...) until the first stacked layer
        stacked = False
        outputs: List[np.ndarray] = []
        self._caches = {}
        # the gradient pass needs stacked caches for every parametric layer;
        # the forward-only passes share the prefix up to the first layer
        # whose parameters differ
        split = self._first_param if keep_caches else self._first_diff
        for idx, layer in enumerate(self.template.layers):
            if idx < self.start:
                continue
            if idx in self._stacked and idx >= split:
                weight, bias = self._stacked[idx]
                cache: Dict[str, np.ndarray] = {}
                out = layer.stacked_forward(out, weight, bias, cache, pool=self._pool)
                if keep_caches:
                    self._caches[idx] = cache
                else:
                    self._pool.release(cache.get("cols"))
                stacked = True
            elif stacked:
                n = out.shape[1]
                folded = layer.forward(out.reshape(m * n, *out.shape[2:]))
                out = folded.reshape(m, n, *folded.shape[1:])
            else:
                out = layer.forward(out)
            if collect:
                outputs.append(
                    out if stacked else np.broadcast_to(out, (m, *out.shape))
                )
        if not stacked:
            # every copy is bitwise identical: one shared pass serves all
            out = np.broadcast_to(out, (m, *out.shape))
        return out, outputs

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference logits for every model: ``(M, N, num_classes)``."""
        out, _ = self._forward(x)
        return out

    def forward_collect(self, x: np.ndarray) -> List[np.ndarray]:
        """Every layer's output for every model, each ``(M, N, ...)``.

        Shared-segment outputs are broadcast (read-only) views across the
        model axis — identical values for every model by construction.
        """
        _, outputs = self._forward(x, collect=True)
        return outputs

    # -- gradients -----------------------------------------------------------
    def output_gradients_batch(
        self, x: np.ndarray, scalarization: str = "sum"
    ) -> np.ndarray:
        """Per-sample flat parameter gradients for every model.

        Returns ``(M, N, num_parameters)``; slice ``m`` equals
        ``models[m].output_gradients_batch(x, scalarization)`` bit for bit.
        One forward and one backward pass serve the whole stack; the
        backward pass stops at the first parametric layer (nothing below it
        holds parameters, and the stacked path never needs input gradients).
        """
        if self.start != 0:
            raise ValueError("gradient queries require a stack starting at layer 0")
        if scalarization not in SCALARIZATIONS:
            raise ValueError(
                f"unknown scalarization {scalarization!r}; choose from "
                f"{SCALARIZATIONS}"
            )
        x = np.asarray(x)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        m = self.num_models
        logits, _ = self._forward(x, keep_caches=True)  # (M, N, classes)
        n = logits.shape[1]
        grad = np.zeros_like(logits)
        if scalarization == "sum":
            grad[:] = 1.0
        else:
            top = np.argmax(logits, axis=2)  # (M, N)
            np.put_along_axis(grad, top[:, :, None], 1.0, axis=2)
        per_layer: List[List[np.ndarray]] = []
        first = self._first_param
        for idx in range(len(self.template.layers) - 1, first - 1, -1):
            layer = self.template.layers[idx]
            if idx in self._stacked:
                weight, _bias = self._stacked[idx]
                cache = self._caches.pop(idx)
                grad, grads = layer.stacked_backward_batch(
                    grad,
                    weight,
                    cache,
                    need_input_grad=(idx > first),
                    pool=self._pool,
                )
                self._pool.release(cache.get("cols"))
                per_layer.append(grads)
            else:
                folded = layer.backward(grad.reshape(m * n, *grad.shape[2:]))
                grad = folded.reshape(m, n, *folded.shape[1:])
                per_layer.append([])
        per_layer.reverse()
        parts = [g.reshape(m, n, -1) for grads in per_layer for g in grads]
        return np.concatenate(parts, axis=2)


__all__ = ["StackedSequential"]
