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
  ordinary inference ``forward`` (no tape).  Parametric layers in the
  shared prefix execute the template layer's plain inference ``forward``
  the same way.  Layers hold no per-pass state, so the stack runs the
  template's own layer objects.

The model axis runs forwards only: it serves trial replay, and every
gradient query (activation masks, test synthesis, the GDA attack) is about
one model and runs through that model's own
:class:`~repro.nn.model.Sequential`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.model import Sequential
from repro.nn.tensor import bit_pattern


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
        input.  Used by the fused ``model_axis`` path's trunk sharing — the base
        model's activations up to ``start`` stand in for every copy's,
        bitwise, when the copies' parameters first diverge at ``start``.

    :meth:`forward` returns ``(M, N, num_classes)``; slice ``m`` is
    bit-identical to ``models[m].forward(x)``.  Like every inference pass
    it stores nothing, on the stack or on any model.
    """

    def __init__(self, models: Sequence[Sequential], start: int = 0) -> None:
        self._build(list(models), start, check=True)

    @classmethod
    def _of_checked(cls, models: Sequence[Sequential], start: int = 0) -> "StackedSequential":
        """A stack over ``models`` whose architecture signatures the caller
        has already found equal (the engine checks each copy once per call)."""
        stack = cls.__new__(cls)
        stack._build(list(models), start, check=False)
        return stack

    def _build(self, models: List[Sequential], start: int, check: bool) -> None:
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
        if check:
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

    def __len__(self) -> int:
        return self.num_models

    @property
    def num_classes(self) -> int:
        return self.template.num_classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Inference logits for every model: ``(M, N, num_classes)``."""
        if self.start == 0:
            self.template._check_input(x)
        m = self.num_models
        out = x  # shared (N, ...) until the first stacked layer
        stacked = False
        for idx, layer in enumerate(self.template.layers):
            if idx < self.start:
                continue
            if idx in self._stacked and idx >= self._first_diff:
                weight, bias = self._stacked[idx]
                out = layer.stacked_forward(out, weight, bias)
                stacked = True
            elif stacked:
                n = out.shape[1]
                folded = layer.forward(out.reshape(m * n, *out.shape[2:]))
                out = folded.reshape(m, n, *folded.shape[1:])
            else:
                out = layer.forward(out)
        if not stacked:
            # every copy is bitwise identical: one shared pass serves all
            out = np.broadcast_to(out, (m, *out.shape))
        return out


__all__ = ["StackedSequential"]
