"""Model-axis batched backend: one dispatch per layer for many models.

The detection experiments evaluate hundreds of perturbed copies of one model
on the same stacked fingerprint batch — the classic batched-multi-model
inference shape.  :class:`ModelAxisBackend` serves the one stacked primitive
of :class:`~repro.engine.backend.ExecutionBackend`, ``stacked_forward``,
through :class:`~repro.nn.stacked.StackedSequential`: each layer's weights are
stacked along a leading model axis and the whole set rides one batched
matmul / grouped im2col per layer, instead of re-dispatching every layer
once per copy.

The big win is **trunk sharing**: when the unperturbed victim is known (the
engine always passes it), each copy is grouped by the first layer at which
its parameters diverge, bit for bit, from the victim's.  Layers before that
point produce bitwise the *same* activations the victim produces, so every
copy only re-runs its divergent suffix on the victim's *trunk* (its
per-layer activations) — for the attacks' sparse perturbations that skips
most of the network for copies perturbed late (the classifier head, the
single-bias attack's most effective placement).  The engine memoizes the
trunk (:class:`~repro.engine.cache.TrunkCache`), so the victim's own layers
run once per victim and batch, not once per dispatch.

Per-model results are **bit-identical** to the numpy backend (shared
activations are equal by parameter equality, and the stacked GEMMs
decompose into the same per-model GEMMs; see :mod:`repro.nn.stacked`), so
detection tables are byte-for-byte unchanged — only faster.  Every
single-model query (forwards, gradients, activation and neuron masks) is
inherited unchanged from the numpy backend, making this backend a drop-in
replacement anywhere a backend name is accepted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.backend import NumpyBackend, register_backend
from repro.faults import inject
from repro.nn.model import Sequential
from repro.nn.stacked import StackedSequential
from repro.nn.tensor import bit_pattern


def first_divergence(base: Sequential, model: Sequential) -> int:
    """Index of the first layer whose parameters differ from ``base``'s.

    Parameters are compared bit for bit, so a ``-0.0`` where the base holds
    ``0.0`` diverges.  Returns ``len(base.layers)`` when every parameter is
    bitwise equal — the model *is* the base, observably.
    """
    for idx, layer in enumerate(base.layers):
        for ours, theirs in zip(layer.parameters(), model.layers[idx].parameters()):
            if not np.array_equal(bit_pattern(ours.value), bit_pattern(theirs.value)):
                return idx
    return len(base.layers)

#: default number of models fused per stacked dispatch; bounds the resident
#: weight stacks and per-layer activation tensors to ``max_models ×`` one
#: model's footprint
DEFAULT_MAX_MODELS = 16


@register_backend
class ModelAxisBackend(NumpyBackend):
    """Batched model-axis backend: fuses same-architecture model sets."""

    name = "model_axis"

    def __init__(self, max_models: int = DEFAULT_MAX_MODELS) -> None:
        if max_models <= 0:
            raise ValueError("max_models must be positive")
        self.max_models = int(max_models)

    @property
    def model_axis_capacity(self) -> int:
        return self.max_models

    # Restacking weights per call costs O(M · P) copies — noise next to the
    # forward/backward work the stack then amortises across the batch.
    def stacked_forward(
        self,
        models: List[Sequential],
        x: np.ndarray,
        base: Optional[Sequential] = None,
        trunk: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> np.ndarray:
        models = list(models)
        if inject.active():
            inject.check("model_axis.stacked_forward", models=len(models))
        if base is None:
            return StackedSequential(models).forward(x)
        if trunk is None:
            raise ValueError(
                "stacked_forward with a base needs the base's trunk on x "
                "(see repro.engine.cache.TrunkCache)"
            )

        # group the copies by the first layer where they diverge from the
        # base: the base's activation feeding that layer is bitwise what
        # every copy of the group computes there, so each group runs only
        # its own suffix of the network
        groups: Dict[int, List[int]] = {}
        for i, model in enumerate(models):
            groups.setdefault(first_divergence(base, model), []).append(i)
        logits = trunk[-1]
        result = np.empty((len(models), *logits.shape), dtype=logits.dtype)
        for split, indices in groups.items():
            if split >= len(base.layers):
                # bitwise the base itself: its logits serve every such copy
                result[indices] = logits
            else:
                group = StackedSequential([models[i] for i in indices], start=split)
                result[indices] = group.forward(trunk[split])
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelAxisBackend(max_models={self.max_models})"


__all__ = ["DEFAULT_MAX_MODELS", "ModelAxisBackend", "first_divergence"]
