"""The fused model-axis path: one dispatch per layer for many models.

The detection experiments evaluate hundreds of perturbed copies of one model
on the same stacked fingerprint batch — the classic batched-multi-model
inference shape.  On the ``model_axis`` backend,
:meth:`~repro.engine.engine.Engine.stacked_forward` runs each group of up to
:data:`DEFAULT_MAX_MODELS` copies through :func:`fused_stacked_forward`,
which rides :class:`~repro.nn.stacked.StackedSequential`: each layer's
weights are stacked along a leading model axis and the whole group rides one
batched matmul / grouped im2col per layer, instead of re-dispatching every
layer once per copy.

The big win is **trunk sharing**: each copy is grouped by the first layer at
which its parameters diverge, bit for bit, from the unperturbed victim's
(the engine's own model).  Layers before that point produce bitwise the
*same* activations the victim produces, so every copy only re-runs its
divergent suffix on the victim's *trunk* (its per-layer activations) — for
the attacks' sparse perturbations that skips most of the network for copies
perturbed late (the classifier head, the single-bias attack's most
effective placement).  The engine memoizes the trunk
(:class:`~repro.engine.cache.TrunkCache`), so the victim's own layers run
once per victim and batch, not once per dispatch.  Parameter equality only
stands in for equal activations between models of one architecture, so the
engine rejects any copy whose
:meth:`~repro.nn.model.Sequential.architecture_signature` differs from the
victim's before it gets here.

Per-model results are **bit-identical** to the ``numpy`` per-copy loop
(shared activations are equal by parameter equality, and the stacked GEMMs
decompose into the same per-model GEMMs; see :mod:`repro.nn.stacked`), so
detection tables are byte-for-byte unchanged — only faster.  Every
single-model query (forwards, gradients, activation and neuron masks) runs
the same way on both backends.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.model import Sequential
from repro.nn.stacked import StackedSequential
from repro.nn.tensor import bit_pattern


def first_divergence(base: Sequential, model: Sequential) -> int:
    """Index of the first layer whose parameters differ from ``base``'s.

    Parameters are compared bit for bit, so a ``-0.0`` where the base holds
    ``0.0`` diverges.  Returns ``len(base.layers)`` when every parameter is
    bitwise equal — the model *is* the base, observably, provided the two
    share an architecture signature (the engine checks that first).
    """
    for idx, layer in enumerate(base.layers):
        for ours, theirs in zip(layer.parameters(), model.layers[idx].parameters()):
            if not np.array_equal(bit_pattern(ours.value), bit_pattern(theirs.value)):
                return idx
    return len(base.layers)

#: number of models fused per stacked dispatch on the ``model_axis`` backend
#: (and the size of the copy groups trial replay builds there); bounds the
#: resident weight stacks and per-layer activation tensors to this many
#: times one model's footprint
DEFAULT_MAX_MODELS = 16


# Restacking weights per call costs O(M · P) copies — noise next to the
# forward/backward work the stack then amortises across the batch.
def fused_stacked_forward(
    models: Sequence[Sequential],
    x: np.ndarray,
    base: Sequential,
    trunk: Tuple[np.ndarray, ...],
) -> np.ndarray:
    """Logits of same-architecture ``models`` on ``x``: ``(M, N, num_classes)``.

    ``base`` is the unperturbed victim the models were derived from and
    ``trunk`` its per-layer activations on ``x`` (``trunk[k]`` feeds layer
    ``k``, ``trunk[-1]`` is the logits; see
    :class:`~repro.engine.cache.TrunkCache`).  Each copy runs from its first
    divergent layer on, fused with every copy that diverges at the same
    layer; slice ``m`` equals ``models[m].forward(x)`` bit for bit.  Every
    model must share ``base``'s architecture signature; the caller checks
    that (:meth:`~repro.engine.engine.Engine.stacked_forward` does, once per
    model), and the stacks built here do not check it again.
    """
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
            group = StackedSequential._of_checked([models[i] for i in indices], start=split)
            result[indices] = group.forward(trunk[split])
    return result


__all__ = ["DEFAULT_MAX_MODELS", "first_divergence", "fused_stacked_forward"]
