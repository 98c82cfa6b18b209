"""Single Bias Attack (SBA) — Liu et al., ICCAD 2017.

SBA modifies exactly one bias parameter with a large perturbation so that the
network misclassifies some inputs.  Biases are attractive targets because a
bias feeds every spatial position of its feature map (convolution) or its
whole unit (dense), so a single large change can swing decisions while the
stored model differs from the original in only one value.

This implementation follows the spirit of the original attack under black-box
evaluation constraints:

1. pick a bias parameter at random (optionally restricted to a layer);
2. add a large perturbation whose magnitude is a multiple of the parameter
   tensor's value scale;
3. optionally verify against a batch of reference inputs that the perturbed
   model actually changes some predictions, retrying with a different bias /
   larger magnitude otherwise (mirroring the attacker's goal of causing
   misclassification rather than a silent change).

The flip check reads the victim's activations on the reference inputs (its
trunk, see :class:`~repro.engine.cache.TrunkCache`) and re-runs only the
layers from the perturbed bias's layer on; a failed attempt restores the
saved value, so the copy differs from the victim in the recorded index alone
and :func:`~repro.attacks.base.apply_record` rebuilds it exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.attacks.base import ParameterAttack, PerturbationRecord, bias_flat_indices
from repro.engine.cache import TrunkCache
from repro.nn.model import PREDICT_BATCH_SIZE, Sequential
from repro.nn.tensor import ParameterView
from repro.utils.rng import RngLike


class SingleBiasAttack(ParameterAttack):
    """Perturb one bias parameter by a large amount.

    Parameters
    ----------
    magnitude:
        Size of the injected perturbation, expressed as a multiple of the
        victim parameter tensor's root-mean-square value (with an absolute
        floor so zero-initialised biases still receive a large fault).
    reference_inputs:
        Optional batch of inputs; when given, the attack retries (up to
        ``max_attempts``) until the perturbation flips at least one
        prediction on this batch, doubling the magnitude on each retry.
    max_attempts:
        Retry budget when ``reference_inputs`` is provided.
    """

    attack_name = "sba"

    def __init__(
        self,
        magnitude: float = 10.0,
        reference_inputs: Optional[np.ndarray] = None,
        max_attempts: int = 5,
        rng: RngLike = None,
    ) -> None:
        super().__init__(rng)
        if magnitude <= 0:
            raise ValueError("magnitude must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.magnitude = float(magnitude)
        self.reference_inputs = (
            None if reference_inputs is None else np.asarray(reference_inputs)
        )
        self.max_attempts = int(max_attempts)

    @staticmethod
    def _candidate_scale(view: ParameterView, flat_index: int, weights_rms: float) -> float:
        """Value scale of the tensor owning ``flat_index``, floored at the
        whole model's RMS ``weights_rms`` and at 0.1."""
        values = view.parameters[view.locate(flat_index)[0]].value
        rms = float(np.sqrt(np.mean(values**2)))
        return max(rms, weights_rms, 0.1)

    def _perturb(self, model: Sequential) -> PerturbationRecord:
        biases = bias_flat_indices(model)
        if biases.size == 0:
            raise ValueError("model has no bias parameters to attack")
        view = model.parameter_view()

        trunks = None
        if self.reference_inputs is not None:
            # ``model`` is still bitwise the victim: its trunks on the
            # reference inputs (shared by every attack of a factory set) give
            # the baseline, and each attempt runs only from its bias's layer
            memo = self.trunks if self.trunks is not None else TrunkCache()
            # chunked as ``predict_classes`` chunks, so the classes are its own
            trunks = memo.get(model, self.reference_inputs, PREDICT_BATCH_SIZE)
            baseline = _classes_from(model, trunks, len(model.layers))
            layer_of = [
                idx for idx, layer in enumerate(model.layers) for _ in layer.parameters()
            ]

        # every failed attempt restores its value bit for bit, so the whole
        # model's RMS is the same for all of them
        weights_rms = float(np.sqrt(np.mean(view.flat_values() ** 2)))
        magnitude = self.magnitude
        # this draw is never used, but removing it would shift every trial's
        # random stream (and so every recorded SBA perturbation)
        self._rng.choice(biases)
        for attempt in range(self.max_attempts):
            chosen = int(self._rng.choice(biases))
            scale = self._candidate_scale(view, chosen, weights_rms)
            sign = 1.0 if self._rng.random() < 0.5 else -1.0
            delta = sign * magnitude * scale
            original = view.get_scalar(chosen)
            view.add_scalar(chosen, delta)
            if trunks is None:
                break
            start = layer_of[view.locate(chosen)[0]]
            if np.any(_classes_from(model, trunks, start) != baseline):
                break
            # restore the saved value — ``(b + δ) − δ`` need not be ``b`` —
            # and retry with a larger fault on a different bias
            view.set_scalar(chosen, original)
            magnitude *= 2.0
        else:
            # out of attempts: keep the last (already restored) choice applied
            view.add_scalar(chosen, delta)

        return self._record(view, [chosen], [delta], {"magnitude": magnitude})


def _classes_from(
    model: Sequential, trunks: List[Tuple[np.ndarray, ...]], start: int
) -> np.ndarray:
    """Predicted classes of ``model`` on the trunks' inputs, running only
    layers ``start`` onwards (every earlier layer must equal the trunks'
    model bit for bit).  An inference pass: nothing stays on ``model``."""
    return np.concatenate(
        [np.argmax(model._run(trunk[start], start=start), axis=1) for trunk in trunks]
    )


__all__ = ["SingleBiasAttack"]
