"""Gradient Descent Attack (GDA) — Liu et al., ICCAD 2017.

Where SBA makes one large, easily spotted change, GDA aims for *stealth*: it
spreads small perturbations over a limited set of parameters, chosen and
scaled by gradient information, so that a chosen input is misclassified while
the overall parameter statistics barely move.

Implementation: given a target input ``x`` with (current) label ``y``, perform
a few steps of gradient *ascent* on the classification loss with respect to
the parameters, restricted to the ``num_parameters`` entries with the largest
gradient magnitude, and clip the total per-parameter change to
``max_relative_change`` times the parameter scale.  The attack succeeds when
the perturbed model assigns ``x`` a different class.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.base import ParameterAttack, PerturbationRecord
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.utils.rng import RngLike


class GradientDescentAttack(ParameterAttack):
    """Stealthy multi-parameter fault injection guided by loss gradients.

    Parameters
    ----------
    target_inputs:
        Pool of candidate inputs; each attack instance picks one at random and
        tries to make the model misclassify it.
    num_parameters:
        Number of parameters the perturbation is restricted to (the
        stealthiness knob — fewer touched parameters, harder to detect).
    step_size:
        Gradient-ascent step size, relative to the parameter scale.
    max_steps:
        Maximum number of ascent steps.
    max_relative_change:
        Cap on the absolute change of any single parameter, as a multiple of
        the overall parameter RMS value.
    """

    attack_name = "gda"

    def __init__(
        self,
        target_inputs: np.ndarray,
        num_parameters: int = 20,
        step_size: float = 0.5,
        max_steps: int = 10,
        max_relative_change: float = 2.0,
        rng: RngLike = None,
    ) -> None:
        super().__init__(rng)
        target_inputs = np.ascontiguousarray(target_inputs, dtype=np.float64)
        if target_inputs.ndim < 2 or target_inputs.shape[0] == 0:
            raise ValueError("target_inputs must be a non-empty batch")
        if num_parameters <= 0:
            raise ValueError("num_parameters must be positive")
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if max_steps <= 0:
            raise ValueError("max_steps must be positive")
        if max_relative_change <= 0:
            raise ValueError("max_relative_change must be positive")
        self.target_inputs = target_inputs
        self.num_parameters = int(num_parameters)
        self.step_size = float(step_size)
        self.max_steps = int(max_steps)
        self.max_relative_change = float(max_relative_change)

    def _perturb(self, model: Sequential) -> PerturbationRecord:
        idx = int(self._rng.integers(0, self.target_inputs.shape[0]))
        x = self.target_inputs[idx : idx + 1]
        view = model.parameter_view()
        flat = view.flat_values()
        scale = max(float(np.sqrt(np.mean(flat**2))), 1e-3)

        # the model's parameters change on every ascent step, so query it
        # directly: a memo key would never repeat
        loss_fn = SoftmaxCrossEntropy()
        label = int(np.argmax(model.forward(x), axis=1)[0])
        targets = np.array([label])

        # pick the parameters with the largest loss gradient for this input
        _, grads = model.loss_parameter_gradients(x, targets, loss_fn)
        k = min(self.num_parameters, grads.size)
        chosen = np.argsort(-np.abs(grads))[:k]

        original = flat[chosen]
        values = original.copy()
        limit = self.max_relative_change * scale
        for step in range(self.max_steps):
            if step:
                # the first step ascends the gradient that chose the parameters
                _, grads = model.loss_parameter_gradients(x, targets, loss_fn)

            values += self.step_size * scale * np.sign(grads[chosen])
            # keep the perturbation bounded for stealth
            values = np.clip(values, original - limit, original + limit)
            for i, value in zip(chosen, values):
                view.set_scalar(int(i), value)

            if int(np.argmax(model.forward(x), axis=1)[0]) != label:
                break

        deltas = values - original
        # drop parameters the clipping left untouched
        touched = np.abs(deltas) > 0
        return self._record(
            view,
            chosen[touched],
            deltas[touched],
            {"target_index": float(idx), "original_label": float(label)},
        )


__all__ = ["GradientDescentAttack"]
