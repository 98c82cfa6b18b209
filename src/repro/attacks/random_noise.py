"""Random parameter perturbations (the "Random" column of Tables II/III).

The paper's third threat model is not adversarial at all: Gaussian noise is
added to model parameters, standing in for memory corruption, transmission
errors or sloppy post-processing of the shipped IP.  The perturbation touches
a configurable number of randomly chosen parameters with noise scaled to the
parameter distribution — touching only a handful of parameters is what makes
detection non-trivial and separates good test sets from poor ones.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import ParameterAttack, PerturbationRecord
from repro.nn.model import Sequential
from repro.utils.rng import RngLike


class RandomPerturbation(ParameterAttack):
    """Add Gaussian noise to a random subset of parameters.

    Parameters
    ----------
    num_parameters:
        How many randomly chosen parameters receive noise.
    relative_std:
        Noise standard deviation as a multiple of the overall parameter RMS
        value (so the perturbation is meaningful regardless of model scale).
    """

    attack_name = "random"

    def __init__(
        self,
        num_parameters: int = 10,
        relative_std: float = 2.0,
        rng: RngLike = None,
    ) -> None:
        super().__init__(rng)
        if num_parameters <= 0:
            raise ValueError("num_parameters must be positive")
        if relative_std <= 0:
            raise ValueError("relative_std must be positive")
        self.num_parameters = int(num_parameters)
        self.relative_std = float(relative_std)

    def _perturb(self, model: Sequential) -> PerturbationRecord:
        view = model.parameter_view()
        total = view.total_size
        k = min(self.num_parameters, total)
        chosen = self._rng.choice(total, size=k, replace=False)

        flat = view.flat_values()
        scale = max(float(np.sqrt(np.mean(flat**2))), 1e-3)
        deltas = self._rng.normal(0.0, self.relative_std * scale, size=k)
        # write only the chosen entries (``chosen`` has no repeats)
        for idx, value in zip(chosen, flat[chosen] + deltas):
            view.set_scalar(int(idx), value)
        return self._record(view, chosen, deltas, {"relative_std": self.relative_std})


__all__ = ["RandomPerturbation"]
