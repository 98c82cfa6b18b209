"""Parameter-perturbation attacks used to evaluate the validation scheme.

Attack families register in the ``attacks`` namespace of the
cross-subsystem :mod:`repro.registry`.  Each registered factory is called as
``factory(reference_inputs, rng=..., **knobs)`` — input-independent attacks
simply ignore ``reference_inputs`` — and its knob declaration maps the
factory's keyword arguments onto the :class:`~repro.campaign.CampaignSpec`
fields that feed them, so a registered third-party attack is immediately
sweepable by campaigns without touching the runner.
"""

from typing import Optional

import numpy as np

from repro.registry import register
from repro.utils.rng import RngLike

from repro.attacks.base import (
    AttackOutcome,
    ParameterAttack,
    PerturbationRecord,
    apply_record,
    bias_flat_indices,
    revert_record,
    weight_flat_indices,
)
from repro.attacks.bitflip import BitFlipAttack, flip_bit
from repro.attacks.gda import GradientDescentAttack
from repro.attacks.random_noise import RandomPerturbation
from repro.attacks.sba import SingleBiasAttack


@register(
    "attacks",
    "sba",
    knobs={"magnitude": "sba_magnitude"},
    summary="single bias attack: one bias shifted by a fixed magnitude",
)
def _sba(
    reference_inputs: Optional[np.ndarray],
    rng: RngLike = None,
    magnitude: float = 10.0,
) -> ParameterAttack:
    return SingleBiasAttack(
        magnitude=magnitude, reference_inputs=reference_inputs, rng=rng
    )


@register(
    "attacks",
    "gda",
    knobs={"num_parameters": "gda_parameters"},
    summary="gradient-descent attack: loss-guided shifts of a few parameters",
)
def _gda(
    reference_inputs: Optional[np.ndarray],
    rng: RngLike = None,
    num_parameters: int = 20,
) -> ParameterAttack:
    if reference_inputs is None:
        raise ValueError("the gda attack requires reference inputs")
    return GradientDescentAttack(
        target_inputs=reference_inputs, num_parameters=num_parameters, rng=rng
    )


@register(
    "attacks",
    "random",
    knobs={
        "num_parameters": "random_parameters",
        "relative_std": "random_relative_std",
    },
    summary="gaussian noise on a few randomly chosen parameters",
)
def _random(
    reference_inputs: Optional[np.ndarray],
    rng: RngLike = None,
    num_parameters: int = 10,
    relative_std: float = 2.0,
) -> ParameterAttack:
    return RandomPerturbation(
        num_parameters=num_parameters, relative_std=relative_std, rng=rng
    )


@register(
    "attacks",
    "bitflip",
    summary="single IEEE-754 mantissa/exponent bit flip in one parameter",
)
def _bitflip(
    reference_inputs: Optional[np.ndarray],
    rng: RngLike = None,
) -> ParameterAttack:
    return BitFlipAttack(num_parameters=1, rng=rng)


__all__ = [
    "AttackOutcome",
    "ParameterAttack",
    "PerturbationRecord",
    "apply_record",
    "bias_flat_indices",
    "revert_record",
    "weight_flat_indices",
    "BitFlipAttack",
    "flip_bit",
    "GradientDescentAttack",
    "RandomPerturbation",
    "SingleBiasAttack",
]
