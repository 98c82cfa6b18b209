"""Bit-flip fault model (extension beyond the paper's evaluation).

Hardware fault-injection work (and the laser-fault-injection attack the paper
cites, Breier et al. 2018) often models faults as single bit flips in the
stored parameter words rather than additive noise.  This attack flips a chosen
bit of the IEEE-754 representation of randomly selected parameters, giving the
detection experiments a harsher, more hardware-realistic fault model:

* flipping a high exponent bit produces an enormous change (easy to detect if
  the parameter is covered at all);
* flipping a low mantissa bit produces a minuscule change (hard to detect even
  with full coverage — useful for studying the detection-threshold tradeoff).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.attacks.base import ParameterAttack, PerturbationRecord
from repro.nn.model import Sequential
from repro.utils.rng import RngLike


def flip_bit(value: float, bit: int) -> float:
    """Flip one bit (0 = LSB of the mantissa, 63 = sign) of a float64 value."""
    if not 0 <= bit <= 63:
        raise ValueError("bit must be in [0, 63]")
    as_int = np.float64(value).view(np.uint64)
    flipped = as_int ^ np.uint64(1 << bit)
    result = flipped.view(np.float64)
    return float(result)


class BitFlipAttack(ParameterAttack):
    """Flip a bit in the binary representation of randomly chosen parameters.

    Parameters
    ----------
    num_parameters: how many parameters receive a bit flip.
    bits: candidate bit positions (float64 layout: 0-51 mantissa, 52-62
        exponent, 63 sign).  Defaults to the upper mantissa / lower exponent
        region, which produces large-but-finite changes.
    avoid_nonfinite: redraw the bit if the flip produces NaN/Inf (keeps the
        perturbed model evaluable, which the detection harness requires).
    """

    attack_name = "bitflip"

    def __init__(
        self,
        num_parameters: int = 1,
        bits: Optional[Sequence[int]] = None,
        avoid_nonfinite: bool = True,
        rng: RngLike = None,
    ) -> None:
        super().__init__(rng)
        if num_parameters <= 0:
            raise ValueError("num_parameters must be positive")
        self.num_parameters = int(num_parameters)
        self.bits = tuple(bits) if bits is not None else tuple(range(48, 60))
        if not self.bits or any(not 0 <= b <= 63 for b in self.bits):
            raise ValueError("bits must be a non-empty sequence of positions in [0, 63]")
        self.avoid_nonfinite = bool(avoid_nonfinite)

    def _perturb(self, model: Sequential) -> PerturbationRecord:
        view = model.parameter_view()
        total = view.total_size
        k = min(self.num_parameters, total)
        chosen = self._rng.choice(total, size=k, replace=False)

        deltas = np.zeros(k, dtype=np.float64)
        flipped_bits = []
        for j, idx in enumerate(chosen):
            original = view.get_scalar(int(idx))
            for _ in range(16):
                bit = int(self._rng.choice(self.bits))
                new_value = flip_bit(original, bit)
                if not self.avoid_nonfinite or np.isfinite(new_value):
                    break
            else:
                # fall back to a sign flip, which is always finite
                bit = 63
                new_value = flip_bit(original, bit)
            view.set_scalar(int(idx), new_value)
            deltas[j] = new_value - original
            flipped_bits.append(bit)

        return self._record(
            view,
            chosen,
            deltas,
            {"bits": float(flipped_bits[0]) if flipped_bits else -1.0},
        )


__all__ = ["BitFlipAttack", "flip_bit"]
