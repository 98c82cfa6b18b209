"""Parameter-perturbation threat models.

The paper's validation scheme is evaluated against attacks that modify model
parameters in the deployed IP (Section V-C): the single bias attack and the
gradient descent attack of Liu et al. (ICCAD 2017), plus random Gaussian
perturbations.  Each attack here produces a *perturbed copy* of the victim
model together with a record of what was changed, so detection experiments
can measure whether a given set of functional tests exposes the change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.engine.cache import TrunkCache
from repro.nn.model import Sequential
from repro.nn.tensor import ParameterView
from repro.utils.rng import RngLike, as_generator


@dataclass
class PerturbationRecord:
    """What an attack changed.

    Attributes
    ----------
    attack: name of the attack ("sba", "gda", "random", "bitflip").
    flat_indices: flat parameter indices that were modified.
    deltas: value added to each modified parameter (new − old).
    parameter_names: the owning parameter-tensor name per modified index.
    metadata: attack-specific extras (e.g. the SBA target magnitude).
    values: the value the attack wrote to each modified parameter, or
        ``None`` for a record that knows only its deltas.  Adding a delta
        back need not give the written value (``o + (f − o)`` may round
        away from ``f``), so :func:`apply_record` writes ``values`` when
        they are known; every built-in attack fills them.
    """

    attack: str
    flat_indices: np.ndarray
    deltas: np.ndarray
    parameter_names: List[str] = field(default_factory=list)
    metadata: Dict[str, float] = field(default_factory=dict)
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.flat_indices = np.asarray(self.flat_indices, dtype=np.int64)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=np.float64)
        for name in ("deltas", "values"):
            array = getattr(self, name)
            if array is not None and array.shape != self.flat_indices.shape:
                raise ValueError(
                    f"flat_indices and {name} must have the same shape, got "
                    f"{self.flat_indices.shape} and {array.shape}"
                )

    @property
    def num_modified(self) -> int:
        """Number of scalar parameters the attack touched."""
        return int(self.flat_indices.size)

    @property
    def max_abs_delta(self) -> float:
        """Largest absolute change applied to any parameter."""
        if self.deltas.size == 0:
            return 0.0
        return float(np.max(np.abs(self.deltas)))

    @property
    def l2_norm(self) -> float:
        """Euclidean norm of the full perturbation vector."""
        return float(np.linalg.norm(self.deltas))

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form, for audit logs and out-of-band replay
        (round-trip through :meth:`from_dict` + :func:`apply_record`).
        Floats serialise by ``repr``, so ``values`` and ``deltas`` come back
        bit for bit and the replayed copy is the attack's own; ``values``
        is ``None`` for a record without them."""
        return {
            "attack": self.attack,
            "flat_indices": [int(i) for i in self.flat_indices],
            "deltas": [float(d) for d in self.deltas],
            "parameter_names": list(self.parameter_names),
            "metadata": {k: float(v) for k, v in self.metadata.items()},
            "values": None if self.values is None else [float(v) for v in self.values],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PerturbationRecord":
        """Rebuild a record serialised with :meth:`to_dict`."""
        return cls(
            attack=str(data["attack"]),
            flat_indices=np.asarray(data["flat_indices"], dtype=np.int64),
            deltas=np.asarray(data["deltas"], dtype=np.float64),
            parameter_names=list(data.get("parameter_names", [])),  # type: ignore[arg-type]
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
            values=data.get("values"),  # type: ignore[arg-type]
        )


@dataclass
class AttackOutcome:
    """A perturbed model plus the record of its perturbation."""

    model: Sequential
    record: PerturbationRecord


class ParameterAttack:
    """Base class: an attack perturbs the parameters of a model copy."""

    #: short name used in detection-rate tables
    attack_name: str = "base"

    #: memo of victims' per-layer activations the attack may read instead of
    #: re-running the victim (SBA's flip check does); the attacks of one
    #: :func:`~repro.validation.detection.default_attack_factories` set share
    #: one, so the victim's side of a trial is computed once per set
    trunks: Optional[TrunkCache] = None

    def __init__(self, rng: RngLike = None) -> None:
        self._rng = as_generator(rng)

    def apply(self, model: Sequential) -> AttackOutcome:
        """Return a perturbed copy of ``model`` and the perturbation record.

        The input model is never modified.
        """
        victim = model.copy()
        record = self._perturb(victim)
        return AttackOutcome(model=victim, record=record)

    def _perturb(self, model: Sequential) -> PerturbationRecord:
        """Modify ``model`` in place and describe the modification."""
        raise NotImplementedError

    def _record(
        self,
        view: ParameterView,
        flat_indices: np.ndarray,
        deltas: np.ndarray,
        metadata: Dict[str, float],
    ) -> PerturbationRecord:
        """The record of a perturbation already written through ``view``:
        each index's owning tensor name and the value the copy now holds
        there are read back from the view."""
        flat_indices = np.asarray(flat_indices, dtype=np.int64)
        parameters = view.parameters
        names: List[str] = []
        values = np.empty(flat_indices.shape, dtype=np.float64)
        for j, idx in enumerate(flat_indices):
            tensor, local = view.locate(int(idx))
            names.append(parameters[tensor].name)
            values[j] = parameters[tensor].value[local]
        return PerturbationRecord(
            attack=self.attack_name,
            flat_indices=flat_indices,
            deltas=deltas,
            parameter_names=names,
            metadata=metadata,
            values=values,
        )


def apply_record(model: Sequential, record: PerturbationRecord) -> Sequential:
    """Apply a previously captured perturbation record to a copy of ``model``.

    Useful for replaying the exact same fault against several defence
    configurations.  A record with ``values`` writes them, so applying an
    attack's record to its victim rebuilds the attack's copy bit for bit;
    a record without them adds its ``deltas``.
    """
    victim = model.copy()
    view = victim.parameter_view()
    if record.values is None:
        for idx, delta in zip(record.flat_indices, record.deltas):
            view.add_scalar(int(idx), float(delta))
    else:
        for idx, value in zip(record.flat_indices, record.values):
            view.set_scalar(int(idx), float(value))
    return victim


def revert_record(model: Sequential, record: PerturbationRecord) -> Sequential:
    """Subtract a record's ``deltas`` from a copy of ``model``.

    Approximate: ``(o + δ) − δ`` need not be ``o``, and a bit flip's delta
    need not invert it, so the result can differ from the attack's victim
    in the low bits.  The victim itself is the exact original.
    """
    victim = model.copy()
    view = victim.parameter_view()
    for idx, delta in zip(record.flat_indices, record.deltas):
        view.add_scalar(int(idx), -float(delta))
    return victim


def bias_flat_indices(model: Sequential) -> np.ndarray:
    """Flat indices of every bias parameter (used by the single bias attack)."""
    view = model.parameter_view()
    indices: List[int] = []
    for name, start, stop in view.tensor_slices():
        if name.endswith("/bias"):
            indices.extend(range(start, stop))
    return np.asarray(indices, dtype=np.int64)


def weight_flat_indices(model: Sequential) -> np.ndarray:
    """Flat indices of every weight (non-bias) parameter."""
    view = model.parameter_view()
    indices: List[int] = []
    for name, start, stop in view.tensor_slices():
        if not name.endswith("/bias"):
            indices.extend(range(start, stop))
    return np.asarray(indices, dtype=np.int64)


__all__ = [
    "PerturbationRecord",
    "AttackOutcome",
    "ParameterAttack",
    "apply_record",
    "revert_record",
    "bias_flat_indices",
    "weight_flat_indices",
]
