"""Parameter container for the NumPy neural-network substrate.

The framework is layer-based rather than tape-based: each layer implements an
explicit ``forward``/``backward`` pair, and learnable state is held in
:class:`Parameter` objects that carry values only.  Everything the paper's
method needs — parameter gradients for the coverage metric and the GDA
attack, input gradients for the gradient-based test generation — is
returned by these explicit backward passes to the caller that asked.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np


def bit_pattern(array: np.ndarray) -> np.ndarray:
    """The raw bits of a float array, as unsigned integers of its width.

    A view, with no copy for a contiguous array.  Comparing bit patterns is
    the exact identity test for parameter values: unlike ``==`` it tells
    ``-0.0`` from ``0.0`` (and a NaN equals itself).
    """
    array = np.ascontiguousarray(array)
    return array.view(np.dtype(f"u{array.dtype.itemsize}"))


class Parameter:
    """A learnable tensor.

    Attributes
    ----------
    value:
        The parameter values, a float64 ndarray.
    name:
        Human-readable identifier, e.g. ``"conv1/weight"``.  Names are used by
        the serialisation code, the coverage bookkeeping and the attacks to
        refer to individual parameter tensors.
    trainable:
        Frozen parameters are skipped by optimisers but still participate in
        coverage accounting (a frozen-but-perturbed weight still corrupts the
        output).
    """

    __slots__ = ("value", "name", "trainable")

    def __init__(
        self,
        value: np.ndarray,
        name: str = "param",
        trainable: bool = True,
    ) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name
        self.trainable = trainable

    # -- basic protocol ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        """Number of scalar parameters in this tensor."""
        return int(self.value.size)

    def copy(self) -> "Parameter":
        """Deep copy of the value."""
        return Parameter(self.value.copy(), name=self.name, trainable=self.trainable)

    def assign(self, new_value: np.ndarray) -> None:
        """Overwrite the parameter value, checking shape compatibility."""
        new_value = np.asarray(new_value, dtype=np.float64)
        if new_value.shape != self.value.shape:
            raise ValueError(
                f"cannot assign shape {new_value.shape} to parameter "
                f"{self.name!r} of shape {self.value.shape}"
            )
        self.value = new_value.copy()

    def add_(self, delta: np.ndarray) -> None:
        """Add ``delta`` to the parameter value in place (used by attacks)."""
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != self.value.shape:
            raise ValueError(
                f"delta shape {delta.shape} does not match parameter "
                f"{self.name!r} shape {self.value.shape}"
            )
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class ParameterView:
    """A flattened, indexed view over an ordered list of parameters.

    The coverage metric and the attacks both need to address "parameter ``i``
    of the whole network" where ``i`` runs over every scalar weight and bias.
    ``ParameterView`` provides the mapping between this flat index space and
    the per-tensor layout.
    """

    def __init__(self, parameters: List[Parameter]) -> None:
        if not parameters:
            raise ValueError("ParameterView needs at least one parameter")
        self._params = list(parameters)
        sizes = [p.size for p in self._params]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)])

    # -- sizing ------------------------------------------------------------
    @property
    def total_size(self) -> int:
        """Total number of scalar parameters across all tensors."""
        return int(self._offsets[-1])

    @property
    def parameters(self) -> List[Parameter]:
        return list(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    # -- flat value access ----------------------------------------------------
    def flat_values(self) -> np.ndarray:
        """Concatenate all parameter values into one flat vector (copy)."""
        return np.concatenate([p.value.ravel() for p in self._params])

    def set_flat_values(self, flat: np.ndarray) -> None:
        """Scatter a flat vector back into the individual parameter tensors."""
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if flat.size != self.total_size:
            raise ValueError(
                f"flat vector has {flat.size} entries, expected {self.total_size}"
            )
        for i, p in enumerate(self._params):
            lo, hi = self._offsets[i], self._offsets[i + 1]
            p.value = flat[lo:hi].reshape(p.value.shape).copy()

    # -- flat index mapping --------------------------------------------------
    def locate(self, flat_index: int) -> Tuple[int, Tuple[int, ...]]:
        """Map a flat parameter index to ``(tensor_index, within-tensor index)``."""
        if not 0 <= flat_index < self.total_size:
            raise IndexError(
                f"flat index {flat_index} out of range [0, {self.total_size})"
            )
        tensor_idx = int(np.searchsorted(self._offsets, flat_index, side="right") - 1)
        local = flat_index - int(self._offsets[tensor_idx])
        shape = self._params[tensor_idx].value.shape
        return tensor_idx, tuple(np.unravel_index(local, shape))

    def get_scalar(self, flat_index: int) -> float:
        """Read the scalar parameter at ``flat_index``."""
        t, idx = self.locate(flat_index)
        return float(self._params[t].value[idx])

    def set_scalar(self, flat_index: int, value: float) -> None:
        """Overwrite the scalar parameter at ``flat_index``."""
        t, idx = self.locate(flat_index)
        self._params[t].value[idx] = float(value)

    def add_scalar(self, flat_index: int, delta: float) -> None:
        """Add ``delta`` to the scalar parameter at ``flat_index``."""
        t, idx = self.locate(flat_index)
        self._params[t].value[idx] += float(delta)

    def tensor_slices(self) -> List[Tuple[str, int, int]]:
        """Return ``(name, start, stop)`` flat-index ranges per tensor."""
        out = []
        for i, p in enumerate(self._params):
            out.append((p.name, int(self._offsets[i]), int(self._offsets[i + 1])))
        return out


__all__ = ["Parameter", "ParameterView", "bit_pattern"]
