"""Experiment configuration dataclasses and table-file loading.

:class:`TrainingConfig` and :class:`DetectionConfig` gather the knobs of the
paper's training runs and detection-rate experiments (Section V) so examples,
tests and benchmarks share one definition of each.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

PathLike = Union[str, Path]


def toml_loads(text: str) -> Dict[str, object]:
    """Parse TOML via stdlib :mod:`tomllib` (3.11+) or the tomli backport."""
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - py<3.11 only
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ModuleNotFoundError as exc:
            raise RuntimeError(
                "TOML files need Python >= 3.11 (tomllib) or the tomli "
                "backport; use a .json file otherwise"
            ) from exc
    return tomllib.loads(text)


def load_table_data(path: PathLike, table: str, kind: str = "file") -> Dict[str, object]:
    """TOML/JSON loading shared by campaign specs and the façade objects.

    Fields live either all inside a ``[table]`` table (self-documenting TOML
    files) or all at the top level — never split across both, or a key typed
    above the table header would silently fall back to its default.
    ``kind`` names the file's role in error messages (``"spec"``,
    ``"config"``, ...).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".toml":
        data = toml_loads(text)
    elif path.suffix == ".json":
        data = json.loads(text)
    else:
        raise ValueError(
            f"unsupported {kind} format {path.suffix!r}; use .toml or .json"
        )
    if table in data and isinstance(data[table], dict):
        stray = sorted(set(data) - {table})
        if stray:
            raise ValueError(
                f"{kind} keys {stray} found outside the [{table}] table; "
                "move them inside it"
            )
        data = data[table]
    return data


def env_int(name: str, default: int) -> int:
    """Integer knob from the environment, falling back to ``default``.

    The examples read their expensive knobs (training-set size, epochs,
    candidate pool, trial counts) through this, so the CI examples-smoke job
    can shrink them (``REPRO_EXAMPLE_*``) without forking the scripts.
    """
    value = os.environ.get(name)
    if value is None or value == "":
        return default
    try:
        return int(value)
    except ValueError as exc:
        raise ValueError(
            f"environment variable {name} must be an integer, got {value!r}"
        ) from exc


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters for training a model from the zoo."""

    epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    weight_decay: float = 0.0
    shuffle: bool = True
    early_stop_accuracy: Optional[float] = None
    seed: int = 0

    def validate(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in {"sgd", "momentum", "adam"}:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of the detection-rate experiments (Tables II and III)."""

    #: number of independent perturbation trials per (attack, N) cell.  The
    #: paper uses 10 000; the scaled default keeps CPU runtime reasonable.
    trials: int = 200
    #: test budgets N evaluated (rows of Tables II/III).
    test_budgets: Tuple[int, ...] = (10, 20, 30, 40, 50)
    #: attacks evaluated (columns of Tables II/III).
    attacks: Tuple[str, ...] = ("sba", "gda", "random")
    #: absolute tolerance when comparing IP outputs to reference outputs.
    output_atol: float = 1e-6
    seed: int = 0

    def validate(self) -> None:
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if not self.test_budgets:
            raise ValueError("test_budgets must not be empty")
        if any(n <= 0 for n in self.test_budgets):
            raise ValueError("test budgets must be positive")
        known = {"sba", "gda", "random", "bitflip"}
        unknown = set(self.attacks) - known
        if unknown:
            raise ValueError(f"unknown attacks: {sorted(unknown)}")


__all__ = [
    "load_table_data",
    "toml_loads",
    "TrainingConfig",
    "DetectionConfig",
    "env_int",
]
