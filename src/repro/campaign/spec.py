"""Declarative campaign specifications and their scenario expansion.

A :class:`CampaignSpec` names the *axes* of an evaluation sweep — attacks ×
models × coverage criteria × test-generation strategies × test budgets — plus
the shared preparation knobs (training sizes, trial counts, attack
magnitudes).  :meth:`CampaignSpec.expand` turns the spec into the
deterministic cross-product of :class:`Scenario` objects, each carrying

* a **seed** derived from the spec seed and the scenario's axis coordinates
  through SHA-256 (stable across processes, machines and Python hash
  randomisation), and
* a **digest** binding the coordinates, the seed, every outcome-relevant
  shared knob and the code-relevant versions together.  The digest is the
  primary key of the result store: a completed scenario is skipped on resume
  precisely when *nothing that could change its outcome* has changed.

Specs load from TOML (Python ≥ 3.11 via :mod:`tomllib`) or JSON files; both
map 1:1 onto the dataclass fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, Path]

#: bump when scenario execution semantics change incompatibly — completed
#: store entries stop matching and campaigns re-run affected scenarios
SCENARIO_SCHEMA_VERSION = 1

#: builtin model axis values (the full set is dynamic: any registry dataset
#: with an experiment recipe — see repro.analysis.preparable_datasets)
MODEL_NAMES = ("mnist", "cifar")


def _stable_digest(payload: Dict[str, object]) -> str:
    """SHA-256 hex digest of a canonical-JSON-encoded payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: throwaway model for syntax-checking criterion names at validate() time,
#: built once — specs are validated at load, expand and runner construction
_CRITERION_PROBE = None


def _criterion_probe():
    global _CRITERION_PROBE
    if _CRITERION_PROBE is None:
        from repro.models.zoo import small_mlp

        _CRITERION_PROBE = small_mlp(input_features=4, hidden_units=4, num_classes=2, depth=1)
    return _CRITERION_PROBE


def derive_scenario_seed(spec_seed: int, *coordinates: object) -> int:
    """Deterministic 63-bit seed for one scenario of a campaign.

    Uses SHA-256 over the textual coordinates instead of Python's ``hash``
    so the same spec yields the same seeds in every process — resumed and
    re-sharded campaigns replay identical randomness.
    """
    text = "|".join([str(int(spec_seed))] + [str(c) for c in coordinates])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


@dataclass(frozen=True)
class Scenario:
    """One fully-determined cell of a campaign's cross-product.

    The five axis coordinates identify the cell; ``seed`` is the derived
    per-scenario seed and ``digest`` the store key (both computed by
    :meth:`CampaignSpec.expand`, never supplied by hand).
    """

    model: str
    attack: str
    criterion: str
    strategy: str
    budget: int
    seed: int
    digest: str

    @property
    def key(self) -> Tuple[str, str, str, str, int]:
        """Axis coordinates only (no seed/digest), for grouping and sorting."""
        return (self.model, self.attack, self.criterion, self.strategy, self.budget)

    def axes_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "attack": self.attack,
            "criterion": self.criterion,
            "strategy": self.strategy,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative attack × model × criterion × strategy × budget sweep.

    Axis fields enumerate the cross-product; the remaining fields are shared
    preparation knobs that apply to every scenario.  All fields participate
    in the scenario digests except ``name`` (a label, not an input).
    """

    # -- axes ---------------------------------------------------------------
    attacks: Tuple[str, ...] = ("sba", "gda", "random", "bitflip")
    models: Tuple[str, ...] = ("mnist", "cifar")
    criteria: Tuple[str, ...] = ("default",)
    strategies: Tuple[str, ...] = ("combined",)
    budgets: Tuple[int, ...] = (10, 20, 30)

    # -- shared knobs -------------------------------------------------------
    name: str = "campaign"
    seed: int = 0
    #: perturbation trials per scenario (paired across criteria/strategies/
    #: budgets of the same (model, attack), as in Tables II/III)
    trials: int = 50
    #: training-set / held-out sizes for the per-model preparation step
    train_size: int = 300
    test_size: int = 80
    epochs: int = 6
    width_multiplier: float = 0.125
    #: candidate pool scanned by the selection-based strategies
    candidate_pool: Optional[int] = 100
    #: gradient-descent updates of Algorithm 2 (combined/gradient strategies)
    gradient_updates: int = 30
    #: reference inputs handed to the input-dependent attacks (SBA, GDA)
    reference_inputs: int = 16
    #: attack magnitudes (see validation.detection.default_attack_factories)
    sba_magnitude: float = 10.0
    gda_parameters: int = 20
    random_parameters: int = 10
    random_relative_std: float = 2.0
    #: output comparison tolerance of the user-side replay
    output_atol: float = 1e-6
    #: worker-process shards of the distributed runner (execution layout,
    #: like ``name`` — never a digest ingredient: re-sharding a campaign
    #: must not re-run a single scenario)
    shards: int = 1

    def __post_init__(self) -> None:
        # tolerate lists from TOML/JSON by normalising to tuples
        for axis in ("attacks", "models", "criteria", "strategies"):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        from repro.registry import registry
        from repro.validation.detection import available_attacks

        for axis in ("attacks", "models", "criteria", "strategies", "budgets"):
            if not getattr(self, axis):
                raise ValueError(f"campaign axis {axis!r} is empty")
        known_attacks = available_attacks()
        unknown_attacks = set(self.attacks) - set(known_attacks)
        if unknown_attacks:
            raise ValueError(
                f"unknown attacks {sorted(unknown_attacks)}; "
                f"choose from {tuple(known_attacks)}"
            )
        from repro.analysis.sweep import preparable_datasets

        known_models = preparable_datasets()
        unknown_models = set(self.models) - set(known_models)
        if unknown_models:
            raise ValueError(
                f"unknown models {sorted(unknown_models)}; "
                f"choose from {tuple(known_models)}"
            )
        known_strategies = set(registry.names("strategies"))
        unknown_strategies = set(self.strategies) - known_strategies
        if unknown_strategies:
            raise ValueError(
                f"unknown strategies {sorted(unknown_strategies)}; "
                f"choose from {sorted(known_strategies)}"
            )
        from repro.coverage.activation import resolve_criterion

        # criterion names are syntax-checked against a throwaway model so a
        # typo fails at load time, not after minutes of training
        probe = _criterion_probe()
        for criterion in self.criteria:
            resolve_criterion(criterion, probe)
        if any(b <= 0 for b in self.budgets):
            raise ValueError("budgets must be positive")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.train_size <= 0 or self.test_size <= 0:
            raise ValueError("train_size and test_size must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        if self.candidate_pool is not None and self.candidate_pool <= 0:
            raise ValueError("candidate_pool must be positive when given")
        if self.gradient_updates <= 0:
            raise ValueError("gradient_updates must be positive")
        if self.reference_inputs <= 0:
            raise ValueError("reference_inputs must be positive")
        if self.reference_inputs > self.test_size:
            raise ValueError(
                "reference_inputs cannot exceed test_size "
                f"({self.reference_inputs} > {self.test_size})"
            )
        if self.output_atol < 0:
            raise ValueError("output_atol must be non-negative")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")

    # -- expansion ----------------------------------------------------------
    @property
    def max_budget(self) -> int:
        return max(self.budgets)

    def shared_knobs(self) -> Dict[str, object]:
        """The outcome-relevant non-axis fields (digest ingredients).

        ``name`` and ``shards`` are excluded: a label and an execution
        layout respectively — changing either must not invalidate a single
        completed scenario.
        """
        data = asdict(self)
        for axis in (
            "attacks",
            "models",
            "criteria",
            "strategies",
            "budgets",
            "name",
            "shards",
        ):
            data.pop(axis)
        return data

    def training_digest(self, model: str) -> str:
        """Content key for the trained victim of ``model``.

        Binds exactly the inputs of :meth:`CampaignRunner._prepare_model` —
        spec seed, data sizes, epochs, width and the code version — so the
        distributed runner's model exchange can ship one prepared model
        between shard workers by digest.
        """
        from repro import __version__

        payload = {
            "repro": __version__,
            "model": str(model),
            "seed": int(self.seed),
            "train_size": int(self.train_size),
            "test_size": int(self.test_size),
            "epochs": int(self.epochs),
            "width_multiplier": float(self.width_multiplier),
        }
        return _stable_digest(payload)

    def scenario_digest(self, axes: Dict[str, object], seed: int) -> str:
        """Store key for one scenario: axes + seed + knobs + versions."""
        from repro import __version__

        payload = {
            "schema": SCENARIO_SCHEMA_VERSION,
            "repro": __version__,
            "axes": axes,
            "seed": seed,
            "knobs": self.shared_knobs(),
            # the scenario's package is a prefix of the max-budget package,
            # so the campaign-wide max budget is an outcome input
            "max_budget": self.max_budget,
        }
        return _stable_digest(payload)

    def expand(self) -> List[Scenario]:
        """The deterministic, digest-deduplicated scenario cross-product.

        Order is the nested axis order (model, attack, criterion, strategy,
        budget) with duplicate axis values collapsing to one scenario — the
        digest is the identity, so ``attacks=("sba", "sba")`` yields each SBA
        scenario once.
        """
        self.validate()
        scenarios: List[Scenario] = []
        seen: set = set()
        for model in self.models:
            for attack in self.attacks:
                for criterion in self.criteria:
                    for strategy in self.strategies:
                        for budget in self.budgets:
                            axes = {
                                "model": model,
                                "attack": attack,
                                "criterion": criterion,
                                "strategy": strategy,
                                "budget": int(budget),
                            }
                            seed = derive_scenario_seed(
                                self.seed, model, attack, criterion, strategy, budget
                            )
                            digest = self.scenario_digest(axes, seed)
                            if digest in seen:
                                continue
                            seen.add(digest)
                            scenarios.append(
                                Scenario(
                                    model=model,
                                    attack=attack,
                                    criterion=criterion,
                                    strategy=strategy,
                                    budget=int(budget),
                                    seed=seed,
                                    digest=digest,
                                )
                            )
        return scenarios

    # -- (de)serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec fields {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def load(cls, path: PathLike) -> "CampaignSpec":
        """Load a spec from a ``.toml`` or ``.json`` file.

        Fields live either inside a ``[campaign]`` table or at the top level
        (see :func:`repro.utils.config.load_table_data`, shared with the
        :mod:`repro.api` config/request loaders).
        """
        from repro.utils.config import load_table_data

        spec = cls.from_dict(load_table_data(path, "campaign", kind="spec"))
        spec.validate()
        return spec

    def save(self, path: PathLike) -> Path:
        """Write the spec as JSON (the lossless interchange format)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def with_overrides(self, **overrides: object) -> "CampaignSpec":
        """A copy with some fields replaced (CLI flags, test shrinking)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


__all__ = [
    "MODEL_NAMES",
    "SCENARIO_SCHEMA_VERSION",
    "CampaignSpec",
    "Scenario",
    "derive_scenario_seed",
]
