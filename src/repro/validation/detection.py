"""Detection-rate experiments (Tables II and III).

For a given victim model, a set of functional-test packages (one per
generation method / budget) and a set of attacks, the experiment repeatedly:

1. perturbs a fresh copy of the victim with the attack,
2. replays each package against the perturbed copy, and
3. records whether the perturbation was detected (any output mismatch).

The detection rate of a (package, attack) cell is the fraction of perturbation
trials that were detected — exactly the quantity reported in Tables II/III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.attacks.base import ParameterAttack, PerturbationRecord
from repro.engine import Engine, check_backend, model_axis
from repro.engine.cache import TrunkCache
from repro.nn.model import Sequential
from repro.utils.config import DetectionConfig
from repro.utils.logging import get_logger
from repro.utils.rng import spawn
from repro.validation.package import ValidationPackage
from repro.validation.user import compare_outputs

logger = get_logger("validation.detection")

AttackFactory = Callable[[np.random.Generator], ParameterAttack]

#: every attack family the library implements, in table-column order
ATTACK_NAMES = ("sba", "gda", "random", "bitflip")


def stack_package_prefixes(
    packages: Dict[str, ValidationPackage], budget: int
) -> Tuple[List[str], np.ndarray, np.ndarray, Dict[str, int]]:
    """Stack the first ``budget`` tests of every package into one batch.

    Returns ``(methods, stacked_tests, expected_outputs, offsets)`` where
    ``offsets[m]`` is the start of method ``m``'s slice in the stacked batch.
    Replaying the stacked batch once per perturbed model (one engine dispatch)
    and slicing per method/budget afterwards is the Tables II/III inner loop;
    the campaign runner shares this exact stacking.
    """
    if not packages:
        raise ValueError("at least one validation package is required")
    methods = list(packages)
    for method, pkg in packages.items():
        if pkg.num_tests < budget:
            raise ValueError(
                f"package for method {method!r} has only {pkg.num_tests} tests "
                f"but the stacking budget is {budget}"
            )
    stacked_tests = np.concatenate(
        [packages[m].tests[:budget] for m in methods], axis=0
    )
    expected = np.concatenate(
        [packages[m].expected_outputs[:budget] for m in methods], axis=0
    )
    offsets = {m: i * budget for i, m in enumerate(methods)}
    return methods, stacked_tests, expected, offsets


def replay_trials(
    engine: Engine,
    attacks: Iterable[ParameterAttack],
    tests: np.ndarray,
    expected: np.ndarray,
    output_atol: float,
) -> Tuple[np.ndarray, List[PerturbationRecord]]:
    """Replay ``tests`` against one perturbed copy of ``engine.model`` per attack.

    Returns ``(mismatches, records)``: the ``(trials, tests)`` bool matrix
    whose row ``t`` flags the tests on which attack ``t``'s copy deviates
    from ``expected`` (:func:`~repro.validation.user.compare_outputs`), and
    each trial's perturbation record.  Copies are built lazily, in groups
    of :data:`~repro.engine.model_axis.DEFAULT_MAX_MODELS` on the
    ``model_axis`` backend (one at a time on ``numpy``), and each group
    replays in one :meth:`Engine.stacked_forward`, so
    at most one group of copies is alive at a time.  Detection counts,
    queries-to-decision and discrimination scores are reductions of this
    matrix.
    """
    group_size = model_axis.DEFAULT_MAX_MODELS if engine.backend == "model_axis" else 1
    attacks = iter(attacks)
    rows: List[np.ndarray] = []
    records: List[PerturbationRecord] = []
    while outcomes := [attack.apply(engine.model) for attack in islice(attacks, group_size)]:
        observed = engine.stacked_forward([o.model for o in outcomes], tests)
        rows.append(compare_outputs(observed, expected[None], output_atol)[1])
        records.extend(o.record for o in outcomes)
    if not rows:
        raise ValueError("replay_trials needs at least one attack")
    return np.concatenate(rows, axis=0), records


@dataclass
class DetectionCell:
    """One cell of a detection-rate table."""

    method: str
    attack: str
    num_tests: int
    trials: int
    detections: int

    @property
    def detection_rate(self) -> float:
        if self.trials == 0:
            raise ValueError("cell has no trials")
        return self.detections / self.trials


@dataclass
class DetectionTable:
    """Collection of detection cells, indexable by (method, attack, budget)."""

    cells: List[DetectionCell] = field(default_factory=list)

    def add(self, cell: DetectionCell) -> None:
        self.cells.append(cell)

    def rate(self, method: str, attack: str, num_tests: int) -> float:
        for cell in self.cells:
            if (
                cell.method == method
                and cell.attack == attack
                and cell.num_tests == num_tests
            ):
                return cell.detection_rate
        raise KeyError(f"no cell for ({method!r}, {attack!r}, N={num_tests})")

    def methods(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.method not in seen:
                seen.append(cell.method)
        return seen

    def attacks(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.attack not in seen:
                seen.append(cell.attack)
        return seen

    def budgets(self) -> List[int]:
        return sorted({cell.num_tests for cell in self.cells})

    def as_rows(self) -> List[Dict[str, object]]:
        """Flat list of dict rows (for CSV/markdown rendering)."""
        return [
            {
                "method": c.method,
                "attack": c.attack,
                "num_tests": c.num_tests,
                "trials": c.trials,
                "detections": c.detections,
                "detection_rate": c.detection_rate,
            }
            for c in self.cells
        ]


def available_attacks() -> List[str]:
    """Every attack family in the registry, builtins first in table order."""
    from repro.registry import registry

    names = list(ATTACK_NAMES)
    names.extend(n for n in registry.names("attacks") if n not in names)
    return names


def default_attack_factories(
    reference_inputs: np.ndarray,
    sba_magnitude: float = 10.0,
    gda_parameters: int = 20,
    random_parameters: int = 10,
    random_relative_std: float = 2.0,
    **extra_settings: object,
) -> Dict[str, AttackFactory]:
    """The paper's three attacks (plus the bit-flip extension) as factories.

    Each factory takes a per-trial RNG so that every perturbation trial draws
    an independent fault, matching the "implement each kind of parameter
    perturbation 10000 times" protocol of Section V-C.  The attacks of one
    call share a :class:`~repro.engine.cache.TrunkCache`, so the victim's
    activations on the reference inputs (SBA's flip-check baseline) are
    computed once per victim, not once per trial.

    Attack construction resolves through the ``attacks`` namespace of
    :mod:`repro.registry`: every registered family contributes one factory,
    with its keyword arguments drawn from this function's settings according
    to the entry's knob declaration (``sba`` ← ``sba_magnitude``, ``gda`` ←
    ``gda_parameters``, ``random`` ← ``random_parameters`` /
    ``random_relative_std``).  Settings for third-party attacks pass through
    ``extra_settings`` under the field names their knobs declare.
    """
    from repro.registry import registry

    reference_inputs = np.asarray(reference_inputs, dtype=np.float64)
    if reference_inputs.shape[0] == 0:
        raise ValueError("reference_inputs must be a non-empty batch")

    settings: Dict[str, object] = {
        "sba_magnitude": sba_magnitude,
        "gda_parameters": gda_parameters,
        "random_parameters": random_parameters,
        "random_relative_std": random_relative_std,
    }
    settings.update(extra_settings)

    # every attack the set builds reads the victim's trunks from one memo
    trunks = TrunkCache()
    factories: Dict[str, AttackFactory] = {}
    for name in available_attacks():
        entry_factory = registry.get("attacks", name)
        kwargs = {
            kwarg: settings[field]  # type: ignore[index]
            for kwarg, field in registry.knobs("attacks", name).items()
            if field in settings
        }

        def factory(
            rng: np.random.Generator,
            _build: Callable[..., object] = entry_factory,
            _kwargs: Dict[str, object] = kwargs,
        ) -> ParameterAttack:
            attack = _build(reference_inputs, rng=rng, **_kwargs)
            if isinstance(attack, ParameterAttack):
                attack.trunks = trunks
            return attack  # type: ignore[return-value]

        factories[name] = factory
    return factories


class DetectionExperiment:
    """Detection-rate sweep over methods × attacks × test budgets.

    Parameters
    ----------
    model: the untampered victim model (the vendor's reference copy).
    packages: mapping from method name to a validation package holding *at
        least* ``max(test_budgets)`` tests generated by that method; budget
        sweeps reuse prefixes of each package.
    attack_factories: mapping from attack name to a factory building a fresh
        attack from a per-trial RNG; see :func:`default_attack_factories`.
    config: trial counts, budgets, attack list, tolerance and seed.
    backend: engine backend the trial replays run on, ``"numpy"`` or
        ``"model_axis"``; detection counts are bit-identical on both.
    """

    def __init__(
        self,
        model: Sequential,
        packages: Dict[str, ValidationPackage],
        attack_factories: Dict[str, AttackFactory],
        config: Optional[DetectionConfig] = None,
        backend: str = "numpy",
    ) -> None:
        if not packages:
            raise ValueError("at least one validation package is required")
        self.backend = check_backend(backend)
        self.model = model
        self.packages = dict(packages)
        self.attack_factories = dict(attack_factories)
        self.config = config or DetectionConfig()
        self.config.validate()
        missing = set(self.config.attacks) - set(self.attack_factories)
        if missing:
            raise ValueError(f"no attack factory for: {sorted(missing)}")
        max_budget = max(self.config.test_budgets)
        for method, pkg in self.packages.items():
            if pkg.num_tests < max_budget:
                raise ValueError(
                    f"package for method {method!r} has only {pkg.num_tests} tests "
                    f"but the largest budget is {max_budget}"
                )

    def run(self) -> DetectionTable:
        """Run every (method, attack, budget) cell and return the table.

        The same sequence of perturbed models is reused across methods and
        budgets within an attack (paired trials), so differences between
        methods are not washed out by attack sampling noise.

        The tests of *all* packages are stacked once and replayed by
        :func:`replay_trials`; every (method, budget) cell counts the trials
        with any mismatch in its prefix slice of the stacked batch.
        """
        cfg = self.config
        table = DetectionTable()
        attack_rngs = spawn(cfg.seed, len(cfg.attacks))
        methods, stacked_tests, expected, offsets = stack_package_prefixes(
            self.packages, max(cfg.test_budgets)
        )
        # perturbed copies are each used for exactly one batch, so the memo
        # cache is off
        engine = Engine(self.model, backend=self.backend, cache=False)
        for attack_name, attack_rng in zip(cfg.attacks, attack_rngs):
            factory = self.attack_factories[attack_name]
            logger.info(
                "running %d %s perturbation trials", cfg.trials, attack_name
            )
            attacks = (factory(rng) for rng in spawn(attack_rng, cfg.trials))
            mismatches, _ = replay_trials(
                engine, attacks, stacked_tests, expected, cfg.output_atol
            )
            for method in methods:
                lo = offsets[method]
                for n in cfg.test_budgets:
                    detected = mismatches[:, lo : lo + n].any(axis=1)
                    table.add(
                        DetectionCell(
                            method=method,
                            attack=attack_name,
                            num_tests=n,
                            trials=cfg.trials,
                            detections=int(detected.sum()),
                        )
                    )
        return table


def run_detection_experiment(
    model: Sequential,
    packages: Dict[str, ValidationPackage],
    reference_inputs: np.ndarray,
    config: Optional[DetectionConfig] = None,
    backend: str = "numpy",
    **factory_kwargs: object,
) -> DetectionTable:
    """Convenience wrapper with the paper's default attack set."""
    factories = default_attack_factories(reference_inputs, **factory_kwargs)  # type: ignore[arg-type]
    return DetectionExperiment(
        model, packages, factories, config, backend=backend
    ).run()


__all__ = [
    "ATTACK_NAMES",
    "available_attacks",
    "DetectionCell",
    "DetectionTable",
    "DetectionExperiment",
    "default_attack_factories",
    "replay_trials",
    "run_detection_experiment",
    "stack_package_prefixes",
]
