"""Parameter sweeps and end-to-end experiment drivers.

These helpers stitch the library's pieces together into the exact experiment
protocols of Section V, so benchmarks, examples and EXPERIMENTS.md all run the
same code paths:

* :func:`prepare_experiment` — train a model on one of the synthetic datasets
  (the "IP vendor trains the model" step).
* :func:`build_method_packages` — generate functional-test packages for the
  methods compared in Tables II/III (neuron-coverage baseline vs. the
  proposed parameter-coverage combined method).
* :func:`epsilon_sweep` / :func:`scalarization_sweep` — the ablation studies
  listed in DESIGN.md (A2, A3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.data.datasets import Dataset
from repro.engine import Engine
from repro.models.training import Trainer, TrainingHistory
from repro.models.zoo import MODEL_LEARNING_RATES
from repro.nn.model import Sequential
from repro.registry import registry
from repro.testgen.combined import CombinedGenerator
from repro.testgen.selection import NeuronCoverageSelector
from repro.utils.config import TrainingConfig
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, as_generator
from repro.validation.package import ValidationPackage
from repro.validation.vendor import IPVendor

logger = get_logger("analysis.sweep")


@dataclass
class PreparedExperiment:
    """A trained model plus the data it was trained on."""

    model: Sequential
    train: Dataset
    test: Dataset
    history: TrainingHistory
    dataset_name: str

    @property
    def test_accuracy(self) -> float:
        return self.history.final_test_accuracy


def preparable_datasets() -> List[str]:
    """Registry dataset names carrying an experiment recipe in their metadata."""
    return [
        name
        for name in registry.names("datasets")
        if "model" in registry.metadata("datasets", name)
    ]


def dataset_recipe(dataset: str) -> Dict[str, object]:
    """The dataset entry's experiment recipe (raises for recipe-less entries).

    Recipe keys: ``model`` (zoo/registry model name, required), ``epochs``
    (default training length), ``width_scale`` (factor applied to the
    caller's ``width_multiplier``) and optionally ``learning_rate``
    (defaults to the model's :data:`~repro.models.zoo.MODEL_LEARNING_RATES`
    entry).
    """
    recipe = registry.metadata("datasets", dataset)
    if "model" not in recipe:
        raise ValueError(
            f"dataset {dataset!r} has no experiment recipe; "
            f"preparable datasets: {preparable_datasets()}"
        )
    return recipe


def prepare_experiment(
    dataset: str = "mnist",
    train_size: int = 400,
    test_size: int = 120,
    width_multiplier: float = 0.125,
    training: Optional[TrainingConfig] = None,
    epochs: Optional[int] = None,
    rng: RngLike = None,
) -> PreparedExperiment:
    """Train a Table-I style model on one of the synthetic datasets.

    ``dataset`` is ``"mnist"`` (Tanh CNN on synthetic digits) or ``"cifar"``
    (ReLU CNN on synthetic colour objects), mirroring the paper's two setups.
    Resolution goes through the ``datasets``/``models`` namespaces of
    :mod:`repro.registry`: the dataset entry's loader yields the train/test
    pair and its metadata is the *experiment recipe* (see
    :func:`dataset_recipe`), so registered third-party datasets with a
    recipe are trainable by name.

    ``epochs`` overrides just the recipe's training length; passing a full
    ``training`` config supersedes the recipe entirely (and is mutually
    exclusive with ``epochs``).
    """
    gen = as_generator(rng)
    entry = registry.entry("datasets", dataset)
    recipe = dataset_recipe(dataset)
    if training is not None and epochs is not None:
        raise ValueError("pass either training= or epochs=, not both")
    model_name = str(recipe["model"])
    train, test = entry.factory(train_size, test_size, rng=gen)  # type: ignore[misc]
    model = registry.create(
        "models",
        model_name,
        width_multiplier=width_multiplier * float(recipe.get("width_scale", 1.0)),
        rng=gen,
    )
    learning_rate = float(
        recipe.get("learning_rate", MODEL_LEARNING_RATES.get(model_name, 1e-3))
    )
    default_training = TrainingConfig(
        epochs=int(epochs if epochs is not None else recipe.get("epochs", 8)),
        batch_size=32,
        learning_rate=learning_rate,
    )

    config = training or default_training
    history = Trainer(config).fit(model, train, test)
    logger.info(
        "%s model trained: accuracy %.3f with %d parameters",
        dataset,
        history.final_test_accuracy,
        model.num_parameters(),
    )
    return PreparedExperiment(
        model=model, train=train, test=test, history=history, dataset_name=dataset
    )


def build_method_packages(
    prepared: PreparedExperiment,
    num_tests: int,
    candidate_pool: Optional[int] = 150,
    rng: RngLike = None,
    gradient_kwargs: Optional[Dict[str, object]] = None,
) -> Dict[str, ValidationPackage]:
    """Packages for the two methods compared in Tables II/III.

    ``"neuron-coverage"`` — tests greedily selected for neuron coverage (the
    hardware-testing baseline); ``"parameter-coverage"`` — the paper's
    combined method.
    """
    gen = as_generator(rng)
    vendor = IPVendor(prepared.model, prepared.train)
    gkwargs = dict(gradient_kwargs or {})

    combined = CombinedGenerator(
        prepared.model,
        prepared.train,
        candidate_pool=candidate_pool,
        rng=gen,
        **gkwargs,  # type: ignore[arg-type]
    )
    neuron = NeuronCoverageSelector(
        prepared.model, prepared.train, candidate_pool=candidate_pool, rng=gen
    )

    packages = {
        "parameter-coverage": vendor.build_package(combined.generate(num_tests)),
        "neuron-coverage": vendor.build_package(neuron.generate(num_tests)),
    }
    for name, pkg in packages.items():
        logger.info(
            "%s package: %d tests, parameter coverage %.3f",
            name,
            pkg.num_tests,
            float(pkg.metadata.get("validation_coverage", float("nan"))),
        )
    return packages


@dataclass
class SweepResult:
    """Outcome of a one-dimensional ablation sweep."""

    parameter: str
    values: List[object] = field(default_factory=list)
    coverages: List[float] = field(default_factory=list)

    def as_rows(self) -> List[Dict[str, object]]:
        return [
            {self.parameter: v, "coverage": c}
            for v, c in zip(self.values, self.coverages)
        ]


def epsilon_sweep(
    model: Sequential,
    tests: np.ndarray,
    epsilons: Sequence[float] = (0.0, 1e-8, 1e-6, 1e-4, 1e-2),
    scalarization: str = "sum",
    engine: Optional[Engine] = None,
) -> SweepResult:
    """Ablation A2: how the activation threshold ε changes measured coverage.

    Larger ε counts fewer gradients as "activated", so coverage is
    monotonically non-increasing in ε; the sweep quantifies how sensitive the
    metric is for saturating-activation networks.

    The per-sample gradient matrix is computed once (batched); each ε is
    then a pure thresholding pass over it.
    """
    tests = np.asarray(tests)
    if tests.shape[0] == 0:  # an empty test set covers nothing at any ε
        return SweepResult(
            parameter="epsilon", values=list(epsilons), coverages=[0.0] * len(epsilons)
        )
    # single-query fallback engine: memoization would never be hit again
    eng = engine or Engine(model, cache=False)
    grads = eng.output_gradients(tests, scalarization)
    result = SweepResult(parameter="epsilon")
    for eps in epsilons:
        criterion = ActivationCriterion(epsilon=eps, scalarization=scalarization)
        coverage = float(criterion.activated(grads).any(axis=0).mean())
        result.values.append(eps)
        result.coverages.append(coverage)
    return result


def scalarization_sweep(
    model: Sequential,
    tests: np.ndarray,
    scalarizations: Sequence[str] = ("sum", "max", "predicted"),
    epsilon: Optional[float] = None,
    engine: Optional[Engine] = None,
) -> SweepResult:
    """Ablation A3: effect of how F(x) is scalarised before taking ∇θ.

    One batched backward pass per distinct scalarization — ``max`` and
    ``predicted`` seed the backward identically, so the engine serves them
    from one memoized gradient matrix.
    """
    eng = engine or Engine(model)
    result = SweepResult(parameter="scalarization")
    base = default_criterion_for(model)
    eps = base.epsilon if epsilon is None else epsilon
    for name in scalarizations:
        criterion = ActivationCriterion(epsilon=eps, scalarization=name)
        coverage = eng.set_validation_coverage(tests, criterion)
        result.values.append(name)
        result.coverages.append(coverage)
    return result


__all__ = [
    "PreparedExperiment",
    "dataset_recipe",
    "preparable_datasets",
    "prepare_experiment",
    "build_method_packages",
    "SweepResult",
    "epsilon_sweep",
    "scalarization_sweep",
]
