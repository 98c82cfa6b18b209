"""Builtin test-generation strategies, registered with :mod:`repro.registry`.

Declarative drivers (:mod:`repro.campaign`, :class:`repro.api.Session`)
reference generators by name, so the mapping from name to
:class:`~repro.testgen.base.TestGenerator` construction lives in the
``strategies`` namespace of the cross-subsystem registry rather than being
re-hardcoded by every driver.  Each factory normalises the shared
construction surface (model, training set, criterion, rng, engine, plus
per-strategy keyword arguments), so callers can build any strategy through
one call::

    from repro.testgen import build_generator

    gen = build_generator(
        "combined", model, training_set, criterion=criterion, rng=rng,
        candidate_pool=100,
    )

Out-of-tree strategies register with ``repro.registry.register("strategies",
name, factory, knobs=...)``; declarative spec validators use
``repro.registry.names("strategies")`` so unknown names fail at load time,
not mid-run.  The knob declaration maps a strategy's constructor keyword
arguments onto the campaign-spec / release-request fields that feed them
(e.g. ``{"max_updates": "gradient_updates"}``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.coverage.activation import ActivationCriterion
from repro.data.datasets import Dataset
from repro.engine import Engine
from repro.nn.model import Sequential
from repro.registry import register, registry
from repro.testgen.base import TestGenerator
from repro.testgen.combined import CombinedGenerator
from repro.testgen.gradient_gen import GradientTestGenerator
from repro.testgen.random_select import RandomSelector
from repro.testgen.selection import NeuronCoverageSelector, TrainingSetSelector
from repro.utils.rng import RngLike

#: factory signature shared by every registered strategy
StrategyFactory = Callable[..., TestGenerator]


def build_generator(
    name: str,
    model: Sequential,
    training_set: Optional[Dataset] = None,
    criterion: Optional[ActivationCriterion] = None,
    rng: RngLike = None,
    engine: Optional[Engine] = None,
    **kwargs: object,
) -> TestGenerator:
    """Build the named strategy's generator for ``model``.

    ``training_set`` is required by the selection-based strategies and
    ignored by purely synthetic ones; per-strategy keyword arguments
    (``candidate_pool``, ``max_updates``, ...) pass through to the factory.
    """
    factory = registry.get("strategies", name)
    return factory(
        model, training_set, criterion=criterion, rng=rng, engine=engine, **kwargs
    )


def _require_dataset(name: str, training_set: Optional[Dataset]) -> Dataset:
    if training_set is None:
        raise ValueError(f"strategy {name!r} requires a training set")
    return training_set


@register(
    "strategies",
    "combined",
    knobs={"candidate_pool": "candidate_pool", "max_updates": "gradient_updates"},
    summary="Algorithm 1 selection + Algorithm 2 gradient generation (the paper's method)",
)
def _combined(
    model: Sequential,
    training_set: Optional[Dataset],
    criterion: Optional[ActivationCriterion] = None,
    rng: RngLike = None,
    engine: Optional[Engine] = None,
    **kwargs: object,
) -> TestGenerator:
    return CombinedGenerator(
        model,
        _require_dataset("combined", training_set),
        criterion=criterion,
        rng=rng,
        engine=engine,
        **kwargs,  # type: ignore[arg-type]
    )


@register(
    "strategies",
    "selection",
    knobs={"candidate_pool": "candidate_pool"},
    summary="greedy training-set selection for parameter coverage (Algorithm 1)",
)
def _selection(
    model: Sequential,
    training_set: Optional[Dataset],
    criterion: Optional[ActivationCriterion] = None,
    rng: RngLike = None,
    engine: Optional[Engine] = None,
    **kwargs: object,
) -> TestGenerator:
    return TrainingSetSelector(
        model,
        _require_dataset("selection", training_set),
        criterion=criterion,
        rng=rng,
        engine=engine,
        **kwargs,  # type: ignore[arg-type]
    )


@register(
    "strategies",
    "gradient",
    knobs={"max_updates": "gradient_updates"},
    summary="synthetic gradient-descent test generation (Algorithm 2)",
)
def _gradient(
    model: Sequential,
    training_set: Optional[Dataset],
    criterion: Optional[ActivationCriterion] = None,
    rng: RngLike = None,
    engine: Optional[Engine] = None,
    **kwargs: object,
) -> TestGenerator:
    # purely synthetic: the training set (if any) is not consulted
    return GradientTestGenerator(
        model, criterion=criterion, rng=rng, engine=engine, **kwargs  # type: ignore[arg-type]
    )


@register(
    "strategies",
    "neuron",
    knobs={"candidate_pool": "candidate_pool"},
    summary="greedy neuron-coverage selection (the hardware-testing baseline)",
)
def _neuron(
    model: Sequential,
    training_set: Optional[Dataset],
    criterion: Optional[ActivationCriterion] = None,
    rng: RngLike = None,
    engine: Optional[Engine] = None,
    **kwargs: object,
) -> TestGenerator:
    # the neuron-coverage baseline tracks neurons, not parameters; the
    # parameter criterion only affects how the resulting package is audited
    return NeuronCoverageSelector(
        model,
        _require_dataset("neuron", training_set),
        rng=rng,
        engine=engine,
        **kwargs,  # type: ignore[arg-type]
    )


@register(
    "strategies",
    "random",
    summary="uniform random training-set selection (control baseline)",
)
def _random(
    model: Sequential,
    training_set: Optional[Dataset],
    criterion: Optional[ActivationCriterion] = None,
    rng: RngLike = None,
    engine: Optional[Engine] = None,
    **kwargs: object,
) -> TestGenerator:
    return RandomSelector(
        model,
        _require_dataset("random", training_set),
        criterion=criterion,
        rng=rng,
        engine=engine,
        **kwargs,  # type: ignore[arg-type]
    )


__all__ = [
    "StrategyFactory",
    "build_generator",
]
