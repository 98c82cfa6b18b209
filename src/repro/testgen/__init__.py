"""Functional test generation: the paper's Algorithms 1 and 2, their
combination, and the neuron-coverage / random baselines.

Strategies register in the ``strategies`` namespace of the cross-subsystem
:mod:`repro.registry` (see :mod:`repro.testgen.strategies`), so declarative
specs (``repro.campaign``) and the :class:`repro.api.Session` facade look
generators up by name without hardcoding constructors.
"""

from repro.testgen.base import GenerationResult, TestGenerator, stack_samples
from repro.testgen.combined import CombinedGenerator
from repro.testgen.gradient_gen import TARGET_MODES, GradientTestGenerator
from repro.testgen.neuron_testgen import NeuronCoverageSelector
from repro.testgen.random_select import RandomSelector
from repro.testgen.selection import TrainingSetSelector
from repro.testgen.strategies import StrategyFactory, build_generator

__all__ = [
    "GenerationResult",
    "TestGenerator",
    "stack_samples",
    "CombinedGenerator",
    "TARGET_MODES",
    "GradientTestGenerator",
    "NeuronCoverageSelector",
    "RandomSelector",
    "TrainingSetSelector",
    "StrategyFactory",
    "build_generator",
]
