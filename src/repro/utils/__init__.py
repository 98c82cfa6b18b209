"""Shared utilities: seeded RNG handling, logging and experiment configs."""

from repro.utils.config import (
    CoverageConfig,
    DetectionConfig,
    ExperimentConfig,
    TestGenConfig,
    TrainingConfig,
    env_int,
)
from repro.utils.logging import Timer, enable_console_logging, get_logger
from repro.utils.rng import (
    RngLike,
    as_generator,
    check_probability,
    choice_without_replacement,
    derive_seed,
    spawn,
)

__all__ = [
    "CoverageConfig",
    "DetectionConfig",
    "ExperimentConfig",
    "TestGenConfig",
    "TrainingConfig",
    "env_int",
    "Timer",
    "enable_console_logging",
    "get_logger",
    "RngLike",
    "as_generator",
    "check_probability",
    "choice_without_replacement",
    "derive_seed",
    "spawn",
]
