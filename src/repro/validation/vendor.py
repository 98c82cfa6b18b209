"""The IP vendor's side of the validation scheme (left half of Fig. 1).

The vendor owns the trained model (white-box access) and therefore can compute
parameter gradients.  Their job is to (1) generate a small set of functional
tests with high validation coverage and (2) package those tests with the
model's reference outputs for release to IP users.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.coverage.parameter_coverage import packed_activation_masks
from repro.data.datasets import Dataset
from repro.nn.model import Sequential
from repro.testgen.base import GenerationResult, TestGenerator
from repro.testgen.combined import CombinedGenerator
from repro.utils.rng import as_generator
from repro.validation.package import DEFAULT_OUTPUT_ATOL, ValidationPackage


class IPVendor:
    """Vendor-side workflow: generate functional tests and release a package.

    Parameters
    ----------
    model: the trained DNN IP (white-box, vendor side).
    training_set: the vendor's training data, used by the selection-based
        generators.
    criterion: activation criterion for coverage accounting; defaults to the
        model-appropriate choice (ε = 0 for ReLU, small ε for Tanh).
    """

    def __init__(
        self,
        model: Sequential,
        training_set: Optional[Dataset] = None,
        criterion: Optional[ActivationCriterion] = None,
    ) -> None:
        if not model.built:
            raise ValueError("the vendor's model must be built and trained")
        self.model = model
        self.training_set = training_set
        self.criterion = criterion or default_criterion_for(model)

    # -- test generation -----------------------------------------------------
    def default_generator(self, **kwargs: object) -> CombinedGenerator:
        """The paper's recommended generator: the combined method."""
        if self.training_set is None:
            raise ValueError(
                "a training set is required for the combined/selection generators"
            )
        return CombinedGenerator(
            self.model, self.training_set, criterion=self.criterion, **kwargs  # type: ignore[arg-type]
        )

    def generate_tests(
        self,
        num_tests: int,
        generator: Optional[TestGenerator] = None,
        **generator_kwargs: object,
    ) -> GenerationResult:
        """Generate ``num_tests`` functional tests.

        Uses the combined method by default; any other
        :class:`~repro.testgen.base.TestGenerator` can be supplied.
        """
        gen = generator or self.default_generator(**generator_kwargs)
        return gen.generate(num_tests)

    # -- discrimination measurement -------------------------------------------
    def measure_discrimination(
        self,
        tests: np.ndarray,
        output_atol: float = DEFAULT_OUTPUT_ATOL,
        trials: int = 8,
        seed: int = 0,
        expected: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-test discriminative power against the surrogate attack suite.

        The vendor perturbs their own model with every registered attack
        family (``trials`` fresh draws each) and records, for each test, the
        fraction of perturbed copies it detects — observed output deviating
        from the reference by more than ``output_atol``.  The resulting
        scores ship as the package's v3 ``discrimination`` field and drive
        the sequential verifier's query order, so the user's most telling
        queries are spent first.  Fully deterministic for a given seed.
        """
        from repro.engine import Engine
        from repro.validation.detection import default_attack_factories, replay_trials

        test_array = np.asarray(tests, dtype=np.float64)
        if test_array.shape[0] == 0:
            raise ValueError("cannot measure discrimination with zero tests")
        if trials <= 0:
            raise ValueError(f"trials must be positive, got {trials}")
        if expected is None:
            expected = self.model.predict(test_array)
        factories = default_attack_factories(test_array)
        base = as_generator(seed)
        attacks = (
            factories[name](np.random.default_rng(base.integers(0, 2**63 - 1)))
            for name in sorted(factories)
            for _ in range(trials)
        )
        engine = Engine(self.model, cache=False)
        mismatches, _ = replay_trials(engine, attacks, test_array, expected, output_atol)
        return mismatches.mean(axis=0)

    # -- packaging ------------------------------------------------------------
    def build_package(
        self,
        tests: np.ndarray | GenerationResult,
        output_atol: float = DEFAULT_OUTPUT_ATOL,
        extra_metadata: Optional[Dict[str, object]] = None,
        include_coverage_masks: bool = True,
        engine=None,
        measure_discrimination: bool = False,
        discrimination_trials: int = 8,
        discrimination_seed: int = 0,
    ) -> ValidationPackage:
        """Compute reference outputs for ``tests`` and wrap them in a package.

        One packed mask pass serves double duty: the package's
        ``validation_coverage`` metadata is the masks' union fraction, and
        (unless ``include_coverage_masks=False``) the packed masks themselves
        ship in the package, so coverage composition stays auditable without
        white-box access to the vendor model.

        ``engine`` optionally routes the mask pass through a caller-managed
        :class:`~repro.engine.Engine` (the :class:`repro.api.Session` and the
        campaign runner pass theirs), reusing its backend and memoized
        gradients; the reference outputs always come from the vendor model's
        own float64 forward pass, since they are the package's ground truth.
        """
        if isinstance(tests, GenerationResult):
            metadata: Dict[str, object] = {
                "generator": tests.method,
                "coverage": tests.final_coverage if tests.coverage_history else None,
            }
            test_array = tests.tests
        else:
            metadata = {}
            test_array = np.asarray(tests, dtype=np.float64)
        if test_array.shape[0] == 0:
            raise ValueError("cannot build a package with zero tests")

        expected = self.model.predict(test_array)
        packed = packed_activation_masks(
            self.model, test_array, self.criterion, engine=engine
        )
        metadata.update(
            {
                "model": self.model.name,
                "num_tests": int(test_array.shape[0]),
                "validation_coverage": packed.union().fraction,
            }
        )
        discrimination = None
        if measure_discrimination:
            discrimination = self.measure_discrimination(
                test_array,
                output_atol=output_atol,
                trials=discrimination_trials,
                seed=discrimination_seed,
                expected=expected,
            )
            metadata["discrimination_trials"] = int(discrimination_trials)
        if extra_metadata:
            metadata.update(extra_metadata)
        return ValidationPackage(
            tests=test_array,
            expected_outputs=expected,
            output_atol=output_atol,
            coverage_masks=packed if include_coverage_masks else None,
            metadata=metadata,
            discrimination=discrimination,
        )

    def release(
        self,
        num_tests: int,
        generator: Optional[TestGenerator] = None,
        output_atol: float = DEFAULT_OUTPUT_ATOL,
        **generator_kwargs: object,
    ) -> ValidationPackage:
        """End-to-end vendor flow: generate tests, then build the package."""
        result = self.generate_tests(num_tests, generator, **generator_kwargs)
        return self.build_package(result, output_atol=output_atol)


__all__ = ["IPVendor"]
