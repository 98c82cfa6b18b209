"""The IP user's side of the validation scheme (right half of Fig. 1).

The user receives the DNN IP through an untrusted channel and can only query
it as a black box.  Validation is: run the vendor's functional tests, compare
the observed outputs against the packaged reference outputs, and flag the IP
as tampered on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple, Union

import numpy as np

from repro.nn.model import Sequential
from repro.validation.package import ValidationPackage

#: anything the user can query like a black box: a model object or a callable
#: mapping an input batch to output logits.
BlackBoxIP = Union[Sequential, Callable[[np.ndarray], np.ndarray]]


@dataclass
class ValidationReport:
    """Result of validating one IP against one package.

    Attributes
    ----------
    passed: True when every test produced outputs matching the reference.
    num_tests: number of functional tests that were replayed.
    mismatched_indices: indices of tests whose outputs differed.
    max_output_deviation: largest absolute logit difference observed.
    label_mismatches: number of tests whose *predicted class* changed (a
        stricter signal than logit deviation; always ≤ the mismatch count).
    """

    passed: bool
    num_tests: int
    mismatched_indices: List[int] = field(default_factory=list)
    max_output_deviation: float = 0.0
    label_mismatches: int = 0

    @property
    def num_mismatched(self) -> int:
        return len(self.mismatched_indices)

    @property
    def detected(self) -> bool:
        """Convenience alias: a failed validation means tampering was detected."""
        return not self.passed

    def summary(self) -> str:
        verdict = "SECURE" if self.passed else "TAMPERED"
        return (
            f"{verdict}: {self.num_mismatched}/{self.num_tests} tests mismatched, "
            f"max output deviation {self.max_output_deviation:.3e}, "
            f"{self.label_mismatches} predicted labels changed"
        )


def _query(ip: BlackBoxIP, inputs: np.ndarray) -> np.ndarray:
    """Query the black-box IP, accepting either a model or a callable."""
    if isinstance(ip, Sequential):
        return ip.predict(inputs)
    outputs = ip(inputs)
    return np.asarray(outputs, dtype=np.float64)


def compare_outputs(
    observed: np.ndarray, expected: np.ndarray, atol: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The scheme's one output-comparison rule: ``(deviations, mismatched)``.

    ``deviations`` is each test's largest absolute logit difference from the
    reference and ``mismatched`` flags every test whose deviation is not
    within ``atol``.  A non-finite deviation (a NaN or inf output) is
    reported as ``inf`` and always mismatches.  An output of the wrong shape
    is itself unambiguous tampering: every test mismatches at deviation
    ``inf``.  Shapes are ``(N,)`` for one copy's ``(N, C)`` outputs; a stack
    of copies ``(T, N, C)`` compared against ``expected[None]`` broadcasts to
    ``(T, N)``.
    """
    observed = np.asarray(observed)
    if observed.ndim != expected.ndim or observed.shape[-2:] != expected.shape[-2:]:
        deviations = np.full(expected.shape[:-1], np.inf)
    else:
        deviations = np.abs(observed - expected).max(axis=-1)
        deviations[np.isnan(deviations)] = np.inf
    return deviations, ~(deviations <= atol)


def report_from_outputs(
    observed: np.ndarray, package: ValidationPackage
) -> ValidationReport:
    """Compare observed logits against a package's reference outputs.

    Applies :func:`compare_outputs`, shared by the in-process
    :meth:`IPUser.validate`, the serving layer's coalesced replay
    (:mod:`repro.serve`), the sequential verifier and the trial replay of
    the detection experiments, so no verdict path can score the same logits
    differently.
    """
    expected = package.expected_outputs
    deviations, mismatched = compare_outputs(observed, expected, package.output_atol)
    if observed.shape == expected.shape:
        label_mismatches = int(np.sum(np.argmax(observed, axis=1) != package.expected_labels))
    else:
        label_mismatches = package.num_tests
    return ValidationReport(
        passed=not mismatched.any(),
        num_tests=package.num_tests,
        mismatched_indices=[int(i) for i in np.flatnonzero(mismatched)],
        max_output_deviation=float(deviations.max()),
        label_mismatches=label_mismatches,
    )


class IPUser:
    """User-side workflow: replay a validation package against a black-box IP."""

    def __init__(self, package: ValidationPackage) -> None:
        if package.num_tests == 0:
            raise ValueError("validation package contains no tests")
        self.package = package

    def validate(self, ip: BlackBoxIP) -> ValidationReport:
        """Run every functional test through ``ip`` and compare outputs."""
        return report_from_outputs(_query(ip, self.package.tests), self.package)


def validate_ip(ip: BlackBoxIP, package: ValidationPackage) -> ValidationReport:
    """Functional shortcut for ``IPUser(package).validate(ip)``."""
    return IPUser(package).validate(ip)


__all__ = [
    "IPUser",
    "compare_outputs",
    "ValidationReport",
    "report_from_outputs",
    "validate_ip",
    "BlackBoxIP",
]
