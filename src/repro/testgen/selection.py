"""Algorithm 1 — greedy selection of functional tests from the training set.

Each iteration picks the training sample with the largest marginal coverage
gain ``VC(X + s) − VC(X)`` (Eq. 7) and adds it to the validation set, until
the budget ``Nt`` is exhausted.  :class:`TrainingSetSelector` is the one
implementation of that loop.  It scores candidates through a pluggable
:class:`~repro.coverage.bitmap.CoverageCriterion`: parameter coverage (the
paper's metric) by default, neuron coverage in the
:class:`NeuronCoverageSelector` baseline.  The combined method drives the
same greedy step for its training branch and its switch rule.

The criterion builds the pool's packed
:class:`~repro.coverage.bitmap.MaskMatrix` once, in chunked batched passes
through the execution engine, so each greedy step is one
``popcount(candidate & ~covered)`` sweep over uint64 words: integer
arithmetic, so selection order (including argmax tie-breaks) is
byte-identical to the dense implementation at 1/8 the memory.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.coverage.bitmap import CoverageCriterion, MaskMatrix, PackedCoverageTracker
from repro.coverage.neuron_coverage import NeuronCoverage
from repro.coverage.parameter_coverage import ParameterCoverage
from repro.data.datasets import Dataset
from repro.engine import Engine
from repro.nn.model import Sequential
from repro.testgen.base import GenerationResult, TestGenerator
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, as_generator

logger = get_logger("testgen.selection")


class TrainingSetSelector(TestGenerator):
    """Greedy coverage-maximising selection from the training set (Algorithm 1).

    Parameters
    ----------
    model: the trained (vendor-side) model.
    training_set: the training dataset (or any candidate dataset) to select from.
    criterion: activation criterion; defaults to the model-appropriate one.
    candidate_pool: optionally subsample the training set to this many
        candidates before the greedy loop (the paper scans the full set; a
        pool bounds the number of backward passes on CPU).
    rng: randomness used only for candidate-pool subsampling.

    :attr:`coverage` is the criterion that scores candidates,
    ``ParameterCoverage(criterion)`` here.
    """

    method_name = "training-selection"

    def __init__(
        self,
        model: Sequential,
        training_set: Dataset,
        criterion: Optional[ActivationCriterion] = None,
        candidate_pool: Optional[int] = None,
        rng: RngLike = None,
        engine: Optional[Engine] = None,
    ) -> None:
        super().__init__(model, criterion or default_criterion_for(model), engine)
        if len(training_set) == 0:
            raise ValueError("training set is empty")
        if candidate_pool is not None and candidate_pool <= 0:
            raise ValueError("candidate_pool must be positive when given")
        self.training_set = training_set
        self.candidate_pool = candidate_pool
        self.coverage: CoverageCriterion = ParameterCoverage(self.criterion)
        self._rng = as_generator(rng)
        self._masks: Optional[MaskMatrix] = None
        self._pool_indices: Optional[np.ndarray] = None

    # -- candidate pool -----------------------------------------------------
    @property
    def masks(self) -> MaskMatrix:
        """The candidate pool's packed masks under :attr:`coverage`.

        Built on first use, which is also when the pool is drawn.
        """
        if self._masks is None:
            n = len(self.training_set)
            if self.candidate_pool is not None and self.candidate_pool < n:
                idx = self._rng.choice(n, size=self.candidate_pool, replace=False)
            else:
                idx = np.arange(n)
            self._pool_indices = idx
            logger.info(
                "building %s masks for %d candidates", self.coverage.name, idx.size
            )
            self._masks = self.coverage.mask_matrix(
                self.model, self.training_set.images[idx], self.engine
            )
        return self._masks

    @property
    def pool_size(self) -> int:
        """Number of candidates the greedy loop scans."""
        return len(self.masks)

    # -- the greedy step ------------------------------------------------------
    def _best(
        self, tracker: PackedCoverageTracker, available: np.ndarray
    ) -> Tuple[int, float]:
        """The available candidate with the largest marginal gain (Eq. 7),
        and that gain.  Ties break to the lowest pool index."""
        index, count = self.masks.best_candidate(tracker.covered_map, available)
        return index, count / self.masks.nbits

    def _select(
        self,
        tracker: PackedCoverageTracker,
        available: np.ndarray,
        index: Optional[int] = None,
    ) -> Tuple[int, float]:
        """One Algorithm 1 step: add the best available candidate's mask to
        ``tracker`` and mark it unavailable.  Returns its pool index and the
        coverage it added.  ``index``, when given, is that candidate as
        :meth:`_best` already found it for this ``tracker`` and
        ``available``; the pool is not swept again."""
        if index is None:
            index, _ = self._best(tracker, available)
        gain = tracker.add_mask(self.masks.row(index))
        available[index] = False
        return index, gain

    # -- generation -----------------------------------------------------------
    def generate(self, num_tests: int) -> GenerationResult:
        """Run Algorithm 1 for a budget of ``num_tests`` functional tests.

        If the budget exceeds the candidate pool, all candidates are selected
        (in greedy order) and the result simply contains fewer tests.  The
        ``coverage_history`` is measured under :attr:`coverage`.
        """
        if num_tests <= 0:
            raise ValueError("num_tests must be positive")
        masks = self.masks
        tracker = self.coverage.tracker(self.model)
        available = np.ones(len(masks), dtype=bool)

        selected: list[int] = []
        history: list[float] = []
        gains: list[float] = []
        for _ in range(min(num_tests, len(masks))):
            index, gain = self._select(tracker, available)
            selected.append(index)
            gains.append(gain)
            history.append(tracker.coverage)

        assert self._pool_indices is not None
        indices = self._pool_indices[selected]
        return GenerationResult(
            tests=self.training_set.images[indices],
            coverage_history=history,
            gains=gains,
            sources=["training"] * len(selected),
            dataset_indices=indices,
            method=self.method_name,
        )

    def selected_dataset_indices(self, result: GenerationResult) -> np.ndarray:
        """Map a result's tests back to indices in the original training set.

        Results record their dataset indices at selection time
        (:attr:`GenerationResult.dataset_indices`), which is the only
        duplicate-safe provenance record.  The deprecated pixel-equality
        rematch fallback for index-less legacy results was removed: it was
        O(T·N·P) and silently returned the *first* matching index for
        duplicate training images.  Regenerate legacy results to obtain
        recorded indices.
        """
        if result.dataset_indices is None:
            raise ValueError(
                "result has no recorded dataset_indices; the pixel-equality "
                "rematch fallback was removed (it was ambiguous for duplicate "
                "training images) — regenerate the result to record indices "
                "at selection time"
            )
        return result.dataset_indices.copy()


class NeuronCoverageSelector(TrainingSetSelector):
    """Algorithm 1 scored by *neuron* coverage: the hardware-testing baseline.

    Tables II and III compare the paper's parameter-coverage tests against
    "tests with neuron coverage", chosen to activate as many neurons as
    possible (DeepXplore/DeepCT style).  The resulting test sets reach high
    neuron coverage quickly yet leave many weights unexercised: a weight is
    only exercised when both neurons it joins are active for the same test.

    ``threshold`` is the post-activation output above which a neuron counts
    as covered.  The ``coverage_history`` of a result is *neuron* coverage
    (this selector's objective); use
    :func:`repro.coverage.set_validation_coverage` on ``result.tests`` for
    the parameter coverage they achieve.
    """

    method_name = "neuron-selection"

    def __init__(
        self,
        model: Sequential,
        training_set: Dataset,
        threshold: float = 0.0,
        candidate_pool: Optional[int] = None,
        rng: RngLike = None,
        engine: Optional[Engine] = None,
    ) -> None:
        super().__init__(
            model, training_set, candidate_pool=candidate_pool, rng=rng, engine=engine
        )
        self.coverage = NeuronCoverage(threshold)


__all__ = ["NeuronCoverageSelector", "TrainingSetSelector"]
