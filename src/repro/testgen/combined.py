"""The combined functional test generation method (Section IV-D).

Algorithm 1 (selection from the training set) is very effective for the first
few tests but saturates; Algorithm 2 (gradient-based synthesis) keeps making
progress but is less efficient early on.  The combined method starts with
Algorithm 1 and switches to Algorithm 2 once the marginal coverage gain per
test of the gradient method exceeds that of the best remaining training
sample — the switch-point rule the paper proposes.

Two switch policies are supported:

* ``"adaptive"`` (paper) — at every step, compare the marginal gain of the
  best remaining training candidate with the (per-test) gain a gradient
  probe batch would deliver, and take whichever is larger.  Once the
  gradient method wins it keeps winning in practice, so this degenerates
  into "switch once" while remaining robust to noise.  A probe is only
  synthesised when it could win: its per-test gain is at most
  ``uncovered / k / total`` (``k`` samples per batch), so once the best
  training gain reaches that bound the probe is skipped.  A skipped probe
  still draws its init noise, so the shared random stream, and with it
  every test, is the same as if each probe had been synthesised.
* ``"fixed:<n>"`` — switch unconditionally after ``n`` training-selected
  tests (used by the switch-point ablation benchmark).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.coverage.bitmap import CoverageMap, MaskMatrix
from repro.coverage.parameter_coverage import CoverageTracker
from repro.data.datasets import Dataset
from repro.engine import Engine
from repro.nn.model import Sequential
from repro.testgen.base import GenerationResult, TestGenerator
from repro.testgen.gradient_gen import GradientTestGenerator
from repro.testgen.selection import TrainingSetSelector
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, as_generator

logger = get_logger("testgen.combined")


def _parse_switch_policy(policy: str) -> Optional[int]:
    """Return the fixed switch index, or ``None`` for the adaptive policy."""
    if policy == "adaptive":
        return None
    if policy.startswith("fixed:"):
        value = policy.split(":", 1)[1]
        try:
            n = int(value)
        except ValueError as exc:
            raise ValueError(f"invalid fixed switch policy {policy!r}") from exc
        if n < 0:
            raise ValueError("fixed switch point must be non-negative")
        return n
    raise ValueError(f"unknown switch policy {policy!r}")


class CombinedGenerator(TestGenerator):
    """Training-set selection followed by gradient-based synthesis.

    Parameters
    ----------
    model: the trained (vendor-side) model.
    training_set: dataset Algorithm 1 selects from.
    switch_policy: ``"adaptive"`` (default) or ``"fixed:<n>"``.
    candidate_pool: optional cap on the number of training candidates scanned.
    gradient_kwargs: forwarded to :class:`GradientTestGenerator` (step size,
        update count, targeting mode, ...).
    """

    method_name = "combined"

    def __init__(
        self,
        model: Sequential,
        training_set: Dataset,
        criterion: Optional[ActivationCriterion] = None,
        switch_policy: str = "adaptive",
        candidate_pool: Optional[int] = None,
        rng: RngLike = None,
        engine: Optional[Engine] = None,
        **gradient_kwargs: object,
    ) -> None:
        super().__init__(model, criterion or default_criterion_for(model), engine)
        self.training_set = training_set
        self.switch_policy = switch_policy
        self._fixed_switch = _parse_switch_policy(switch_policy)
        self._rng = as_generator(rng)
        # one shared engine: the selector's pool masks and the gradient
        # generator's synthesis reuse the same memoized batched passes
        self._selector = TrainingSetSelector(
            model,
            training_set,
            criterion=self.criterion,
            candidate_pool=candidate_pool,
            rng=self._rng,
            engine=self.engine,
        )
        self._gradient = GradientTestGenerator(
            model, criterion=self.criterion, rng=self._rng, engine=self.engine, **gradient_kwargs  # type: ignore[arg-type]
        )

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _gain_per_test(masks: MaskMatrix, tracker: CoverageTracker) -> float:
        """Average per-test gain of a probe batch over ``tracker``'s coverage:
        the parameters its union adds, divided by its size (pure popcount
        arithmetic on the packed masks)."""
        union = CoverageMap(tracker.total_parameters)
        covered = tracker.covered_map
        new_total = 0
        for i in range(len(masks)):
            mask = masks.row(i)
            new_total += mask.andnot_count(covered, union)
            union.union_(mask)
        return new_total / len(masks) / tracker.total_parameters

    def _gain_bound(self, tracker: CoverageTracker) -> float:
        """Upper bound of :meth:`_gain_per_test` for any probe batch.

        A batch adds at most the ``uncovered`` parameters, and it has one
        sample per class.  The bound runs the same divisions in the same
        order, and rounding is monotone, so it bounds the float result too.
        """
        uncovered = tracker.total_parameters - tracker.num_covered
        return uncovered / self.model.num_classes / tracker.total_parameters

    # -- generation ------------------------------------------------------------
    def generate(self, num_tests: int) -> GenerationResult:
        if num_tests <= 0:
            raise ValueError("num_tests must be positive")

        selector = self._selector
        pool_size = len(selector.masks)  # draws the pool before any probe
        pool_indices = selector._pool_indices
        assert pool_indices is not None
        tracker = CoverageTracker(self.model, self.criterion)
        available = np.ones(pool_size, dtype=bool)

        tests: List[np.ndarray] = []
        history: List[float] = []
        gains: List[float] = []
        sources: List[str] = []
        dataset_indices: List[int] = []

        pending_batch: List[np.ndarray] = []
        pending_masks: List[CoverageMap] = []
        switched = False

        while len(tests) < num_tests:
            use_gradient = False
            # the adaptive rule's argmax, reused by this step's selection
            best_training: Optional[int] = None

            if switched:
                use_gradient = True
            elif self._fixed_switch is not None:
                use_gradient = len(tests) >= self._fixed_switch
                switched = use_gradient
            else:
                # adaptive policy: compare best remaining training gain with
                # the per-test gain of a gradient probe.  Availability is an
                # explicit subset — no sentinel values in the gains
                if available.any():
                    best_training, best_training_gain = selector._best(tracker, available)
                else:
                    best_training_gain = -1.0
                bound = self._gain_bound(tracker)
                if bound <= best_training_gain:
                    # the probe cannot win (never so once the pool is empty:
                    # the bound is >= 0); draw its init noise all the same so
                    # the shared stream stays where a probe would leave it
                    self._gradient._init_batch()
                    grad_gain = None
                else:
                    batch, masks = self._gradient._probe(tracker)
                    grad_gain = self._gain_per_test(masks, tracker)
                logger.debug(
                    "adaptive step %d: training gain %.6g, probe bound %.6g, "
                    "probe gain %s",
                    len(tests),
                    best_training_gain,
                    bound,
                    "skipped" if grad_gain is None else f"{grad_gain:.6g}",
                )
                if grad_gain is not None and grad_gain > best_training_gain:
                    use_gradient = True
                    switched = True
                    pending_batch = list(batch)
                    pending_masks = [masks.row(i) for i in range(len(masks))]
                    logger.info(
                        "combined method switching to gradient generation after "
                        "%d tests (training gain %.4f < gradient gain %.4f)",
                        len(tests),
                        best_training_gain,
                        grad_gain,
                    )

            if use_gradient:
                if not pending_batch:
                    batch, masks = self._gradient._probe(tracker)
                    pending_batch = list(batch)
                    pending_masks = [masks.row(i) for i in range(len(masks))]
                sample = pending_batch.pop(0)
                mask = pending_masks.pop(0)
                gain = tracker.add_mask(mask)
                tests.append(sample)
                sources.append("gradient")
                dataset_indices.append(-1)  # synthesised: no dataset origin
            else:
                best, gain = selector._select(tracker, available, best_training)
                tests.append(self.training_set.images[pool_indices[best]])
                sources.append("training")
                dataset_indices.append(int(pool_indices[best]))

            gains.append(gain)
            history.append(tracker.coverage)

        return GenerationResult(
            tests=np.stack(tests, axis=0),
            coverage_history=history,
            gains=gains,
            sources=sources,
            dataset_indices=np.asarray(dataset_indices, dtype=np.int64),
            method=self.method_name,
        )


__all__ = ["CombinedGenerator"]
