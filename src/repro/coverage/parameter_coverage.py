"""Validation coverage — the paper's core metric (Section IV-A).

``VC(x)`` is the fraction of network parameters activated by a single test
(Eq. 3); ``VC(X)`` is the fraction activated by at least one test in a set
(Eq. 4-5).  The module provides:

* :func:`activation_mask` / :func:`activation_masks` — the boolean
  per-parameter activation mask of one sample (or, batched, of a whole pool),
  computed from ``∇θ F(x)``;
* :func:`validation_coverage` / :func:`set_validation_coverage` — the scalar
  metrics VC(x) and VC(X);
* :func:`mean_validation_coverage` — the Fig. 2 quantity ``mean_i VC(x_i)``,
  computed with one batched forward/backward through the execution engine
  (:func:`mean_validation_coverage_reference` keeps the per-sample loop as a
  reference implementation for equivalence testing);
* :class:`ParameterCoverage` — the
  :class:`~repro.coverage.bitmap.CoverageCriterion` implementation for this
  metric (pluggable alongside neuron coverage).  Algorithm 1
  (:class:`~repro.testgen.selection.TrainingSetSelector`) builds its
  candidate pool's packed masks through it once, so each greedy step is a
  pure bitset operation;
* :class:`CoverageTracker` — incremental union bookkeeping used by the greedy
  test-generation algorithms, where marginal gains must be cheap.

Masks are stored *packed* (:mod:`repro.coverage.bitmap`): 64 parameters per
uint64 word, 1/8 the bytes of the dense boolean representation, with marginal
gains computed as ``popcount(candidate & ~covered)``.  Packing is lossless
and all greedy argmax tie-breaking matches the dense implementation exactly;
dense arrays remain accepted everywhere and available via explicit
materialisation (``.masks``, ``covered_mask``).

All batched paths go through :class:`repro.engine.Engine`; every function
accepts an optional ``engine`` so callers can share one memoizing engine
across the coverage, test-generation and analysis layers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.coverage.bitmap import CoverageCriterion, MaskMatrix, PackedCoverageTracker
from repro.engine import Engine, resolve_engine
from repro.nn.model import Sequential


def activation_mask(
    model: Sequential,
    x: np.ndarray,
    criterion: Optional[ActivationCriterion] = None,
) -> np.ndarray:
    """Boolean mask over the flat parameter vector activated by sample ``x``.

    Entry ``i`` is True when ``|∇θi F(x)|`` exceeds the criterion's threshold,
    i.e. a perturbation of parameter ``i`` would move the output for ``x``.
    """
    crit = criterion or default_criterion_for(model)
    grads = model.output_gradients(x, scalarization=crit.scalarization)
    return crit.activated(grads)


def activation_masks(
    model: Sequential,
    images: np.ndarray,
    criterion: Optional[ActivationCriterion] = None,
    engine: Optional[Engine] = None,
) -> np.ndarray:
    """Batched :func:`activation_mask`: ``(N, num_parameters)`` boolean matrix.

    Row ``i`` equals ``activation_mask(model, images[i], criterion)``, but the
    whole pool is evaluated with chunked batched forward/backward passes
    through the execution engine.  For large pools prefer
    :func:`packed_activation_masks`, which never materialises the dense
    matrix.
    """
    crit = criterion or default_criterion_for(model)
    eng = resolve_engine(model, crit, engine, cache=False)
    return eng.activation_masks(np.asarray(images), crit)


def packed_activation_masks(
    model: Sequential,
    images: np.ndarray,
    criterion: Optional[ActivationCriterion] = None,
    engine: Optional[Engine] = None,
    memory_budget_bytes: Optional[int] = None,
) -> MaskMatrix:
    """Packed :func:`activation_masks`: a
    :class:`~repro.coverage.bitmap.MaskMatrix` at 1/8 the dense bytes.

    Built streaming — each gradient chunk is thresholded, packed and dropped —
    so peak transient memory is one chunk's gradients (cappable via
    ``memory_budget_bytes``), not the whole pool's.
    """
    crit = criterion or default_criterion_for(model)
    eng = resolve_engine(model, crit, engine, cache=False)
    return eng.packed_activation_masks(
        np.asarray(images), crit, memory_budget_bytes=memory_budget_bytes
    )


def validation_coverage(
    model: Sequential,
    x: np.ndarray,
    criterion: Optional[ActivationCriterion] = None,
) -> float:
    """``VC(x)``: fraction of parameters activated by a single test (Eq. 3)."""
    mask = activation_mask(model, x, criterion)
    return float(mask.mean())


def set_validation_coverage(
    model: Sequential,
    tests: np.ndarray | Sequence[np.ndarray],
    criterion: Optional[ActivationCriterion] = None,
    engine: Optional[Engine] = None,
) -> float:
    """``VC(X)``: fraction of parameters activated by at least one test (Eq. 4).

    The union over the test set is computed word-wise on packed masks — the
    dense ``(N, P)`` matrix is never materialised.
    """
    if not isinstance(tests, np.ndarray):
        tests = (
            np.stack([np.asarray(t) for t in tests], axis=0)
            if len(tests)
            else np.zeros((0, *(model.input_shape or ())))
        )
    if tests.shape[0] == 0:
        return 0.0  # an empty test set activates nothing
    packed = packed_activation_masks(model, tests, criterion, engine)
    return packed.union().fraction


def mean_validation_coverage(
    model: Sequential,
    images: np.ndarray,
    criterion: Optional[ActivationCriterion] = None,
    engine: Optional[Engine] = None,
) -> float:
    """Mean per-sample coverage ``mean_i VC(x_i)`` — the quantity plotted in Fig. 2.

    Computed with one batched forward/backward per chunk instead of one pair
    of passes per image; numerically equivalent (≤ 1e-8) to
    :func:`mean_validation_coverage_reference`.
    """
    images = np.asarray(images)
    if images.shape[0] == 0:
        raise ValueError("cannot average over an empty image set")
    packed = packed_activation_masks(model, images, criterion, engine)
    return float(packed.fractions().mean())


def mean_validation_coverage_reference(
    model: Sequential,
    images: np.ndarray,
    criterion: Optional[ActivationCriterion] = None,
) -> float:
    """Per-sample reference implementation of :func:`mean_validation_coverage`.

    Loops one forward/backward pass per image.  Kept (unbatched, engine-free)
    as the ground truth the batched path is property-tested against, and as
    the baseline of ``benchmarks/bench_engine.py``.
    """
    images = np.asarray(images)
    if images.shape[0] == 0:
        raise ValueError("cannot average over an empty image set")
    crit = criterion or default_criterion_for(model)
    values = [validation_coverage(model, images[i], crit) for i in range(images.shape[0])]
    return float(np.mean(values))


class ParameterCoverage(CoverageCriterion):
    """The paper's parameter (validation) coverage as a pluggable criterion.

    Bit space: one bit per scalar model parameter; a bit is set when the
    activation criterion's gradient threshold is exceeded.
    """

    name = "parameter"

    def __init__(self, criterion: Optional[ActivationCriterion] = None) -> None:
        self.criterion = criterion

    def _resolved(self, model: Sequential) -> ActivationCriterion:
        return self.criterion or default_criterion_for(model)

    def num_bits(self, model: Sequential) -> int:
        return model.num_parameters()

    def mask_matrix(
        self, model: Sequential, images: np.ndarray, engine: Optional[Engine] = None
    ) -> MaskMatrix:
        return packed_activation_masks(model, images, self._resolved(model), engine)

    def tracker(self, model: Sequential) -> "CoverageTracker":
        return CoverageTracker(model, self._resolved(model))


class CoverageTracker(PackedCoverageTracker):
    """Running union of activated parameters over an incrementally built test set.

    The greedy algorithms repeatedly ask "how much would adding this sample
    increase VC(X)?"; with the tracker this is one word-wise bitset operation
    (``popcount(mask & ~covered)``) on the packed covered map.
    """

    def __init__(
        self,
        model: Sequential,
        criterion: Optional[ActivationCriterion] = None,
    ) -> None:
        total = model.num_parameters()
        if total == 0:
            raise ValueError("model has no parameters to cover")
        super().__init__(total)
        self._model = model
        self.criterion = criterion or default_criterion_for(model)

    # -- state -------------------------------------------------------------
    @property
    def total_parameters(self) -> int:
        return self._total

    # -- queries -----------------------------------------------------------
    def mask_for(self, x: np.ndarray) -> np.ndarray:
        """Activation mask of a sample under this tracker's criterion."""
        return activation_mask(self._model, x, self.criterion)

    def marginal_gain_of_sample(self, x: np.ndarray) -> float:
        """Marginal gain of a raw sample (computes its mask first)."""
        return self.marginal_gain(self.mask_for(x))

    # -- updates -----------------------------------------------------------
    def add_sample(self, x: np.ndarray) -> float:
        """Compute the sample's mask and union it in; returns the gain."""
        return self.add_mask(self.mask_for(x))

    def add_batch(self, batch: np.ndarray, engine: Optional[Engine] = None) -> float:
        """Union a whole batch of samples in one engine pass; returns the
        total coverage gain of the batch."""
        packed = packed_activation_masks(self._model, batch, self.criterion, engine)
        before = self.num_covered
        self._covered.union_(packed.union())
        self._num_tests += len(packed)
        return (self.num_covered - before) / self._total


__all__ = [
    "activation_mask",
    "activation_masks",
    "packed_activation_masks",
    "validation_coverage",
    "set_validation_coverage",
    "mean_validation_coverage",
    "mean_validation_coverage_reference",
    "ParameterCoverage",
    "CoverageTracker",
]
