"""Algorithm 2 — gradient-based generation of new functional tests.

When selecting from the training set saturates, the paper synthesises new
tests: starting from an (almost) blank input, gradient descent *on the input*
drives down a per-class loss until the network classifies the synthetic input
as that class (Eq. 8).  One round produces ``k`` samples, one per output
class, because a batch covering every category has the best chance of
activating many parameters.

Two targeting modes are provided:

* ``target="model"`` — the literal Algorithm 2: the loss is evaluated on the
  full network.  Successive rounds differ through their random
  initialisation, otherwise every round would synthesise identical samples.
* ``target="residual"`` (default) — the paper's stated intuition ("samples
  which can be classified correctly by the network consisting of the
  un-activated parameters", Section IV-C): before each round the already
  activated parameters are zeroed out in a scratch copy of the model, and the
  synthesis loss is evaluated on that residual network.  This explicitly
  steers each round towards the parameters still missing from the coverage
  union, which is what lets the gradient-based curve in Fig. 3 keep climbing.

Coverage bookkeeping is always done on the *original* model.

A round stops descending as soon as its input gradient is exactly zero: the
input can no longer move, so the remaining updates would only repeat the same
zero step (see :meth:`GradientTestGenerator.synthesize_batch`).  Once most
parameters are covered, the residual network's logits are constant and this
happens on the first update.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.coverage.bitmap import MaskMatrix
from repro.coverage.parameter_coverage import CoverageTracker
from repro.engine import Engine
from repro.nn.losses import Loss, get_loss
from repro.nn.model import Sequential
from repro.testgen.base import GenerationResult, TestGenerator
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, as_generator

logger = get_logger("testgen.gradient")

TARGET_MODES = ("model", "residual")


class GradientTestGenerator(TestGenerator):
    """Gradient-based synthesis of functional tests (Algorithm 2).

    Parameters
    ----------
    model: the trained (vendor-side) model.
    step_size: gradient-descent step size η in Eq. 8.
    max_updates: number of input updates T per synthesis round.
    target: ``"residual"`` (default, see module docstring) or ``"model"``.
    loss: loss J driven down during synthesis; the softmax cross-entropy by
        default, ``"negative_logit"`` is a useful alternative when the softmax
        saturates.
    init_noise_std: standard deviation of the random initialisation around
        zero.  The paper initialises with exact zeros; a small jitter keeps
        successive rounds from being identical in ``"model"`` mode and is
        harmless in ``"residual"`` mode.
    clip_range: optional ``(low, high)`` range the synthetic inputs are kept
        inside (images live in [0, 1]); ``None`` disables clipping.
    """

    method_name = "gradient-generation"

    def __init__(
        self,
        model: Sequential,
        criterion: Optional[ActivationCriterion] = None,
        step_size: float = 0.1,
        max_updates: int = 50,
        target: str = "residual",
        loss: str | Loss = "cross_entropy",
        init_noise_std: float = 0.01,
        clip_range: Optional[Tuple[float, float]] = (0.0, 1.0),
        rng: RngLike = None,
        engine: Optional[Engine] = None,
    ) -> None:
        super().__init__(model, criterion or default_criterion_for(model), engine)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if max_updates <= 0:
            raise ValueError("max_updates must be positive")
        if target not in TARGET_MODES:
            raise ValueError(f"target must be one of {TARGET_MODES}, got {target!r}")
        if init_noise_std < 0:
            raise ValueError("init_noise_std must be non-negative")
        if clip_range is not None and clip_range[0] >= clip_range[1]:
            raise ValueError("clip_range must be (low, high) with low < high")
        self.step_size = float(step_size)
        self.max_updates = int(max_updates)
        self.target = target
        self.loss = get_loss(loss)
        self.init_noise_std = float(init_noise_std)
        # ``+ 0.0`` folds a ``-0.0`` bound to ``+0.0``: the synthetic inputs
        # then never hold ``-0.0``, which the zero-gradient stop relies on
        self.clip_range = (
            None if clip_range is None else (clip_range[0] + 0.0, clip_range[1] + 0.0)
        )
        self._rng = as_generator(rng)

    # -- synthesis ----------------------------------------------------------
    def _init_batch(self) -> np.ndarray:
        """A round's starting point: zeros plus the clipped noise draw.

        This is the only place a round draws from the shared generator, so a
        round that is never synthesised (the combined method's skipped
        probes) advances the stream exactly as one that is.
        """
        shape = (self.model.num_classes, *self.model.input_shape)  # type: ignore[misc]
        x = np.zeros(shape, dtype=np.float64)
        if self.init_noise_std > 0:
            x += self._rng.normal(0.0, self.init_noise_std, size=shape)
            if self.clip_range is not None:
                np.clip(x, *self.clip_range, out=x)
        return x

    def synthesize_batch(
        self, synthesis_model: Optional[Sequential] = None
    ) -> np.ndarray:
        """One round of Algorithm 2: ``k`` synthetic samples, one per class.

        ``synthesis_model`` is the network the loss is evaluated on; by
        default the wrapped model itself (``"model"`` mode behaviour).

        All ``k`` per-class updates are driven as one batch: every descent
        step is a single batched input-gradient query through the execution
        engine rather than ``k`` per-class passes.

        The descent stops at the first input gradient that is exactly zero,
        and the result is the same as running all ``max_updates`` steps:

        * ``x - η·0`` equals ``x`` for every ``x`` except ``-0.0``;
        * ``x`` never holds ``-0.0``: the init is ``+0.0`` plus the noise
          (``+0.0 + d`` is ``-0.0`` for no ``d``), clipped against bounds
          folded to ``+0.0``, and neither an update nor a clip turns ``+0.0``
          or a nonzero value into ``-0.0``;
        * so ``x`` stays as it is, and every later gradient is the same zero;
        * the random draw happens in :meth:`_init_batch`, before the loop, so
          the generator's stream does not depend on where the loop stops.

        A NaN gradient is not zero (``grad.any()`` is true), so it does not
        stop the loop.
        """
        target_model = synthesis_model or self.model
        if target_model is self.model:
            engine = self.engine
        else:
            # residual scratch copies are used for one round only — a fresh
            # uncached engine avoids hashing throwaway parameters
            engine = Engine(target_model, criterion=self.criterion, cache=False)
        x = self._init_batch()
        targets = np.arange(len(x))
        for _ in range(self.max_updates):
            _, grad = engine.input_gradients(x, targets, self.loss)
            if not grad.any():
                break
            x = x - self.step_size * grad
            if self.clip_range is not None:
                np.clip(x, *self.clip_range, out=x)
        return x

    def _residual_model(self, covered: np.ndarray) -> Sequential:
        """Scratch copy of the model with the already-covered parameters zeroed."""
        scratch = self.model.copy()
        view = scratch.parameter_view()
        flat = view.flat_values()
        flat[covered] = 0.0
        view.set_flat_values(flat)
        return scratch

    def _probe(self, tracker: CoverageTracker) -> Tuple[np.ndarray, MaskMatrix]:
        """Synthesise one round against ``tracker``'s coverage state.

        Returns the batch and its packed activation masks on the original
        model (one engine pass for the whole batch).
        """
        if self.target == "residual":
            synthesis_model = self._residual_model(tracker.covered_mask)
        else:
            synthesis_model = self.model
        batch = self.synthesize_batch(synthesis_model)
        return batch, self.engine.packed_activation_masks(batch, self.criterion)

    # -- generation ---------------------------------------------------------
    def generate(self, num_tests: int) -> GenerationResult:
        """Generate ``num_tests`` synthetic functional tests."""
        if num_tests <= 0:
            raise ValueError("num_tests must be positive")
        tracker = CoverageTracker(self.model, self.criterion)

        tests: List[np.ndarray] = []
        history: List[float] = []
        gains: List[float] = []

        while len(tests) < num_tests:
            batch, batch_masks = self._probe(tracker)
            for i in range(len(batch_masks)):
                if len(tests) >= num_tests:
                    break
                gain = tracker.add_mask(batch_masks.row(i))
                tests.append(batch[i])
                gains.append(gain)
                history.append(tracker.coverage)
            logger.debug(
                "gradient generation: %d/%d tests, coverage %.3f",
                len(tests),
                num_tests,
                tracker.coverage,
            )

        return GenerationResult(
            tests=np.stack(tests, axis=0),
            coverage_history=history,
            gains=gains,
            sources=["gradient"] * len(tests),
            dataset_indices=np.full(len(tests), -1, dtype=np.int64),
            method=self.method_name,
        )

    # -- diagnostics -----------------------------------------------------------
    def synthesis_accuracy(self, batch: Optional[np.ndarray] = None) -> float:
        """Fraction of a synthetic batch classified as its intended class.

        The paper argues synthetic samples work because the model classifies
        them correctly (Fig. 4); this returns that fraction for one batch.
        """
        if batch is None:
            batch = self.synthesize_batch()
        k = self.model.num_classes
        if batch.shape[0] != k:
            raise ValueError(f"expected one sample per class ({k}), got {batch.shape[0]}")
        predicted = self.model.predict_classes(batch)
        return float(np.mean(predicted == np.arange(k)))


__all__ = ["GradientTestGenerator", "TARGET_MODES"]
