"""Series builders for the paper's figures.

* :func:`image_set_coverage` — the three bars of Fig. 2 (noise / off-
  distribution natural images / training set) for one model.
* :func:`coverage_vs_budget` — the curves of Fig. 3 (training-set selection,
  gradient-based generation, combined) on one model.
* :func:`synthetic_sample_report` — the quantitative counterpart of Fig. 4:
  are the synthetic samples classified as intended, and how similar are they
  to real training samples of the same class?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.coverage.parameter_coverage import mean_validation_coverage
from repro.data.datasets import Dataset
from repro.data.imagenet_proxy import generate_imagenet_proxy
from repro.data.noise import generate_noise_images
from repro.nn.model import Sequential
from repro.testgen.base import GenerationResult
from repro.testgen.combined import CombinedGenerator
from repro.testgen.gradient_gen import GradientTestGenerator
from repro.testgen.selection import TrainingSetSelector
from repro.utils.rng import RngLike, as_generator


@dataclass
class ImageSetCoverage:
    """Fig. 2 data point set for one model."""

    model_name: str
    coverage_by_set: Dict[str, float] = field(default_factory=dict)

    def as_rows(self) -> List[Dict[str, object]]:
        return [
            {"model": self.model_name, "image_set": name, "avg_coverage": value}
            for name, value in self.coverage_by_set.items()
        ]


def image_set_coverage(
    model: Sequential,
    training_set: Dataset,
    num_samples: int = 50,
    criterion: Optional[ActivationCriterion] = None,
    noise_mean: float = 0.5,
    noise_std: float = 0.25,
    rng: RngLike = None,
) -> ImageSetCoverage:
    """Average per-sample validation coverage of the three Fig. 2 populations.

    The paper samples 1000 images per population; ``num_samples`` scales that
    down for CPU runs (the comparison is between means, so the ordering is
    stable with far fewer samples).

    The "noisy images of Gaussian distribution" population is modelled as
    pixels drawn i.i.d. from ``N(noise_mean, noise_std)`` clipped to [0, 1]
    (full-contrast static by default).  Note that on the synthetic substrate
    this population does *not* reproduce the paper's low coverage for noise —
    see EXPERIMENTS.md (E2) for the measured values and the explanation.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    gen = as_generator(rng)
    crit = criterion or default_criterion_for(model)
    shape = training_set.sample_shape

    noise = generate_noise_images(
        num_samples, shape, rng=gen, mean=noise_mean, std=noise_std
    )
    natural = generate_imagenet_proxy(num_samples, shape, rng=gen)
    train_subset = training_set.take(min(num_samples, len(training_set)), rng=gen)

    return ImageSetCoverage(
        model_name=model.name,
        coverage_by_set={
            "noise": mean_validation_coverage(model, noise.images, crit),
            "imagenet-proxy": mean_validation_coverage(model, natural.images, crit),
            "training-set": mean_validation_coverage(model, train_subset.images, crit),
        },
    )


@dataclass
class CoverageCurves:
    """Fig. 3 data: coverage-vs-budget curves per generation method."""

    model_name: str
    budgets: List[int]
    curves: Dict[str, List[float]] = field(default_factory=dict)

    def as_rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for method, values in self.curves.items():
            for n, value in zip(self.budgets, values):
                rows.append(
                    {
                        "model": self.model_name,
                        "method": method,
                        "num_tests": n,
                        "coverage": value,
                    }
                )
        return rows

    def crossover_budget(self, method_a: str, method_b: str) -> Optional[int]:
        """Smallest budget at which ``method_b`` overtakes ``method_a``.

        Returns ``None`` when no crossover happens within the evaluated
        budgets.  Used to check the paper's claim that selection wins early
        and gradient generation wins late.
        """
        a, b = self.curves[method_a], self.curves[method_b]
        for n, (va, vb) in zip(self.budgets, zip(a, b)):
            if vb > va:
                return n
        return None


def coverage_vs_budget(
    model: Sequential,
    training_set: Dataset,
    max_tests: int = 30,
    candidate_pool: Optional[int] = 200,
    criterion: Optional[ActivationCriterion] = None,
    rng: RngLike = None,
    gradient_kwargs: Optional[Dict[str, object]] = None,
    include_combined: bool = True,
) -> CoverageCurves:
    """Coverage-vs-number-of-tests curves for the three methods of Fig. 3."""
    if max_tests <= 0:
        raise ValueError("max_tests must be positive")
    gen = as_generator(rng)
    crit = criterion or default_criterion_for(model)
    gkwargs = dict(gradient_kwargs or {})

    selector = TrainingSetSelector(
        model, training_set, criterion=crit, candidate_pool=candidate_pool, rng=gen
    )
    selection_result = selector.generate(max_tests)

    gradient = GradientTestGenerator(model, criterion=crit, rng=gen, **gkwargs)  # type: ignore[arg-type]
    gradient_result = gradient.generate(max_tests)

    curves = {
        "training-selection": list(selection_result.coverage_history),
        "gradient-generation": list(gradient_result.coverage_history),
    }
    if include_combined:
        combined = CombinedGenerator(
            model,
            training_set,
            criterion=crit,
            candidate_pool=candidate_pool,
            rng=gen,
            **gkwargs,  # type: ignore[arg-type]
        )
        combined_result = combined.generate(max_tests)
        curves["combined"] = list(combined_result.coverage_history)

    budgets = list(range(1, max_tests + 1))
    # selection may stop early if the candidate pool is smaller than the budget
    for name, values in curves.items():
        if len(values) < max_tests:
            values.extend([values[-1]] * (max_tests - len(values)))
    return CoverageCurves(model_name=model.name, budgets=budgets, curves=curves)


@dataclass
class SyntheticSampleReport:
    """Fig. 4 counterpart: quality metrics of gradient-synthesised samples."""

    model_name: str
    #: fraction of synthetic samples classified as their intended class
    synthesis_accuracy: float
    #: per-class cosine similarity between the mean training image and the
    #: synthetic image of the same class
    per_class_similarity: Dict[int, float] = field(default_factory=dict)
    #: baseline similarity between mean training images and *mismatched*
    #: synthetic classes, for contrast
    cross_class_similarity: float = 0.0

    @property
    def mean_similarity(self) -> float:
        if not self.per_class_similarity:
            raise ValueError("no per-class similarities recorded")
        return float(np.mean(list(self.per_class_similarity.values())))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    a = a.ravel()
    b = b.ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0
    return float(np.dot(a, b) / denom)


def synthetic_sample_report(
    model: Sequential,
    training_set: Dataset,
    generator: Optional[GradientTestGenerator] = None,
    rng: RngLike = None,
) -> SyntheticSampleReport:
    """Quantify how much synthetic samples resemble real samples of their class.

    Fig. 4 of the paper shows this visually (the synthetic "0" has a circle);
    here the resemblance is measured as the cosine similarity between each
    synthetic sample and the mean training image of its intended class,
    contrasted with the similarity to other classes' means.
    """
    gen_rng = as_generator(rng)
    generator = generator or GradientTestGenerator(model, rng=gen_rng)
    batch = generator.synthesize_batch()
    k = model.num_classes
    predicted = model.predict_classes(batch)
    synthesis_accuracy = float(np.mean(predicted == np.arange(k)))

    class_means = {}
    for c in range(k):
        members = training_set.images[training_set.labels == c]
        if members.shape[0] == 0:
            continue
        class_means[c] = members.mean(axis=0)

    per_class = {}
    cross_values = []
    for c, mean_image in class_means.items():
        per_class[c] = _cosine(batch[c], mean_image)
        for other, other_mean in class_means.items():
            if other != c:
                cross_values.append(_cosine(batch[c], other_mean))

    return SyntheticSampleReport(
        model_name=model.name,
        synthesis_accuracy=synthesis_accuracy,
        per_class_similarity=per_class,
        cross_class_similarity=float(np.mean(cross_values)) if cross_values else 0.0,
    )


__all__ = [
    "ImageSetCoverage",
    "image_set_coverage",
    "CoverageCurves",
    "coverage_vs_budget",
    "SyntheticSampleReport",
    "synthetic_sample_report",
]
