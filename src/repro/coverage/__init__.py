"""Coverage metrics: the paper's parameter (validation) coverage and the
neuron-coverage baseline it is compared against.

Pool masks are stored packed (:mod:`repro.coverage.bitmap` — 64 coverage
targets per uint64 word, popcount marginal gains); both metrics implement the
pluggable :class:`~repro.coverage.bitmap.CoverageCriterion` protocol, through
which the one greedy loop
(:class:`~repro.testgen.selection.TrainingSetSelector`) builds its candidate
pool's :class:`~repro.coverage.bitmap.MaskMatrix`.
Batched mask/coverage computation runs through :mod:`repro.engine`; the
single-sample functions remain as reference implementations."""

from repro.coverage.bitmap import (
    CoverageCriterion,
    CoverageMap,
    MaskMatrix,
    MmapMaskMatrix,
    MmapMaskWriter,
    PackedCoverageTracker,
    pack_bool,
    packed_nbytes,
    popcount,
    popcount_rows,
    unpack_words,
)
from repro.coverage.activation import (
    ActivationCriterion,
    default_criterion_for,
    resolve_criterion,
)
from repro.coverage.neuron_coverage import (
    NeuronCoverage,
    NeuronCoverageTracker,
    count_neurons,
    neuron_activation_mask,
    neuron_activation_masks,
    neuron_coverage,
    packed_neuron_masks,
)
from repro.coverage.parameter_coverage import (
    CoverageTracker,
    ParameterCoverage,
    activation_mask,
    activation_masks,
    mean_validation_coverage,
    mean_validation_coverage_reference,
    packed_activation_masks,
    set_validation_coverage,
    validation_coverage,
)

__all__ = [
    "ActivationCriterion",
    "default_criterion_for",
    "resolve_criterion",
    # packed representation
    "CoverageCriterion",
    "CoverageMap",
    "MaskMatrix",
    "MmapMaskMatrix",
    "MmapMaskWriter",
    "PackedCoverageTracker",
    "pack_bool",
    "packed_nbytes",
    "popcount",
    "popcount_rows",
    "unpack_words",
    # neuron coverage
    "NeuronCoverage",
    "NeuronCoverageTracker",
    "count_neurons",
    "neuron_activation_mask",
    "neuron_activation_masks",
    "neuron_coverage",
    "packed_neuron_masks",
    # parameter coverage
    "CoverageTracker",
    "ParameterCoverage",
    "activation_mask",
    "activation_masks",
    "mean_validation_coverage",
    "mean_validation_coverage_reference",
    "packed_activation_masks",
    "set_validation_coverage",
    "validation_coverage",
]
