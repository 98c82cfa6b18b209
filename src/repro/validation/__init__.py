"""The vendor/user functional-validation scheme (Fig. 1) and the
detection-rate experiment harness (Tables II/III)."""

from repro.validation.detection import (
    ATTACK_NAMES,
    DetectionCell,
    DetectionExperiment,
    DetectionTable,
    default_attack_factories,
    replay_trials,
    run_detection_experiment,
    stack_package_prefixes,
)
from repro.validation.package import DEFAULT_OUTPUT_ATOL, FORMAT_VERSION, ValidationPackage
from repro.validation.sequential import (
    SequentialReport,
    clean_floor,
    decide_from_mismatches,
    entropy_order,
    query_order,
)
from repro.validation.user import (
    BlackBoxIP,
    IPUser,
    ValidationReport,
    compare_outputs,
    report_from_outputs,
    validate_ip,
)
from repro.validation.vendor import IPVendor

__all__ = [
    "ATTACK_NAMES",
    "replay_trials",
    "stack_package_prefixes",
    "DetectionCell",
    "DetectionExperiment",
    "DetectionTable",
    "default_attack_factories",
    "run_detection_experiment",
    "DEFAULT_OUTPUT_ATOL",
    "FORMAT_VERSION",
    "SequentialReport",
    "clean_floor",
    "ValidationPackage",
    "decide_from_mismatches",
    "entropy_order",
    "query_order",
    "BlackBoxIP",
    "IPUser",
    "ValidationReport",
    "compare_outputs",
    "report_from_outputs",
    "validate_ip",
    "IPVendor",
]
