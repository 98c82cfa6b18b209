"""Typed request and result objects for the three paper-level operations.

The façade models the paper's Fig. 1 workflow as three operations, each with
one request dataclass in and one result object out:

* :class:`ReleaseRequest` → :class:`ReleasePackage` — the *vendor* side:
  train (or reuse) a model, generate functional tests, package them;
* :class:`ValidateRequest` → :class:`ValidationOutcome` — the *user* side:
  replay a package against a black-box IP;
* :class:`SweepRequest` → :class:`~repro.campaign.CampaignSummary` — the
  evaluation sweep, delegated to the campaign runner.

Every request is resolvable from a plain dict or a TOML/JSON file (the same
convention as :class:`~repro.campaign.CampaignSpec`), so CLI drivers and
service layers construct them without touching constructor signatures.
Every request also carries a **versioned wire schema**
(:meth:`~repro.api.wire.WireSerde.to_wire` /
:meth:`~repro.api.wire.WireSerde.from_wire`, explicit ``schema_version``):
the :mod:`repro.serve` HTTP endpoint and the in-process
:meth:`~repro.api.Session.validate` path deserialize the exact same
envelope.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.api.config import TableSerde
from repro.api.wire import WireSerde, envelope, open_envelope
from repro.nn.model import Sequential
from repro.testgen.base import GenerationResult
from repro.validation.package import DEFAULT_OUTPUT_ATOL, ValidationPackage
from repro.validation.user import ValidationReport

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# release
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReleaseRequest(WireSerde, TableSerde):
    """Vendor-side request: train a model and release a validation package.

    The preparation fields (``dataset`` … ``width_multiplier``) resolve
    through the ``datasets``/``models`` registry namespaces exactly like the
    campaign runner's per-model step; the generation fields (``strategy``,
    ``criterion``, ``num_tests``, …) mirror one campaign scenario.  Two
    requests differing only in generation fields share the session's cached
    trained model.
    """

    _TABLE = "release"

    # -- preparation --------------------------------------------------------
    dataset: str = "mnist"
    train_size: int = 300
    test_size: int = 80
    #: ``None`` uses the dataset recipe's default epoch count
    epochs: Optional[int] = None
    width_multiplier: float = 0.125
    # -- generation ---------------------------------------------------------
    strategy: str = "combined"
    criterion: str = "default"
    num_tests: int = 20
    candidate_pool: Optional[int] = 100
    gradient_updates: int = 30
    # -- packaging ----------------------------------------------------------
    output_atol: float = DEFAULT_OUTPUT_ATOL
    include_coverage_masks: bool = True
    #: measure per-test discrimination scores against the surrogate attack
    #: suite and ship them as the package's v3 field (drives the sequential
    #: verifier's query order; costs ``discrimination_trials`` perturbed
    #: forward passes per attack family at release time)
    measure_discrimination: bool = False
    discrimination_trials: int = 8
    seed: int = 0

    def validate(self) -> None:
        from repro.registry import registry

        registry.entry("strategies", self.strategy)  # raises on unknown
        if self.train_size <= 0 or self.test_size <= 0:
            raise ValueError("train_size and test_size must be positive")
        if self.epochs is not None and self.epochs <= 0:
            raise ValueError("epochs must be positive when given")
        if self.width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        if self.num_tests <= 0:
            raise ValueError("num_tests must be positive")
        if self.candidate_pool is not None and self.candidate_pool <= 0:
            raise ValueError("candidate_pool must be positive when given")
        if self.gradient_updates <= 0:
            raise ValueError("gradient_updates must be positive")
        if self.output_atol < 0:
            raise ValueError("output_atol must be non-negative")
        if self.discrimination_trials <= 0:
            raise ValueError("discrimination_trials must be positive")


@dataclass
class ReleasePackage:
    """Result of :meth:`repro.api.Session.release`: the shippable artefacts.

    Wraps the :class:`~repro.validation.ValidationPackage` together with the
    trained model it validates and the generation provenance.
    """

    request: ReleaseRequest
    package: ValidationPackage
    model: Sequential
    generation: GenerationResult
    test_accuracy: float

    @property
    def num_tests(self) -> int:
        return self.package.num_tests

    @property
    def coverage(self) -> float:
        """Validation coverage of the released tests (union fraction)."""
        return float(
            self.package.metadata.get("validation_coverage", float("nan"))
        )

    def save(self, directory: PathLike) -> Dict[str, Path]:
        """Write ``model.npz`` and ``package.npz`` into ``directory``.

        Returns the written paths keyed by artefact name — exactly the two
        files of the paper's release channel (Fig. 1).
        """
        from repro.nn.serialization import save_model

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return {
            "model": save_model(self.model, directory / "model.npz"),
            "package": self.package.save(directory / "package.npz"),
        }

    def describe(self) -> str:
        return (
            f"release[{self.request.dataset}/{self.request.strategy}]: "
            f"{self.num_tests} tests, coverage {self.coverage:.3f}, "
            f"model accuracy {self.test_accuracy:.3f}"
        )


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidateRequest(WireSerde, TableSerde):
    """User-side request: replay a validation package against a black-box IP.

    ``package`` may be an in-memory :class:`ValidationPackage` or a path to
    one on disk.  The IP under test is either passed directly to
    :meth:`repro.api.Session.validate` (a model or any callable) or loaded
    from ``model_path`` by rebuilding the named ``arch`` from the ``models``
    registry namespace and loading the shipped parameters into it.
    """

    _TABLE = "validate"

    package: Union[str, ValidationPackage] = ""
    model_path: Optional[str] = None
    #: architecture name used to rebuild the received IP: same value as the
    #: release request's ``dataset`` (dataset recipes apply their
    #: ``width_scale``), or a raw registry model name
    arch: str = "mnist"
    #: same value as the release request's ``width_multiplier``
    width_multiplier: float = 0.125
    #: ``None`` reads the input size from the model file's metadata
    input_size: Optional[int] = None
    #: verify the saved parameter digest while loading (off by default: the
    #: paper's user cannot rely on digests — that is the point of the tests)
    verify_digest: bool = False
    #: ``"full"`` replays every test (the paper's rule); ``"sequential"``
    #: replays in discriminative-power order with SPRT early stopping
    mode: str = "full"
    #: sequential mode: hard cap on queries before an undecided verdict
    query_budget: Optional[int] = None
    #: sequential mode: target decision confidence (alpha = beta = 1 - this)
    confidence: float = 0.99
    #: verify a *remote* IP: base URL of a live ``python -m repro serve``
    #: process; ``model_path`` is then resolved server-side
    remote_url: Optional[str] = None
    #: registry ``transports`` name when a remote target needs a transport
    #: other than the default (``http`` for ``remote_url``)
    transport: Optional[str] = None
    #: inputs per remote round trip (RemoteModel micro-batching)
    micro_batch: Optional[int] = None

    def validate(self) -> None:
        if isinstance(self.package, str) and not self.package:
            raise ValueError("package is required (a path or a ValidationPackage)")
        if self.width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        if self.input_size is not None and self.input_size <= 0:
            raise ValueError("input_size must be positive when given")
        if self.mode not in ("full", "sequential"):
            raise ValueError(f"mode must be 'full' or 'sequential', got {self.mode!r}")
        if self.query_budget is not None and self.query_budget <= 0:
            raise ValueError("query_budget must be positive when given")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.micro_batch is not None and self.micro_batch <= 0:
            raise ValueError("micro_batch must be positive when given")
        if self.transport is not None:
            from repro.registry import registry

            registry.entry("transports", self.transport)  # raises on unknown
        if self.remote_url is not None and self.model_path is None:
            raise ValueError(
                "remote validation needs model_path (the server-side model "
                "file under the serve process's --artifacts-root)"
            )

    def to_dict(self) -> Dict[str, object]:
        if not isinstance(self.package, str):
            raise ValueError(
                "a ValidateRequest holding an in-memory package is not "
                "serialisable; pass a package path instead"
            )
        return super().to_dict()

    def resolve_package(self) -> ValidationPackage:
        if isinstance(self.package, ValidationPackage):
            return self.package
        return ValidationPackage.load(self.package)


@dataclass(frozen=True)
class ValidationOutcome:
    """Result of :meth:`repro.api.Session.validate`.

    A flattened, serialisable view of the user-side
    :class:`~repro.validation.ValidationReport` plus the package metadata
    that produced it.
    """

    passed: bool
    detected: bool
    num_tests: int
    num_mismatched: int
    mismatched_indices: List[int]
    max_output_deviation: float
    label_mismatches: int
    package_metadata: Dict[str, object] = field(default_factory=dict)
    #: which replay rule produced this outcome (``"full"`` or ``"sequential"``)
    mode: str = "full"
    #: sequential mode only: the :class:`~repro.validation.SequentialReport`
    #: dict (verdict, queries-to-decision, thresholds, query ledger)
    sequential: Optional[Dict[str, object]] = None
    #: remote targets only: the transport's :class:`~repro.online.QueryLedger`
    #: stats (queries sent, cache hits, retries, wall time)
    ledger: Optional[Dict[str, object]] = None

    @classmethod
    def from_report(
        cls, report: ValidationReport, package: ValidationPackage
    ) -> "ValidationOutcome":
        return cls(
            passed=report.passed,
            detected=report.detected,
            num_tests=report.num_tests,
            num_mismatched=report.num_mismatched,
            mismatched_indices=list(report.mismatched_indices),
            max_output_deviation=float(report.max_output_deviation),
            label_mismatches=report.label_mismatches,
            package_metadata=dict(package.metadata),
        )

    @classmethod
    def from_sequential_report(
        cls, report: "object", package: ValidationPackage
    ) -> "ValidationOutcome":
        """Flatten a :class:`~repro.validation.SequentialReport`.

        ``num_tests`` stays the package's full fingerprint count (the
        denominator of ``queries_used``); per-test mismatch bookkeeping
        covers only the probed prefix, which is the point of the mode.
        """
        return cls(
            passed=not report.detected,
            detected=report.detected,
            num_tests=report.num_tests,
            num_mismatched=len(report.mismatched_indices),
            mismatched_indices=list(report.mismatched_indices),
            max_output_deviation=float(report.max_output_deviation),
            label_mismatches=0,
            package_metadata=dict(package.metadata),
            mode="sequential",
            sequential=report.to_dict(),
        )

    def summary(self) -> str:
        verdict = "SECURE" if self.passed else "TAMPERED"
        if self.mode == "sequential" and self.sequential is not None:
            return (
                f"{verdict}: sequential verdict after "
                f"{self.sequential['queries_used']}/{self.num_tests} queries "
                f"(confidence {self.sequential['confidence']:g}, "
                f"order={self.sequential['order']}), "
                f"{self.num_mismatched} mismatches, max output deviation "
                f"{self.max_output_deviation:.3e}"
            )
        return (
            f"{verdict}: {self.num_mismatched}/{self.num_tests} tests mismatched, "
            f"max output deviation {self.max_output_deviation:.3e}, "
            f"{self.label_mismatches} predicted labels changed"
        )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_wire(self) -> Dict[str, object]:
        """This outcome as a versioned wire envelope (the HTTP response body)."""
        return envelope("outcome", self.to_dict())

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "ValidationOutcome":
        """Rebuild an outcome from its wire envelope (the client side)."""
        _version, _kind, body = open_envelope(data, expected_kind="outcome")
        return cls(**body)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRequest(WireSerde, TableSerde):
    """Campaign-sweep request: delegate a spec to the resumable runner.

    ``spec`` may be a :class:`~repro.campaign.CampaignSpec`, a plain dict of
    spec fields, or a path to a ``.toml``/``.json`` spec file.
    """

    _TABLE = "sweep"

    spec: "object" = None  # CampaignSpec | dict | path
    store: str = "campaign-results.jsonl"
    #: worker-process shards of the distributed campaign runner (``None``
    #: follows the session config, then the spec; above 1 each shard
    #: appends to its own ``<store>.shard<k>.jsonl``)
    shards: Optional[int] = None
    #: also render the markdown report here after the run
    report: Optional[str] = None

    def validate(self) -> None:
        if self.spec is None:
            raise ValueError("spec is required (a CampaignSpec, dict or path)")
        if not self.store:
            raise ValueError("store is required")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be at least 1 when given")

    def resolve_spec(self):
        from repro.campaign.spec import CampaignSpec

        if isinstance(self.spec, CampaignSpec):
            self.spec.validate()
            return self.spec
        if isinstance(self.spec, dict):
            spec = CampaignSpec.from_dict(self.spec)
            spec.validate()
            return spec
        if isinstance(self.spec, (str, Path)):
            return CampaignSpec.load(self.spec)
        raise TypeError(
            f"cannot resolve a CampaignSpec from {type(self.spec).__name__}"
        )

    def to_dict(self) -> Dict[str, object]:
        from repro.campaign.spec import CampaignSpec

        data = super().to_dict()
        if isinstance(self.spec, CampaignSpec):
            data["spec"] = self.spec.to_dict()
        elif isinstance(self.spec, Path):
            data["spec"] = str(self.spec)
        return data


__all__ = [
    "ReleasePackage",
    "ReleaseRequest",
    "SweepRequest",
    "ValidateRequest",
    "ValidationOutcome",
]
