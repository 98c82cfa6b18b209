"""The validation package an IP vendor releases alongside the DNN IP.

Figure 1 of the paper: the vendor generates functional tests ``X``, computes
the reference outputs ``Y = F(X)`` on the untampered model, and ships
``(X, Y)`` (encrypted/signed in practice) together with the black-box IP.  The
user replays ``X`` against the received IP and compares the observed outputs
``Y'`` against ``Y``; any mismatch means the IP was perturbed.

:class:`ValidationPackage` captures exactly that artefact, including an
integrity digest over its own contents (standing in for the
encryption/signing the paper assumes) and serialisation to ``.npz`` so vendor
and user can genuinely be separate processes.

Since format version 2 a package may also carry the tests' *packed*
activation masks (:class:`~repro.coverage.bitmap.MaskMatrix`, one bit per
model parameter at 1/8 the dense bytes), so coverage composition can be
audited without white-box access to the vendor's model.  Loading is backward
compatible: format-1 packages (no masks, or legacy dense-boolean masks) load
transparently — dense masks are packed on the way in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.coverage.bitmap import MaskMatrix, pack_bool

PathLike = Union[str, Path]

#: default absolute tolerance when comparing observed and reference logits.
DEFAULT_OUTPUT_ATOL = 1e-6

#: on-disk format version written by :meth:`ValidationPackage.save`.
#: v1: tests + outputs only (dense-boolean ``coverage_masks`` in some
#: pre-release builds); v2: optional packed ``coverage_words`` + ``coverage_bits``;
#: v3: optional per-test ``discrimination`` scores for sequential verification.
#: ``save`` is content-driven: a package that carries no v3 payload is still
#: written as format 2 so older readers keep working.
FORMAT_VERSION = 3


def _digest_arrays(
    tests: np.ndarray,
    outputs: np.ndarray,
    coverage_masks: Optional[MaskMatrix] = None,
    discrimination: Optional[np.ndarray] = None,
) -> str:
    """SHA-256 digest binding the package payload together.

    Covers ``(X, Y)`` and, when present, the packed coverage masks and the
    discrimination scores — every byte the package ships must be
    authenticated, or a man-in-the-middle could rewrite the auditable
    coverage record (or reorder the verifier's query schedule) while the
    digest still verifies.  v1 packages never carried masks, so their stored
    digests (tests + outputs only) keep verifying under this definition.
    """
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(np.round(tests, 12)).tobytes())
    hasher.update(np.ascontiguousarray(np.round(outputs, 12)).tobytes())
    if coverage_masks is not None:
        hasher.update(str(coverage_masks.nbits).encode("ascii"))
        hasher.update(np.ascontiguousarray(coverage_masks.words).tobytes())
    if discrimination is not None:
        hasher.update(b"discrimination")
        hasher.update(np.ascontiguousarray(np.round(discrimination, 12)).tobytes())
    return hasher.hexdigest()


@dataclass
class ValidationPackage:
    """Functional tests plus their reference outputs.

    Attributes
    ----------
    tests: the functional test inputs, shape ``(N, *input_shape)``.
    expected_outputs: reference logits ``Y = F(X)`` from the untampered model,
        shape ``(N, num_classes)``, all finite.
    expected_labels: reference predicted classes (redundant with the logits
        but convenient for label-only comparison modes).
    output_atol: tolerance used when comparing observed logits against the
        reference (accounts for benign numeric differences across platforms).
    coverage_masks: optional packed per-test activation masks
        (:class:`~repro.coverage.bitmap.MaskMatrix`, one row per test, one
        bit per vendor-model parameter).
    metadata: free-form information (model name, generator, coverage
        achieved, creation settings).
    discrimination: optional per-test discriminative-power scores (format
        v3) — the fraction of the vendor's surrogate attack suite each test
        detected at release time.  Sequential verification replays tests in
        descending score order so the most telling queries are spent first.
    """

    tests: np.ndarray
    expected_outputs: np.ndarray
    expected_labels: np.ndarray = field(default=None)  # type: ignore[assignment]
    output_atol: float = DEFAULT_OUTPUT_ATOL
    coverage_masks: Optional[MaskMatrix] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    discrimination: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.tests = np.asarray(self.tests, dtype=np.float64)
        self.expected_outputs = np.asarray(self.expected_outputs, dtype=np.float64)
        if self.tests.shape[0] == 0:
            raise ValueError("a validation package must contain at least one test")
        if self.tests.shape[0] != self.expected_outputs.shape[0]:
            raise ValueError(
                f"test count {self.tests.shape[0]} does not match output count "
                f"{self.expected_outputs.shape[0]}"
            )
        if self.expected_outputs.ndim != 2:
            raise ValueError("expected_outputs must be a 2-D (N, num_classes) array")
        if not np.all(np.isfinite(self.expected_outputs)):
            # reference outputs are finite, so a NaN can only come from a suspect
            raise ValueError("expected_outputs must be finite")
        if self.output_atol < 0:
            raise ValueError("output_atol must be non-negative")
        if self.expected_labels is None:
            self.expected_labels = np.argmax(self.expected_outputs, axis=1)
        else:
            self.expected_labels = np.asarray(self.expected_labels, dtype=np.int64)
            if self.expected_labels.shape[0] != self.tests.shape[0]:
                raise ValueError("expected_labels length does not match test count")
        if self.coverage_masks is not None:
            if not isinstance(self.coverage_masks, MaskMatrix):
                # accept a dense boolean matrix and pack it
                self.coverage_masks = MaskMatrix.from_dense(
                    np.asarray(self.coverage_masks, dtype=bool)
                )
            if len(self.coverage_masks) != self.tests.shape[0]:
                raise ValueError(
                    f"coverage_masks has {len(self.coverage_masks)} rows, "
                    f"expected one per test ({self.tests.shape[0]})"
                )
        if self.discrimination is not None:
            self.discrimination = np.asarray(self.discrimination, dtype=np.float64)
            if self.discrimination.ndim != 1:
                raise ValueError("discrimination must be a 1-D per-test score array")
            if self.discrimination.shape[0] != self.tests.shape[0]:
                raise ValueError(
                    f"discrimination has {self.discrimination.shape[0]} scores, "
                    f"expected one per test ({self.tests.shape[0]})"
                )

    # -- properties --------------------------------------------------------
    @property
    def num_tests(self) -> int:
        return int(self.tests.shape[0])

    def digest(self) -> str:
        """Integrity digest over the full payload (tests, outputs, masks, scores)."""
        return _digest_arrays(
            self.tests,
            self.expected_outputs,
            self.coverage_masks,
            self.discrimination,
        )

    def coverage_fraction(self) -> Optional[float]:
        """VC(X) recomputed from the stored packed masks (None without masks)."""
        if self.coverage_masks is None:
            return None
        return self.coverage_masks.union().fraction

    def subset(self, n: int) -> "ValidationPackage":
        """Package restricted to the first ``n`` tests (budget sweeps)."""
        if n <= 0 or n > self.num_tests:
            raise ValueError(f"n must be in [1, {self.num_tests}], got {n}")
        return ValidationPackage(
            tests=self.tests[:n].copy(),
            expected_outputs=self.expected_outputs[:n].copy(),
            expected_labels=self.expected_labels[:n].copy(),
            output_atol=self.output_atol,
            coverage_masks=(
                self.coverage_masks.take(range(n))
                if self.coverage_masks is not None
                else None
            ),
            metadata=dict(self.metadata),
            discrimination=(
                self.discrimination[:n].copy()
                if self.discrimination is not None
                else None
            ),
        )

    # -- serialisation -------------------------------------------------------
    def save(self, path: PathLike) -> Path:
        """Serialise the package (with its digest) to an ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # content-driven version: only stamp v3 when a v3 payload is present,
        # so packages without discrimination scores stay readable by v2 builds
        version = FORMAT_VERSION if self.discrimination is not None else 2
        meta: Dict[str, object] = {
            "format": version,
            "output_atol": self.output_atol,
            "digest": self.digest(),
            "metadata": self.metadata,
        }
        arrays: Dict[str, np.ndarray] = {
            "tests": self.tests,
            "expected_outputs": self.expected_outputs,
            "expected_labels": self.expected_labels,
        }
        if self.coverage_masks is not None:
            meta["coverage_bits"] = int(self.coverage_masks.nbits)
            arrays["coverage_words"] = self.coverage_masks.words
        if self.discrimination is not None:
            arrays["discrimination"] = self.discrimination
        np.savez(
            path,
            __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            **arrays,
        )
        return path

    @classmethod
    def load(cls, path: PathLike, verify_digest: bool = True) -> "ValidationPackage":
        """Load a package, verifying its integrity digest by default.

        Reads every on-disk format: v3 (per-test ``discrimination`` scores),
        v2 (packed ``coverage_words``), v1 without masks, and v1 with legacy
        dense-boolean ``coverage_masks`` (packed transparently on load).
        Formats newer than this build knows are refused with an explicit
        version error rather than a missing-key crash.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"validation package not found: {path}")
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
            version = int(meta.get("format", 1))
            if version > FORMAT_VERSION:
                raise ValueError(
                    f"validation package {path} has format {version}, but this "
                    f"build only reads formats up to {FORMAT_VERSION} — upgrade "
                    "repro to a release that understands this package format"
                )
            coverage_masks: Optional[MaskMatrix] = None
            if "coverage_words" in data.files:
                coverage_masks = MaskMatrix(
                    int(meta["coverage_bits"]), data["coverage_words"]
                )
            elif "coverage_masks" in data.files:  # legacy v1 dense storage
                dense = np.asarray(data["coverage_masks"], dtype=bool)
                coverage_masks = MaskMatrix(dense.shape[1], pack_bool(dense))
            discrimination: Optional[np.ndarray] = None
            if "discrimination" in data.files:
                discrimination = np.asarray(data["discrimination"], dtype=np.float64)
            package = cls(
                tests=data["tests"],
                expected_outputs=data["expected_outputs"],
                expected_labels=data["expected_labels"],
                output_atol=float(meta["output_atol"]),
                coverage_masks=coverage_masks,
                metadata=dict(meta.get("metadata", {})),
                discrimination=discrimination,
            )
        if verify_digest:
            # v1 writers digested tests+outputs only (masks, if any, were a
            # pre-release extra the digest never covered); v2 digests span
            # the full payload including the packed masks
            expected = (
                _digest_arrays(package.tests, package.expected_outputs)
                if version < 2
                else package.digest()
            )
            if expected != meta.get("digest"):
                raise ValueError(
                    f"validation package {path} failed its integrity check: "
                    "contents were modified after creation"
                )
        return package


__all__ = ["ValidationPackage", "DEFAULT_OUTPUT_ATOL", "FORMAT_VERSION"]
