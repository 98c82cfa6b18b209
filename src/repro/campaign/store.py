"""Append-only JSONL result store keyed by scenario digest.

Every completed scenario becomes one JSON line; the scenario digest (spec
hash + seed + code-relevant versions, see
:meth:`~repro.campaign.spec.CampaignSpec.scenario_digest`) is the primary
key.  The runner consults :meth:`ResultStore.completed_digests` before
executing, so an interrupted or re-triggered campaign skips everything
already on disk — and because records contain no wall-clock or host state, a
resumed campaign's store is byte-identical to an uninterrupted one.

A truncated final line (the classic kill-mid-write artefact) is tolerated on
load: the partial line is ignored with a warning and the next append starts
on a fresh line, so a crashed campaign resumes without manual repair.

Failures are first-class: a scenario that raises is **quarantined** as a
:class:`FailureRecord` line (``"kind": "failure"``) instead of aborting the
campaign.  Quarantined digests do not count as completed, so ``resume``
naturally retries them — and the success that eventually lands *replaces*
the stale failure line (via the same atomic-repair mechanism as torn-line
recovery), leaving a fully-successful store byte-identical to one from an
uninterrupted run.

``durable=True`` adds an ``fsync`` per append for crash-recovery guarantees
(default off: the OS may buffer, which is fine for resumable campaigns).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.utils.logging import get_logger

logger = get_logger("campaign.store")

PathLike = Union[str, Path]

#: bump when the record layout changes incompatibly
STORE_SCHEMA_VERSION = 1


@dataclass
class ScenarioRecord:
    """One completed scenario: its identity, outcome and context.

    ``detections``/``trials`` are the raw Tables II/III counters;
    ``coverage`` is the validation coverage of the scenario's test prefix
    (from the package's packed masks).  ``extra`` carries auxiliary
    deterministic facts (perturbation statistics, package coverage at max
    budget) that reports may use but the drift gate ignores.
    """

    digest: str
    scenario: Dict[str, object]
    seed: int
    trials: int
    detections: int
    coverage: float
    campaign: str = "campaign"
    schema: int = STORE_SCHEMA_VERSION
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def detection_rate(self) -> float:
        if self.trials <= 0:
            raise ValueError("record has no trials")
        return self.detections / self.trials

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "digest": self.digest,
            "campaign": self.campaign,
            "scenario": self.scenario,
            "seed": self.seed,
            "trials": self.trials,
            "detections": self.detections,
            "detection_rate": self.detection_rate,
            "coverage": self.coverage,
            "extra": self.extra,
        }

    def to_json_line(self) -> str:
        """Canonical one-line encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioRecord":
        return cls(
            digest=str(data["digest"]),
            scenario=dict(data["scenario"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            trials=int(data["trials"]),  # type: ignore[arg-type]
            detections=int(data["detections"]),  # type: ignore[arg-type]
            coverage=float(data["coverage"]),  # type: ignore[arg-type]
            campaign=str(data.get("campaign", "campaign")),
            schema=int(data.get("schema", STORE_SCHEMA_VERSION)),  # type: ignore[arg-type]
            extra=dict(data.get("extra", {})),  # type: ignore[arg-type]
        )


@dataclass
class FailureRecord:
    """One quarantined scenario: what failed, where, and how many times.

    Serialized into the same JSONL stream as successes, discriminated by a
    ``"kind": "failure"`` field (success lines have no ``kind``).  A failure
    never marks its digest completed — ``resume`` retries it — and the
    eventual success *replaces* the failure line in the file.
    """

    digest: str
    scenario: Dict[str, object]
    seed: int
    error: str
    message: str
    stage: str = "trials"
    attempts: int = 1
    campaign: str = "campaign"
    schema: int = STORE_SCHEMA_VERSION
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "failure",
            "schema": self.schema,
            "digest": self.digest,
            "campaign": self.campaign,
            "scenario": self.scenario,
            "seed": self.seed,
            "error": self.error,
            "message": self.message,
            "stage": self.stage,
            "attempts": self.attempts,
            "extra": self.extra,
        }

    def to_json_line(self) -> str:
        """Canonical one-line encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FailureRecord":
        if data.get("kind") != "failure":
            raise ValueError("not a failure record")
        return cls(
            digest=str(data["digest"]),
            scenario=dict(data["scenario"]),  # type: ignore[arg-type]
            seed=int(data["seed"]),  # type: ignore[arg-type]
            error=str(data["error"]),
            message=str(data["message"]),
            stage=str(data.get("stage", "trials")),
            attempts=int(data.get("attempts", 1)),  # type: ignore[arg-type]
            campaign=str(data.get("campaign", "campaign")),
            schema=int(data.get("schema", STORE_SCHEMA_VERSION)),  # type: ignore[arg-type]
            extra=dict(data.get("extra", {})),  # type: ignore[arg-type]
        )

    @classmethod
    def from_exception(
        cls,
        digest: str,
        scenario: Dict[str, object],
        seed: int,
        exc: BaseException,
        stage: str = "trials",
        attempts: int = 1,
        campaign: str = "campaign",
    ) -> "FailureRecord":
        return cls(
            digest=digest,
            scenario=dict(scenario),
            seed=seed,
            error=type(exc).__name__,
            message=str(exc),
            stage=stage,
            attempts=attempts,
            campaign=campaign,
        )


class ResultStore:
    """Append-only JSONL store of scenario results and quarantined failures.

    ``durable=True`` fsyncs the file after every append (and every repair
    rewrite) so records survive power loss, at a per-append latency cost.
    """

    def __init__(self, path: PathLike, durable: bool = False) -> None:
        self.path = Path(path)
        self.durable = bool(durable)
        self._records: List[ScenarioRecord] = []
        self._digests: Set[str] = set()
        self._failures: Dict[str, FailureRecord] = {}
        #: every file line in order, verbatim — record is None for opaque
        #: lines (blanks, duplicate digests) that repairs must preserve
        self._entries: List[tuple] = []
        #: full repaired file text, written (atomically) on the next append —
        #: loading never writes, so read-only stores (CI artifacts, foreign
        #: files) can always be reported/diffed
        self._pending_repair: Optional[str] = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        text = self.path.read_text(encoding="utf-8")
        lines = text.splitlines()
        torn = False
        drops = False
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                self._entries.append((None, line))
                continue
            try:
                data = json.loads(stripped)
            except json.JSONDecodeError:
                if lineno == len(lines) and not text.endswith("\n"):
                    # torn final line from an interrupted append — and only
                    # that: an interrupted write never got its newline out,
                    # and a truncated JSON object can never parse.  Anything
                    # else (a complete newline-terminated line that fails to
                    # parse, or bad fields below) is corruption and raises
                    # rather than being silently repaired away
                    logger.warning(
                        "dropping truncated final line %d of %s", lineno, self.path
                    )
                    torn = True
                    continue
                raise ValueError(
                    f"corrupt record at {self.path}:{lineno}"
                ) from None
            if isinstance(data, dict) and data.get("kind") == "failure":
                try:
                    failure = FailureRecord.from_dict(data)
                except (KeyError, TypeError, ValueError):
                    raise ValueError(
                        f"corrupt record at {self.path}:{lineno}"
                    ) from None
                if failure.digest in self._digests:
                    # stale: the scenario later succeeded — drop on repair
                    logger.warning(
                        "dropping stale failure for completed digest %s at %s:%d",
                        failure.digest[:12],
                        self.path,
                        lineno,
                    )
                    drops = True
                    continue
                if self._drop_failure(failure.digest):
                    # later failure supersedes the earlier one (attempt count
                    # advanced); drop the old line on repair
                    drops = True
                self._failures[failure.digest] = failure
                self._entries.append((failure, line))
                continue
            try:
                record = ScenarioRecord.from_dict(data)
            except (KeyError, TypeError, ValueError):
                raise ValueError(
                    f"corrupt record at {self.path}:{lineno}"
                ) from None
            if record.digest in self._digests:
                logger.warning(
                    "duplicate digest %s at %s:%d (keeping first)",
                    record.digest[:12],
                    self.path,
                    lineno,
                )
                self._entries.append((None, line))
                continue
            if self._drop_failure(record.digest):
                # the retry succeeded: drop the quarantine line on repair
                drops = True
            self._records.append(record)
            self._digests.add(record.digest)
            self._entries.append((record, line))
        if torn or drops:
            # rebuild from surviving entries: drops the torn tail and any
            # superseded failure lines, keeps everything else verbatim
            self._pending_repair = self._rebuild_text()
        elif text and not text.endswith("\n"):
            # complete final record without its newline: finish the line so
            # the next append starts cleanly
            self._pending_repair = text + "\n"

    def _rebuild_text(self) -> str:
        return "".join(line + "\n" for _, line in self._entries)

    def _drop_failure(self, digest: str) -> bool:
        """Forget ``digest``'s failure and its entry; True when it had one.

        The line stays in the file until the entries are next rewritten.
        """
        if self._failures.pop(digest, None) is None:
            return False
        self._entries = [
            e
            for e in self._entries
            if not (isinstance(e[0], FailureRecord) and e[0].digest == digest)
        ]
        return True

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, digest: str) -> bool:
        return digest in self._digests

    def records(self) -> List[ScenarioRecord]:
        """All success records, in append order."""
        return list(self._records)

    def completed_digests(self) -> Set[str]:
        """Digests of *successful* scenarios only — failures don't count."""
        return set(self._digests)

    def get(self, digest: str) -> Optional[ScenarioRecord]:
        for record in self._records:
            if record.digest == digest:
                return record
        return None

    def failures(self) -> List[FailureRecord]:
        """Quarantined failures without a later success, in file order."""
        return [e[0] for e in self._entries if isinstance(e[0], FailureRecord)]

    def get_failure(self, digest: str) -> Optional[FailureRecord]:
        return self._failures.get(digest)

    def quarantined_digests(self) -> Set[str]:
        return set(self._failures)

    def _write_repair(self) -> None:
        # torn-tail / missing-newline / stale-failure repair deferred until
        # the first write: a temp file + atomic replace, so a crash
        # mid-repair cannot lose completed records
        tmp = self.path.with_name(self.path.name + ".repair")
        tmp.write_text(self._pending_repair, encoding="utf-8")
        if self.durable:
            with tmp.open("rb") as fh:
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._pending_repair = None

    def _append_line(self, line: str) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._pending_repair is not None:
            self._write_repair()
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            if self.durable:
                os.fsync(fh.fileno())

    def append(self, record: ScenarioRecord) -> None:
        """Durably append one success (key collision is an error).

        If the digest was previously quarantined, the stale failure line is
        dropped (atomic rewrite) before the success is appended — so a store
        whose every scenario eventually succeeded is byte-identical to one
        from a run that never failed.
        """
        if record.digest in self._digests:
            raise ValueError(
                f"digest {record.digest[:12]} is already in the store; "
                "completed scenarios must be skipped, not re-appended"
            )
        if self._drop_failure(record.digest):
            self._pending_repair = self._rebuild_text()
        line = record.to_json_line()
        self._append_line(line)
        self._records.append(record)
        self._digests.add(record.digest)
        self._entries.append((record, line))

    def append_failure(self, failure: FailureRecord) -> None:
        """Quarantine one failed scenario (replaces any earlier failure).

        Appending a failure for an already-*successful* digest is an error:
        the runner must never re-execute completed scenarios.
        """
        if failure.digest in self._digests:
            raise ValueError(
                f"digest {failure.digest[:12]} already succeeded; "
                "a completed scenario cannot be quarantined"
            )
        if self._drop_failure(failure.digest):
            self._pending_repair = self._rebuild_text()
        line = failure.to_json_line()
        self._append_line(line)
        self._failures[failure.digest] = failure
        self._entries.append((failure, line))


# ---------------------------------------------------------------------------
# expectations / drift detection
# ---------------------------------------------------------------------------


def expectations_from_records(
    records: Iterable[ScenarioRecord],
) -> Dict[str, object]:
    """Committed-expectations document for a completed campaign.

    Keys scenarios by digest and pins the detection outcome (``detections``
    of ``trials``); the human-readable axis coordinates ride along so diffs
    of the JSON file itself stay reviewable.
    """
    scenarios: Dict[str, object] = {}
    for record in records:
        scenarios[record.digest] = {
            "scenario": record.scenario,
            "detections": record.detections,
            "trials": record.trials,
        }
    return {"schema": STORE_SCHEMA_VERSION, "scenarios": scenarios}


def diff_against_expectations(
    records: Sequence[ScenarioRecord], expectations: Dict[str, object]
) -> List[str]:
    """Human-readable drift lines between a store and an expectations doc.

    Empty list means no drift.  Three drift classes: a pinned scenario is
    missing from the store, a store scenario is not pinned (spec/code drifted
    — digests no longer line up), or the detection counters changed.
    """
    expected: Dict[str, Dict[str, object]] = dict(
        expectations.get("scenarios", {})  # type: ignore[arg-type]
    )
    drifts: List[str] = []
    seen: Set[str] = set()
    for record in records:
        label = _scenario_label(record.scenario)
        pinned = expected.get(record.digest)
        if pinned is None:
            drifts.append(
                f"unexpected scenario {label} (digest {record.digest[:12]}) — "
                "not pinned in the expectations file; regenerate it if the "
                "spec or scenario schema changed intentionally"
            )
            continue
        seen.add(record.digest)
        if int(pinned["detections"]) != record.detections or int(
            pinned["trials"]
        ) != record.trials:
            drifts.append(
                f"detection drift for {label}: expected "
                f"{pinned['detections']}/{pinned['trials']}, got "
                f"{record.detections}/{record.trials}"
            )
    for digest, pinned in expected.items():
        if digest not in seen:
            drifts.append(
                f"missing scenario {_scenario_label(pinned.get('scenario', {}))} "
                f"(digest {digest[:12]}) — pinned but absent from the store"
            )
    return drifts


def _scenario_label(scenario: Dict[str, object]) -> str:
    axes = ("model", "attack", "criterion", "strategy", "budget")
    return "/".join(str(scenario.get(a, "?")) for a in axes)


__all__ = [
    "STORE_SCHEMA_VERSION",
    "FailureRecord",
    "ResultStore",
    "ScenarioRecord",
    "diff_against_expectations",
    "expectations_from_records",
]
