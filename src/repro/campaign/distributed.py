"""Distributed campaign execution: work-stealing shards over per-shard stores.

Splits the digest-deduplicated scenario cross-product of a
:class:`~repro.campaign.spec.CampaignSpec` into :class:`WorkUnit` groups —
one per (model, attack) coordinate, the runner's natural sharing boundary —
and executes them on N supervised worker processes.  The layout follows the
plan/steal hybrid of classic work-stealing schedulers:

* **static partition by model** (longest-processing-time over scenario
  counts) so each worker's trained victims, memoizing engines and generated
  packages stay shard-local;
* **stealing for stragglers**: an idle worker takes units from the most
  loaded shard's queue (tail-first, so the victim keeps its locality run),
  attaching already-trained models through a digest-keyed
  :class:`ModelExchange` instead of retraining.

Each worker appends to its **own** store — ``store.jsonl`` becomes
``store.shard0.jsonl`` … ``store.shard<N-1>.jsonl`` — preserving the
single-writer invariant the append-only :class:`ResultStore` relies on.
:func:`merge_stores` / :func:`compact_store` then produce the **canonical
byte-stable form** (success records sorted by digest, then quarantined
failures sorted by digest, stale failure lines healed, torn tails dropped):
``merge`` of the shard stores is byte-identical to ``compact`` of a serial
run of the same spec, because record bytes depend only on (spec, scenario),
never on which process executed them.

Supervision reuses :mod:`repro.faults`: workers honour the
``campaign.shard`` inject site (``kill_worker`` → SIGKILL self,
``stall_worker`` → hang) for the chaos suite, and the parent polls worker
liveness, prunes a dead worker's completed digests from its in-flight unit
(re-reading that shard's store), requeues the remainder, and respawns the
worker — bounded by ``max_restarts``, after which the shard's queue is
drained by the surviving workers.  The zero-re-execution resume guarantee
therefore holds across shard boundaries and mid-run SIGKILL of any worker.
Each worker reports on its own result pipe, so a worker killed while
sending can leave a lock or a torn message only on the pipe its respawn
replaces, never on a channel the other workers share.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import re
import shutil
import signal
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.runner import CampaignRunner, CampaignSummary, ProgressCallback
from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import FailureRecord, ResultStore, ScenarioRecord
from repro.faults import CampaignAbortedError, FaultPlan, inject
from repro.utils.logging import get_logger

logger = get_logger("campaign.distributed")

PathLike = Union[str, Path]

#: how often the parent polls worker liveness and the result pipes
_POLL_S = 0.2

#: per-shard worker respawns before its queue is left to the other shards
DEFAULT_MAX_RESTARTS = 2


# ---------------------------------------------------------------------------
# shard store naming
# ---------------------------------------------------------------------------


def shard_store_path(base: PathLike, shard: int) -> Path:
    """``store.jsonl`` → ``store.shard<k>.jsonl`` (shard ``k``'s store)."""
    base = Path(base)
    suffix = base.suffix or ".jsonl"
    return base.with_name(f"{base.stem}.shard{int(shard)}{suffix}")


def find_shard_stores(base: PathLike) -> List[Path]:
    """Existing shard stores next to ``base``, ordered by shard number.

    Matches any shard count — a campaign resumed with a different
    ``--shards`` still skips everything its previous shards completed.
    """
    base = Path(base)
    suffix = base.suffix or ".jsonl"
    pattern = re.compile(re.escape(base.stem) + r"\.shard(\d+)" + re.escape(suffix) + r"$")
    found: List[Tuple[int, Path]] = []
    if base.parent.exists():
        for entry in base.parent.iterdir():
            match = pattern.fullmatch(entry.name)
            if match is not None:
                found.append((int(match.group(1)), entry))
    return [path for _, path in sorted(found)]


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkUnit:
    """One (model, attack) scenario group — the unit of assignment/stealing.

    The runner shares victim training per model and the perturbation-trial
    sequence per (model, attack); splitting any finer would duplicate that
    shared work, any coarser would serialise it.
    """

    model: str
    attack: str
    scenarios: Tuple[Scenario, ...]

    def __len__(self) -> int:
        return len(self.scenarios)


def plan_shards(scenarios: Sequence[Scenario], shards: int) -> List[List[WorkUnit]]:
    """Partition ``scenarios`` into per-shard work-unit queues.

    Groups by (model, attack) preserving expansion order, then assigns whole
    *models* to shards longest-processing-time-first so training and engine
    caches stay shard-local.  When there are fewer models than shards, the
    spare shards are seeded by splitting the largest queues (locality is
    unattainable, keeping every shard busy is not).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    units: List[WorkUnit] = []
    order: List[Tuple[str, str]] = []
    grouped: Dict[Tuple[str, str], List[Scenario]] = {}
    for scenario in scenarios:
        key = (scenario.model, scenario.attack)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(scenario)
    for key in order:
        units.append(WorkUnit(model=key[0], attack=key[1], scenarios=tuple(grouped[key])))

    by_model: Dict[str, List[WorkUnit]] = {}
    model_order: List[str] = []
    for unit in units:
        if unit.model not in by_model:
            by_model[unit.model] = []
            model_order.append(unit.model)
        by_model[unit.model].append(unit)

    assignments: List[List[WorkUnit]] = [[] for _ in range(shards)]
    loads = [0] * shards
    # LPT over models: heaviest model first onto the least-loaded shard
    # (ties broken by model-axis order so plans are deterministic)
    for model in sorted(
        model_order,
        key=lambda m: (-sum(len(u) for u in by_model[m]), model_order.index(m)),
    ):
        target = min(range(shards), key=lambda k: (loads[k], k))
        assignments[target].extend(by_model[model])
        loads[target] += sum(len(u) for u in by_model[model])
    # fewer models than shards: split the largest queues into the empty ones
    while any(not a for a in assignments) and any(len(a) > 1 for a in assignments):
        empty = min(k for k in range(shards) if not assignments[k])
        donor = max(range(shards), key=lambda k: (len(assignments[k]), -k))
        assignments[empty].append(assignments[donor].pop())
    return assignments


# ---------------------------------------------------------------------------
# model exchange
# ---------------------------------------------------------------------------


class ModelExchange:
    """File-based digest-keyed publication of prepared (trained) models.

    Keyed by :meth:`CampaignSpec.training_digest`, so a stolen work unit
    attaches the victim its home shard already trained instead of
    retraining it.
    Publication is atomic (tmp file + rename) and first-writer-wins;
    readers keep a local cache so each worker unpickles a model at most
    once.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._cache: Dict[str, object] = {}

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Optional[object]:
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                prepared = pickle.load(fh)
        except Exception:  # noqa: BLE001 — a corrupt entry means retrain
            logger.warning("dropping unreadable exchange entry %s", path)
            return None
        self._cache[key] = prepared
        return prepared

    def put(self, key: str, prepared: object) -> None:
        self._cache[key] = prepared
        path = self.path_for(key)
        if path.exists():
            return
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(prepared, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _worker_main(
    shard: int,
    spec: CampaignSpec,
    store_path: str,
    durable: bool,
    spill_dir: Optional[str],
    exchange_dir: str,
    task_queue: "multiprocessing.Queue",
    results: "multiprocessing.connection.Connection",
    fault_plan: Optional[FaultPlan],
) -> None:
    """One shard worker: pull units, run them into this shard's store.

    ``max_failures`` is parent-enforced (the blast radius is campaign-wide,
    not per-shard), so the runner here quarantines without aborting.  A
    shipped fault plan is activated for the chaos suite: the
    ``campaign.shard`` site fires per pulled unit, ``kill_worker`` SIGKILLs
    this process (respawn path) and ``stall_worker`` hangs it (stall
    detection path).
    """
    plan_scope = inject.activate(fault_plan) if fault_plan is not None else nullcontext()
    try:
        with plan_scope:
            store = ResultStore(store_path, durable=durable)
            exchange = ModelExchange(exchange_dir)
            with CampaignRunner(
                spec,
                store,
                progress=lambda msg: results.send(("progress", shard, msg)),
                max_failures=None,
                spill_dir=spill_dir,
                model_exchange=exchange,
            ) as runner:
                results.send(("ready", shard))
                while True:
                    message = task_queue.get()
                    if message[0] == "stop":
                        return
                    _, unit_index, unit = message
                    if inject.active():
                        fault = inject.check(
                            "campaign.shard",
                            shard=shard,
                            model=unit.model,
                            attack=unit.attack,
                        )
                        if fault is not None and fault.worker == shard:
                            if fault.action == "kill_worker":
                                os.kill(os.getpid(), signal.SIGKILL)
                            elif fault.action == "stall_worker":
                                time.sleep(3600.0)
                    try:
                        summary = runner.run(list(unit.scenarios))
                        results.send(
                            ("done", shard, unit_index, summary.executed, summary.failed)
                        )
                    except Exception as exc:  # noqa: BLE001 — quarantine the unit
                        failed = 0
                        for scenario in unit.scenarios:
                            if scenario.digest in store:
                                continue
                            prior = store.get_failure(scenario.digest)
                            attempts = (prior.attempts if prior is not None else 0) + 1
                            store.append_failure(
                                FailureRecord.from_exception(
                                    scenario.digest,
                                    scenario.axes_dict(),
                                    scenario.seed,
                                    exc,
                                    stage="unit",
                                    attempts=attempts,
                                    campaign=spec.name,
                                )
                            )
                            failed += 1
                        results.send(("done", shard, unit_index, 0, failed))
    except (KeyboardInterrupt, SystemExit, BrokenPipeError):  # broken pipe: parent gone
        pass


# ---------------------------------------------------------------------------
# parent scheduler
# ---------------------------------------------------------------------------


@dataclass
class _WorkerState:
    process: object
    task_queue: object
    #: read end of the worker's own result pipe; ``None`` once it hits EOF
    results: Optional[object]
    inflight: Optional[int] = None
    restarts: int = 0
    ready: bool = False
    retired: bool = False
    last_activity: float = field(default_factory=time.monotonic)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX hosts
        return multiprocessing.get_context("spawn")


def run_distributed_campaign(
    spec: CampaignSpec,
    store_path: PathLike,
    shards: int,
    progress: Optional[ProgressCallback] = None,
    max_failures: Optional[int] = None,
    spill_dir: Optional[PathLike] = None,
    durable: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    stall_timeout_s: Optional[float] = None,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    exchange_dir: Optional[PathLike] = None,
) -> CampaignSummary:
    """Execute ``spec``'s pending scenarios on ``shards`` worker processes.

    Resume semantics are cross-store: a scenario is pending only if its
    digest is in neither the base store (a previous serial run or merge)
    nor any existing shard store — so a re-triggered distributed campaign,
    like a serial one, executes exactly the scenarios that are missing.

    ``fault_plan`` ships a :class:`~repro.faults.FaultPlan` to the initial
    workers (chaos suite); respawned workers never re-arm it, so a
    scheduled ``kill_worker`` cannot loop.  ``stall_timeout_s`` bounds the
    silence of a worker with an assigned unit before it is killed and its
    unit requeued.  ``CampaignAbortedError`` propagates once more than
    ``max_failures`` scenarios have been quarantined campaign-wide.
    """
    start = time.perf_counter()
    spec.validate()
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if max_failures is not None and max_failures < 0:
        raise ValueError("max_failures must be non-negative")
    base = Path(store_path)

    def emit(message: str) -> None:
        logger.info("%s", message)
        if progress is not None:
            progress(message)

    scenarios = spec.expand()
    completed: set = set()
    if base.exists():
        completed |= ResultStore(base).completed_digests()
    shard_paths = [shard_store_path(base, k) for k in range(shards)]
    for path in find_shard_stores(base):
        completed |= ResultStore(path).completed_digests()
    pending = [s for s in scenarios if s.digest not in completed]
    skipped = len(scenarios) - len(pending)
    if skipped:
        emit(f"resuming: {skipped}/{len(scenarios)} scenarios already stored")
    if not pending:
        return CampaignSummary(
            total=len(scenarios),
            executed=0,
            skipped=skipped,
            wall_s=time.perf_counter() - start,
        )

    assignments = plan_shards(pending, shards)
    unit_table: List[WorkUnit] = []
    home: List[deque] = []
    for shard_units in assignments:
        indices: deque = deque()
        for unit in shard_units:
            indices.append(len(unit_table))
            unit_table.append(unit)
        home.append(indices)
    emit(
        f"distributing {len(pending)} scenarios as {len(unit_table)} work "
        f"units across {shards} shards"
    )

    ctx = _mp_context()
    owns_exchange = exchange_dir is None
    exchange_root = (
        Path(tempfile.mkdtemp(prefix="repro-exchange-"))
        if owns_exchange
        else Path(exchange_dir)
    )
    states: Dict[int, _WorkerState] = {}
    unit_done = [False] * len(unit_table)
    remaining_units = len(unit_table)
    failed_total = 0

    def spawn(shard: int, restarts: int, with_plan: bool) -> None:
        task_queue = ctx.Queue()
        results, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(
                shard,
                spec,
                str(shard_paths[shard]),
                durable,
                str(spill_dir) if spill_dir is not None else None,
                str(exchange_root),
                task_queue,
                sender,
                fault_plan if with_plan else None,
            ),
            daemon=True,
        )
        process.start()
        # the worker holds the only write end, so its exit reads as EOF
        sender.close()
        states[shard] = _WorkerState(
            process=process, task_queue=task_queue, results=results, restarts=restarts
        )

    def next_unit_index(shard: int) -> Optional[int]:
        if home[shard]:
            return home[shard].popleft()
        victims = [k for k in range(shards) if home[k]]
        if not victims:
            return None
        victim = max(victims, key=lambda k: (len(home[k]), -k))
        # steal from the tail: the victim keeps draining its own head run
        return home[victim].pop()

    def dispatch() -> None:
        for shard, state in states.items():
            if state.retired or not state.ready or state.inflight is not None:
                continue
            index = next_unit_index(shard)
            if index is None:
                continue
            unit = unit_table[index]
            state.inflight = index
            state.last_activity = time.monotonic()
            emit(
                f"[shard {shard}] unit {unit.model}/{unit.attack} "
                f"({len(unit)} scenarios)"
            )
            state.task_queue.put(("unit", index, unit))

    def mark_done(index: int) -> None:
        nonlocal remaining_units
        if not unit_done[index]:
            unit_done[index] = True
            remaining_units -= 1

    def close_results(state: _WorkerState) -> None:
        if state.results is not None:
            state.results.close()
            state.results = None

    def handle_death(shard: int) -> None:
        state = states[shard]
        state.process.join()
        close_results(state)
        exitcode = state.process.exitcode
        emit(f"[shard {shard}] worker died (exit code {exitcode})")
        index = state.inflight
        state.inflight = None
        state.ready = False
        if index is not None:
            unit = unit_table[index]
            stored = (
                ResultStore(shard_paths[shard]).completed_digests()
                if shard_paths[shard].exists()
                else set()
            )
            remaining = tuple(s for s in unit.scenarios if s.digest not in stored)
            if remaining:
                unit_table[index] = WorkUnit(
                    model=unit.model, attack=unit.attack, scenarios=remaining
                )
                home[shard].appendleft(index)
                emit(
                    f"[shard {shard}] requeued {unit.model}/{unit.attack}: "
                    f"{len(remaining)}/{len(unit)} scenarios still pending"
                )
            else:
                mark_done(index)
        if state.restarts < max_restarts:
            # never re-arm the fault plan: a scheduled kill_worker would
            # fire again on the fresh hit counters and loop forever
            spawn(shard, restarts=state.restarts + 1, with_plan=False)
            emit(
                f"[shard {shard}] respawned worker "
                f"(restart {states[shard].restarts}/{max_restarts})"
            )
        else:
            state.retired = True
            emit(
                f"[shard {shard}] restart budget exhausted; its queue is "
                "left to the surviving shards"
            )

    def stop_all(force: bool = False) -> None:
        for state in states.values():
            if state.retired:
                continue
            if force:
                if state.process.is_alive():
                    state.process.terminate()
            else:
                try:
                    state.task_queue.put(("stop",))
                except (ValueError, OSError):  # pragma: no cover — queue gone
                    pass
        for state in states.values():
            if state.retired:
                continue
            state.process.join(timeout=10.0)
            if state.process.is_alive():  # pragma: no cover — hung worker
                state.process.terminate()
                state.process.join(timeout=5.0)
            close_results(state)
            state.retired = True

    try:
        for shard in range(shards):
            spawn(shard, restarts=0, with_plan=fault_plan is not None)
        while remaining_units > 0:
            dispatch()
            readers = {s.results: s for s in states.values() if s.results is not None}
            messages = []
            for conn in multiprocessing.connection.wait(list(readers), timeout=_POLL_S):
                try:
                    messages.append(conn.recv())
                except (EOFError, OSError):  # worker gone, maybe mid-message: reaped below
                    close_results(readers[conn])
            for message in messages:
                kind = message[0]
                if kind == "ready":
                    state = states.get(message[1])
                    if state is not None:
                        state.ready = True
                        state.last_activity = time.monotonic()
                elif kind == "progress":
                    _, shard, text = message
                    state = states.get(shard)
                    if state is not None:
                        state.last_activity = time.monotonic()
                    emit(f"[shard {shard}] {text}")
                elif kind == "done":
                    _, shard, index, executed, failed = message
                    state = states.get(shard)
                    if state is not None and state.inflight == index:
                        state.inflight = None
                        state.last_activity = time.monotonic()
                    mark_done(index)
                    failed_total += int(failed)
                    if max_failures is not None and failed_total > max_failures:
                        stop_all(force=True)
                        raise CampaignAbortedError(
                            f"{failed_total} scenarios quarantined, exceeding "
                            f"--max-failures={max_failures}"
                        )
            if messages:
                continue
            # no message this tick: poll liveness and stalls
            now = time.monotonic()
            live = 0
            for shard, state in list(states.items()):
                if state.retired:
                    continue
                if not state.process.is_alive():
                    handle_death(shard)
                    if not states[shard].retired:
                        live += 1
                    continue
                live += 1
                if (
                    stall_timeout_s is not None
                    and state.inflight is not None
                    and now - state.last_activity > stall_timeout_s
                ):
                    emit(
                        f"[shard {shard}] stalled for more than "
                        f"{stall_timeout_s:.1f}s; killing worker"
                    )
                    state.process.kill()
                    state.process.join(timeout=5.0)
                    handle_death(shard)
            if live == 0 and remaining_units > 0:
                raise CampaignAbortedError(
                    "every shard worker died and the restart budget is "
                    f"exhausted; {remaining_units} work units remain"
                )
        stop_all()
    finally:
        stop_all(force=True)
        if owns_exchange:
            shutil.rmtree(exchange_root, ignore_errors=True)

    # this run's outcome, reloaded from the shard stores (message counters
    # can undercount around worker deaths; the stores are the truth)
    records_by_digest: Dict[str, ScenarioRecord] = {}
    failures_by_digest: Dict[str, FailureRecord] = {}
    for path in find_shard_stores(base):
        store = ResultStore(path)
        for record in store.records():
            records_by_digest.setdefault(record.digest, record)
        for failure in store.failures():
            failures_by_digest.setdefault(failure.digest, failure)
    records = [records_by_digest[s.digest] for s in pending if s.digest in records_by_digest]
    failures = [
        failures_by_digest[s.digest]
        for s in pending
        if s.digest not in records_by_digest and s.digest in failures_by_digest
    ]
    return CampaignSummary(
        total=len(scenarios),
        executed=len(records),
        skipped=skipped,
        wall_s=time.perf_counter() - start,
        records=records,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# byte-stable merge / compact
# ---------------------------------------------------------------------------


def canonical_store_text(
    records: Sequence[ScenarioRecord], failures: Sequence[FailureRecord]
) -> str:
    """The canonical byte form: successes then failures, digest-sorted.

    Sorting by digest erases append order — the one thing that differs
    between a serial run, a resumed run and any shard layout — so two
    stores holding the same outcomes canonicalise to identical bytes.
    """
    lines = [r.to_json_line() for r in sorted(records, key=lambda r: r.digest)]
    lines += [f.to_json_line() for f in sorted(failures, key=lambda f: f.digest)]
    return "".join(line + "\n" for line in lines)


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def compact_store(store_path: PathLike, output: Optional[PathLike] = None) -> str:
    """Canonicalise one store (heals failures, drops torn tails, sorts).

    Returns the canonical text; with ``output`` also writes it atomically
    (``output`` may equal ``store_path`` for in-place compaction).
    """
    store = ResultStore(store_path)
    text = canonical_store_text(store.records(), store.failures())
    if output is not None:
        _write_atomic(Path(output), text)
    return text


def merge_stores(
    shard_paths: Sequence[PathLike],
    output: Optional[PathLike] = None,
    prune: bool = False,
) -> str:
    """Merge shard stores into one canonical store (byte-stable).

    A digest appearing in several stores must agree byte-for-byte (the
    distributed runner's determinism guarantee); disagreement raises.  A
    failure is kept only while no store holds a success for its digest —
    across stores, the highest attempt count wins, mirroring the
    single-store healing rules.  ``prune`` unlinks the shard stores after
    a successful write (requires ``output``).
    """
    if prune and output is None:
        raise ValueError("prune requires an output path")
    paths = [Path(p) for p in shard_paths]
    records: Dict[str, ScenarioRecord] = {}
    failures: Dict[str, FailureRecord] = {}
    for path in paths:
        store = ResultStore(path)
        for record in store.records():
            prior = records.get(record.digest)
            if prior is None:
                records[record.digest] = record
            elif prior.to_json_line() != record.to_json_line():
                raise ValueError(
                    f"conflicting records for digest {record.digest[:12]} "
                    f"(store {path}); shard stores of one campaign must "
                    "agree byte-for-byte"
                )
        for failure in store.failures():
            prior_failure = failures.get(failure.digest)
            if prior_failure is None or failure.attempts > prior_failure.attempts:
                failures[failure.digest] = failure
    for digest in records:
        failures.pop(digest, None)
    text = canonical_store_text(list(records.values()), list(failures.values()))
    if output is not None:
        _write_atomic(Path(output), text)
        if prune:
            out = Path(output).resolve()
            for path in paths:
                if path.resolve() != out and path.exists():
                    path.unlink()
    return text


__all__ = [
    "DEFAULT_MAX_RESTARTS",
    "ModelExchange",
    "WorkUnit",
    "canonical_store_text",
    "compact_store",
    "find_shard_stores",
    "merge_stores",
    "plan_shards",
    "run_distributed_campaign",
    "shard_store_path",
]
