"""Multi-core sharded execution backend.

:class:`ParallelBackend` splits every batch the engine dispatches into
contiguous shards and evaluates them on a persistent pool of worker
processes.  Two transport decisions keep the per-call overhead small enough
for the engine's chunked access pattern:

* **Shared-memory array transport** — the input batch is written once into a
  :mod:`multiprocessing.shared_memory` segment; each worker maps the segment
  and copies out only its own shard, so the batch is never pickled through
  the task pipe (and never copied once per worker).
* **Model publication by parameter digest** — the model is pickled into a
  shared-memory segment once per :func:`~repro.nn.serialization
  .parameter_digest`.  Workers rebuild it on first sight of a digest and keep
  it in a small per-process cache, so repeated engine calls against the same
  parameters ship a 64-character digest instead of the weights.  Perturbing
  the model (as the attacks do) changes the digest and triggers exactly one
  re-publication.  Publication reuse is counted in :attr:`cache_stats`, which
  the engine merges into its own statistics.

Loss-based queries (``input_gradients``, ``loss_parameter_gradients``) are
recombined across shards as a weighted mean (weight = shard size), which is
exact for every built-in loss because they all normalise by the batch size.

Results come back through the ordinary pool result pipe: they are shard-sized
and consumed immediately, so pinning them in shared memory would buy nothing.

The pool is lazy (constructing a backend costs nothing until the first
dispatch) and persistent; call :meth:`close` — or let garbage collection /
interpreter shutdown do it — to terminate the workers and unlink the shared
segments.  One backend instance can serve many engines; share it to share
the pool::

    backend = ParallelBackend(workers=4)
    engine = Engine(model, backend=backend)
    ...
    backend.close()
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from collections import OrderedDict
from multiprocessing import get_context, shared_memory
from multiprocessing.connection import wait as wait_ready
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backend import ExecutionBackend, register_backend
from repro.engine.cache import CacheStats
from repro.faults import inject
from repro.faults.errors import DispatchTimeoutError, WorkerCrashError, is_transient
from repro.faults.policy import FaultPolicy
from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.nn.serialization import parameter_digest
from repro.utils.logging import get_logger

logger = get_logger("engine.parallel")

#: how many distinct parameter digests stay published (and resident in each
#: worker) at once; attack loops alternate between a handful of models
DEFAULT_MAX_PUBLISHED = 4

#: supervision poll interval while a dispatch is in flight; bounds how long
#: a dead worker goes undetected without adding measurable latency to
#: healthy dispatches (the wait returns as soon as results are ready)
SUPERVISION_POLL_S = 0.05

#: how long to wait for a killed worker, or a pool handler thread, to exit
EXIT_GRACE_S = 5.0


def default_worker_count() -> int:
    """Worker count matching the cores this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: per-worker cache of rebuilt models, keyed by parameter digest; sized to
#: match DEFAULT_MAX_PUBLISHED so parent and workers evict in lockstep
_WORKER_MODELS: "OrderedDict[str, Sequential]" = OrderedDict()
_WORKER_MODEL_SLOTS = DEFAULT_MAX_PUBLISHED

#: whether an attach in this worker must be unregistered from the resource
#: tracker again (set by the pool initializer).  CPython < 3.13 registers
#: segments on *attach* as well as create: forked workers share the parent's
#: tracker (set-semantics make the re-register harmless, and unregistering
#: would strip the parent's own registration), while spawned workers own a
#: private tracker that would unlink the parent's live segments at worker
#: exit unless the attach registration is removed.
_UNREGISTER_ON_ATTACH = False


def _worker_init(unregister_on_attach: bool) -> None:
    global _UNREGISTER_ON_ATTACH
    _UNREGISTER_ON_ATTACH = unregister_on_attach


def _attach_readonly(name: str) -> shared_memory.SharedMemory:
    """Map a parent-owned segment without adopting ownership of it."""
    shm = shared_memory.SharedMemory(name=name)
    if _UNREGISTER_ON_ATTACH:  # pragma: no cover - spawn-only path
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    return shm


def _worker_model(digest: str, model_shm: str, model_size: int) -> Sequential:
    model = _WORKER_MODELS.get(digest)
    if model is not None:
        _WORKER_MODELS.move_to_end(digest)
        return model
    shm = _attach_readonly(model_shm)
    try:
        model = pickle.loads(bytes(shm.buf[:model_size]))
    finally:
        shm.close()
    _WORKER_MODELS[digest] = model
    while len(_WORKER_MODELS) > _WORKER_MODEL_SLOTS:
        _WORKER_MODELS.popitem(last=False)
    return model


def _worker_shard(
    batch_shm: str, shape: Tuple[int, ...], dtype: str, start: int, stop: int
) -> np.ndarray:
    """Copy this worker's shard out of the shared batch segment.

    The copy (shard-sized, not batch-sized) lets the segment be closed
    immediately — layer caches may hold views of the input across calls, and
    those must never dangle into an unmapped segment.
    """
    shm = _attach_readonly(batch_shm)
    try:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        return np.array(view[start:stop])
    finally:
        shm.close()


def _worker_run(task: tuple) -> Any:
    """Execute one shard task; module-level so every start method can pickle it."""
    op, digest, model_shm, model_size, batch_shm, shape, dtype, start, stop, options = task
    model = _worker_model(digest, model_shm, model_size)
    x = _worker_shard(batch_shm, shape, dtype, start, stop)
    if op == "forward":
        return model.forward(x, training=False)
    if op == "forward_collect":
        return model.forward_collect(x)
    if op == "output_gradients":
        return model.output_gradients_batch(x, options)
    if op == "packed_masks":
        from repro.engine.backend import threshold_and_pack

        scalarization, epsilon = options
        return threshold_and_pack(
            model.output_gradients_batch(x, scalarization), epsilon
        )
    if op == "packed_neuron_masks":
        from repro.engine.backend import pack_neuron_outputs

        threshold, layer_indices = options
        return pack_neuron_outputs(
            model.forward_collect(x), x.shape[0], threshold, layer_indices
        )
    if op == "input_gradients":
        targets, loss = options
        return model.input_gradient(x, targets, loss)
    if op == "loss_parameter_gradients":
        targets, loss = options
        return model.loss_parameter_gradients(x, targets, loss)
    raise ValueError(f"unknown parallel op {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _signal_pool_workers(pool, *sigs: int) -> list:
    """Send ``sigs`` to every current pool worker; returns the processes."""
    procs = list(getattr(pool, "_pool", []) or [])
    for proc in procs:
        pid = proc.pid
        if pid is None:
            continue
        for sig in sigs:
            try:
                os.kill(pid, sig)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                break
    return procs


def _terminate_pool(pool) -> None:
    """Terminate/join a pool whose workers may be dead, stopped, or hung.

    ``Pool.terminate`` alone relies on a handshake: sentinels are fed to
    the blocked workers so they release the task-queue reader lock, after
    which its ``_help_stuff_finish`` can acquire it.  A worker that died
    (or was SIGKILLed, or sits SIGSTOPped) while blocked on the queue never
    completes that handshake and teardown deadlocks.  Workers are stateless
    shard evaluators, so the unconditional path is both safe and immune:
    stop the worker handler and wait for it to exit (no respawn behind the
    kill), hard-kill and reap every worker, then release the queue locks
    the dead workers took with them, and only then run the ordinary
    terminate/join.  The task-queue reader lock is taken only by workers,
    so with none alive it is released unconditionally.  The task handler
    takes the result-queue writer lock to post its exit sentinel, so that
    lock is released only if the handler is still blocked on it after a
    grace period: freeing it mid-write would interleave two sentinels and
    leave the result handler waiting forever on a torn message.
    """
    try:
        from multiprocessing.pool import TERMINATE

        pool._worker_handler._state = TERMINATE
        pool._change_notifier.put(None)  # wake it from its wait
        pool._worker_handler.join(EXIT_GRACE_S)
    except Exception:  # pragma: no cover - interpreter internals moved
        pass
    procs = _signal_pool_workers(pool, signal.SIGCONT, signal.SIGKILL)
    for proc in procs:
        proc.join()
    locks = [getattr(pool._inqueue, "_rlock", None)]
    pool._task_handler.join(EXIT_GRACE_S)
    if pool._task_handler.is_alive():  # blocked behind a dead worker's write
        locks.append(getattr(pool._outqueue, "_wlock", None))
    for lock in locks:
        if lock is None:  # pragma: no cover - win32 write pipes
            continue
        try:
            lock.release()
        except Exception:
            pass  # nobody held it

    pool.terminate()
    pool.join()


def _release_resources(resources: dict) -> None:
    """Terminate the pool and unlink all owned segments (idempotent).

    Each step is individually guarded: a pool that died mid-flight must not
    prevent the published shared-memory segments from being unlinked (that
    is exactly how ``/dev/shm`` blocks used to leak after a failed run).
    """
    pool = resources.pop("pool", None)
    if pool is not None:
        try:
            _terminate_pool(pool)
        except Exception:  # pragma: no cover - teardown must not raise
            logger.exception("worker pool teardown failed; continuing cleanup")
    for shm, _size in resources.pop("published", {}).values():
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    resources["pool"] = None
    resources["published"] = OrderedDict()


@register_backend
class ParallelBackend(ExecutionBackend):
    """Shard batches across a persistent multiprocessing worker pool.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the cores available to this
        process.  ``workers=1`` is valid (useful for testing the transport)
        but pays process overhead for no parallelism.
    start_method:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap worker startup) and the platform default elsewhere.
    max_published:
        How many model publications (distinct parameter digests) to keep
        alive at once.
    fault_policy:
        :class:`~repro.faults.FaultPolicy` (or its dict form) governing
        worker supervision: a dispatch whose workers die — or that exceeds
        ``dispatch_timeout_s`` — kills and respawns the pool and requeues
        every in-flight shard, up to ``max_retries`` times.  Supervision is
        always on; passing ``None`` uses the default policy.

    Every dispatch is supervised: instead of blocking in ``pool.map`` (which
    hangs forever when a worker holding a task is SIGKILLed), results are
    awaited with a poll loop that also checks worker liveness against a
    snapshot of the processes taken at dispatch time.  Shard tasks are pure
    functions of (model digest, batch window), so requeueing after a respawn
    is always safe.
    """

    name = "parallel"

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        max_published: int = DEFAULT_MAX_PUBLISHED,
        fault_policy: Union[FaultPolicy, Dict[str, object], None] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if max_published < 1:
            raise ValueError("max_published must be at least 1")
        self.fault_policy = FaultPolicy.coerce(fault_policy) or FaultPolicy()
        self.workers = int(workers) if workers is not None else default_worker_count()
        if start_method is None:
            import multiprocessing

            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._start_method = start_method
        self.max_published = int(max_published)
        self._stats = CacheStats()
        # pool + publications live in a plain dict so the weakref finalizer
        # can release them without keeping the backend itself alive
        self._resources: dict = {"pool": None, "published": OrderedDict()}
        import weakref

        self._finalizer = weakref.finalize(self, _release_resources, self._resources)

    # -- ExecutionBackend surface -------------------------------------------
    @property
    def parallelism(self) -> int:
        return self.workers

    @property
    def cache_stats(self) -> CacheStats:
        """Model-publication reuse counters (hit = weights were not re-shipped)."""
        return self._stats

    def close(self) -> None:
        """Terminate the workers and unlink every published segment."""
        _release_resources(self._resources)

    # -- pool / publication plumbing ----------------------------------------
    def _pool(self):
        pool = self._resources["pool"]
        if pool is None:
            ctx = get_context(self._start_method)
            pool = ctx.Pool(
                processes=self.workers,
                initializer=_worker_init,
                initargs=(self._start_method != "fork",),
            )
            self._resources["pool"] = pool
            logger.debug(
                "started %d worker processes (start method %s)",
                self.workers,
                self._start_method,
            )
        return pool

    def _publish(self, model: Sequential) -> Tuple[str, str, int]:
        """Ensure ``model`` is published; returns (digest, shm name, size)."""
        published: OrderedDict = self._resources["published"]
        digest = parameter_digest(model)
        entry = published.get(digest)
        if entry is not None:
            published.move_to_end(digest)
            self._stats.hits += 1
        else:
            payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
            shm = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
            shm.buf[: len(payload)] = payload
            entry = (shm, len(payload))
            published[digest] = entry
            self._stats.misses += 1
            while len(published) > self.max_published:
                _, (old_shm, _old_size) = published.popitem(last=False)
                old_shm.close()
                old_shm.unlink()
                self._stats.evictions += 1
        shm, size = entry
        return digest, shm.name, size

    @staticmethod
    def _shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
        """Contiguous, balanced, non-empty shard index ranges."""
        shards = max(1, min(shards, n))
        edges = np.linspace(0, n, shards + 1).round().astype(int)
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def _respawn(self, reason: str) -> None:
        """Tear down the worker pool (hard-killing hung workers) for relaunch.

        The next :meth:`_pool` call starts fresh workers; published model
        segments stay alive, so respawned workers rebuild their model caches
        lazily from shared memory with no re-publication cost.
        """
        pool = self._resources["pool"]
        if pool is not None:
            _terminate_pool(pool)
            self._resources["pool"] = None
        self._stats.restarts += 1
        logger.warning("respawning worker pool: %s", reason)

    def _apply_injected_fault(self, fault, procs: list) -> None:
        """Execute a ``kill_worker``/``stall_worker`` fault from the chaos plan.

        ``fault.worker`` indexes ``procs``, the dispatch's worker snapshot; a
        negative index targets *every* worker — the deterministic way to
        force the crash-detection + respawn path.  A kill returns once its
        targets have exited, so the dispatch's death check always sees them.
        """
        targets = procs if fault.worker < 0 else [procs[fault.worker % len(procs)]]
        sig = signal.SIGKILL if fault.action == "kill_worker" else signal.SIGSTOP
        for target in targets:
            logger.warning(
                "injected fault: sending %s to worker pid %s",
                signal.Signals(sig).name,
                target.pid,
            )
            os.kill(target.pid, sig)
        if sig == signal.SIGKILL:
            for target in targets:
                target.join(EXIT_GRACE_S)

    def _await_results(self, async_result, procs, timeout_s: Optional[float]) -> list:
        """Await a dispatch with liveness supervision.

        Raises :class:`WorkerCrashError` once any worker from the
        dispatch-time snapshot has died (``Pool`` transparently replaces dead
        workers, but the dead worker's task is lost and a bare ``map`` would
        block forever), and :class:`DispatchTimeoutError` when ``timeout_s``
        elapses — the hung case, e.g. a stopped or livelocked worker.  Deaths
        are read from process sentinels, whichever thread reaps the process,
        and checked before results are accepted, so replacement workers
        finishing the map cannot mask one.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        by_sentinel = {p.sentinel: p for p in procs}
        while True:
            dead = [by_sentinel[s] for s in wait_ready(list(by_sentinel), timeout=0)]
            if dead:
                raise WorkerCrashError(
                    f"{len(dead)} worker(s) died mid-dispatch "
                    f"(pids {[p.pid for p in dead]})"
                )
            if async_result.ready():
                return async_result.get()
            if deadline is not None and time.monotonic() > deadline:
                raise DispatchTimeoutError(
                    f"dispatch exceeded the {timeout_s:g}s timeout"
                )
            async_result.wait(SUPERVISION_POLL_S)

    def _dispatch(
        self,
        op: str,
        model: Sequential,
        x: np.ndarray,
        options: Any = None,
        per_shard_options: Optional[Sequence[Any]] = None,
    ) -> Tuple[List[Any], List[Tuple[int, int]]]:
        """Run ``op`` over balanced shards of ``x``; returns (results, bounds)."""
        if x.shape[0] == 0:
            raise ValueError("cannot execute an empty batch")
        digest, model_shm, model_size = self._publish(model)
        bounds = self._shard_bounds(x.shape[0], self.workers)
        xc = np.ascontiguousarray(x)
        batch_shm = shared_memory.SharedMemory(create=True, size=max(1, xc.nbytes))
        try:
            np.ndarray(xc.shape, dtype=xc.dtype, buffer=batch_shm.buf)[:] = xc
            tasks = [
                (
                    op,
                    digest,
                    model_shm,
                    model_size,
                    batch_shm.name,
                    xc.shape,
                    xc.dtype.str,
                    start,
                    stop,
                    per_shard_options[i] if per_shard_options is not None else options,
                )
                for i, (start, stop) in enumerate(bounds)
            ]
            results = self._supervised_run(op, tasks)
        finally:
            batch_shm.close()
            batch_shm.unlink()
        return results, bounds

    def _supervised_run(self, op: str, tasks: List[tuple]) -> list:
        """Execute ``tasks`` on the pool, respawning + requeueing on failure."""
        policy = self.fault_policy
        attempts = 0
        while True:
            pool = self._pool()
            procs = list(pool._pool)
            if inject.active():
                fault = inject.check("parallel.dispatch", op=op)
                if fault is not None:
                    self._apply_injected_fault(fault, procs)
            # the default chunksize divides by the live worker count: 0 mid-respawn
            async_result = pool.map_async(_worker_run, tasks, chunksize=1)
            try:
                return self._await_results(
                    async_result, procs, policy.dispatch_timeout_s
                )
            except Exception as exc:
                # crashes/timeouts invalidate the pool; a transient error
                # raised *inside* a worker leaves it healthy, but respawning
                # is cheap and gives the retry a clean slate either way
                if not is_transient(exc):
                    raise
                if attempts >= policy.max_retries:
                    self._respawn(f"giving up after {attempts + 1} attempts: {exc}")
                    raise
                attempts += 1
                self._respawn(f"requeueing {len(tasks)} shard(s): {exc}")
                time.sleep(policy.backoff_delay(attempts, key=f"parallel.{op}"))

    # -- batched primitives --------------------------------------------------
    def forward(self, model: Sequential, x: np.ndarray) -> np.ndarray:
        results, _ = self._dispatch("forward", model, x)
        return np.concatenate(results, axis=0)

    def forward_collect(self, model: Sequential, x: np.ndarray) -> List[np.ndarray]:
        results, _ = self._dispatch("forward_collect", model, x)
        # results: one list of per-layer outputs per shard -> concat per layer
        return [np.concatenate(parts, axis=0) for parts in zip(*results)]

    def output_gradients(
        self, model: Sequential, x: np.ndarray, scalarization: str
    ) -> np.ndarray:
        results, _ = self._dispatch("output_gradients", model, x, scalarization)
        return np.concatenate(results, axis=0)

    def packed_masks(
        self, model: Sequential, x: np.ndarray, scalarization: str, epsilon: float
    ) -> np.ndarray:
        # thresholding + packing happen inside the workers: each shard ships
        # back ceil(P/64) uint64 words per sample instead of P float64
        # gradients — a 64x smaller result pickle
        results, _ = self._dispatch(
            "packed_masks", model, x, (scalarization, float(epsilon))
        )
        return np.concatenate(results, axis=0)

    def packed_neuron_masks(
        self,
        model: Sequential,
        x: np.ndarray,
        threshold: float,
        layer_indices: Tuple[int, ...],
    ) -> np.ndarray:
        results, _ = self._dispatch(
            "packed_neuron_masks", model, x, (float(threshold), tuple(layer_indices))
        )
        return np.concatenate(results, axis=0)

    def input_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        targets = np.asarray(targets)
        bounds = self._shard_bounds(x.shape[0], self.workers)
        shard_opts = [(targets[a:b], loss) for a, b in bounds]
        results, bounds = self._dispatch(
            "input_gradients", model, x, per_shard_options=shard_opts
        )
        n = x.shape[0]
        # every built-in loss is a batch mean, so the full-batch value and
        # gradient are the shard results reweighted by shard size
        value = sum(v * (b - a) for (v, _), (a, b) in zip(results, bounds)) / n
        grad = np.concatenate(
            [g * ((b - a) / n) for (_, g), (a, b) in zip(results, bounds)], axis=0
        )
        return float(value), grad

    def loss_parameter_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        targets = np.asarray(targets)
        bounds = self._shard_bounds(x.shape[0], self.workers)
        shard_opts = [(targets[a:b], loss) for a, b in bounds]
        results, bounds = self._dispatch(
            "loss_parameter_gradients", model, x, per_shard_options=shard_opts
        )
        n = x.shape[0]
        value = sum(v * (b - a) for (v, _), (a, b) in zip(results, bounds)) / n
        flat = sum(g * ((b - a) / n) for (_, g), (a, b) in zip(results, bounds))
        return float(value), np.asarray(flat)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelBackend(workers={self.workers}, "
            f"start_method={self._start_method!r})"
        )


__all__ = ["DEFAULT_MAX_PUBLISHED", "ParallelBackend", "default_worker_count"]
