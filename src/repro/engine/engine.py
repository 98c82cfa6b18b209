"""The batched execution engine.

Every experiment in the reproduction — coverage measurement (Fig. 2), greedy
test selection (Alg. 1), gradient-based generation (Alg. 2) and the
detection-rate sweeps (Tables II/III) — ultimately needs one of a small set
of quantities: forward logits, per-sample parameter gradients of the
scalarised output, activation masks, neuron masks, input gradients.  The
:class:`Engine` computes all of them *batched*, so NumPy amortizes each layer
operation across the whole candidate pool instead of re-dispatching per
image, and memoizes the immutable ones so revisits (the greedy loop, the
combined method's switch probe, the ablation sweeps) are free.

Key properties:

* **Batched** — one forward/backward over ``N`` samples instead of ``N``
  single-sample passes; large pools are processed in chunks of
  ``batch_size`` to bound transient memory.
* **Memoizing** — results are cached keyed by ``(operation, parameter
  digest, array fingerprint, options)``.  Because the model's parameter
  digest is part of the key, perturbing the model (as the attacks do) can
  never yield stale results; entries for old parameters simply stop
  matching.
* **Backend-pluggable** — all execution goes through an
  :class:`~repro.engine.backend.ExecutionBackend`; the default
  :class:`~repro.engine.backend.NumpyBackend` runs the model's own NumPy
  passes in-process.
* **Model-axis batched** — :meth:`Engine.stacked_forward` evaluates many
  same-architecture models (the detection experiments' perturbed copies) on
  one batch.  The model-axis dispatch is chosen per backend: when
  ``backend.model_axis_capacity > 0`` (the ``model_axis`` backend), copies
  are grouped up to that capacity and each group rides one fused dispatch
  per layer through :class:`~repro.nn.stacked.StackedSequential`; with a
  zero capacity (numpy/parallel) the same query runs the copies one at a
  time, with bit-identical results.

Use :class:`Engine` whenever the same model is queried for more than a
handful of samples; use raw ``Model.forward`` for one-off single-sample
queries where the engine's hashing overhead is not worth paying.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backend import BackendSpec, ExecutionBackend, get_backend
from repro.engine.cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_ENTRIES,
    BatchResultCache,
    CacheStats,
    array_fingerprint,
)
from repro.faults import inject
from repro.faults.policy import FaultPolicy, RetryController
from repro.nn.dtypes import DtypePolicy, DtypeSpec
from repro.nn.layers import ActivationLayer, Conv2D, Dense
from repro.nn.losses import Loss
from repro.nn.model import SCALARIZATIONS, Sequential
from repro.nn.serialization import parameter_digest
from repro.utils.logging import get_logger

logger = get_logger("engine")

#: default chunk size for processing large candidate pools
DEFAULT_BATCH_SIZE = 64


def resolve_engine(
    model: Sequential,
    criterion: Optional[object] = None,
    engine: Optional["Engine"] = None,
    cache: bool = True,
) -> "Engine":
    """Return the caller's engine after checking ownership, or build one.

    The single shared implementation of the "optional ``engine`` parameter"
    convention: a provided engine must be bound to ``model``; otherwise a
    fresh engine is built.  Callers constructing an engine for a single
    query should pass ``cache=False`` — memoizing a one-shot result would
    only pay hashing costs for keys that can never be hit again.
    """
    if engine is not None:
        if engine.model is not model:
            raise ValueError("engine is bound to a different model")
        return engine
    return Engine(model, criterion=criterion, cache=cache)


def neuron_layer_indices(model: Sequential) -> List[int]:
    """Indices of layers whose outputs count as neurons.

    "Neurons" are the scalar post-activation outputs of every layer that has
    parameters or applies a non-linearity (convolution feature-map cells,
    dense units, standalone activations); pooling/flatten outputs introduce
    no new neurons.  This is the single definition shared by the engine and
    :mod:`repro.coverage.neuron_coverage`.
    """
    indices = [
        i
        for i, layer in enumerate(model.layers)
        if isinstance(layer, (Conv2D, Dense, ActivationLayer))
    ]
    if not indices:
        raise ValueError("model has no neuron-bearing layers")
    return indices


class Engine:
    """Batched, memoizing executor of a model's coverage-relevant queries.

    Parameters
    ----------
    model:
        The built model this engine serves.  The engine never mutates it
        (parameter gradients are read out per sample, not accumulated).
    criterion:
        Default activation criterion for :meth:`activation_masks`; resolved
        with :func:`repro.coverage.activation.default_criterion_for` when
        omitted.
    backend:
        Backend name, instance or class; see :mod:`repro.engine.backend`.
        Sharded backends (``"parallel"``) multiply the effective chunk size
        by their worker count so every worker still processes ``batch_size``
        samples per dispatch.
    dtype:
        Compute-dtype policy (``None``/``"float64"`` default, or
        ``"float32"`` for halved memory traffic at documented tolerances —
        see :mod:`repro.nn.dtypes`).  Under float32 the engine runs passes
        against a float32 shadow copy of the model, re-cast whenever the
        caller's parameters change; the caller's model is never touched.
    batch_size:
        Chunk size used when a query's batch is larger; bounds the transient
        memory of im2col buffers and per-sample gradient stacks.
    cache:
        Whether to memoize results.  Disable for models whose parameters
        change on every call (e.g. inside attack loops) to skip the hashing
        work.
    cache_entries:
        LRU entry capacity of the memo cache.
    cache_bytes:
        LRU byte budget of the memo cache (per-sample gradient matrices for
        large pools dominate; least-recently-used entries are evicted once
        the budget is exceeded).
    memory_budget_bytes:
        Default transient-buffer cap for the streaming packed-mask queries
        (:meth:`packed_activation_masks` / :meth:`packed_neuron_masks`);
        per-call ``memory_budget_bytes`` arguments override it.  ``None``
        leaves chunking governed by ``batch_size`` alone.  When masks spill
        to disk, the same budget also bounds the mmap window the greedy
        selection streams through.
    spill_dir:
        Default directory for disk-spilled packed-mask stores
        (:class:`~repro.coverage.bitmap.MmapMaskMatrix`); per-call
        ``spill_dir`` arguments override it.  ``None`` (default) keeps
        packed masks in RAM.
    fault_policy:
        :class:`~repro.faults.FaultPolicy` (or its dict form) making every
        backend dispatch fault-tolerant: transient failures (I/O errors,
        worker crashes, dispatch timeouts) are retried with deterministic
        backoff, and ``breaker_threshold`` consecutive failures trip a
        circuit breaker that swaps the backend for the policy's serial
        ``downgrade_backend`` — recorded in :attr:`stats` (``downgrades``)
        and :attr:`fault_events`.  ``None`` (default) dispatches directly
        with zero added overhead.
    """

    def __init__(
        self,
        model: Sequential,
        criterion: Optional[object] = None,
        backend: BackendSpec = "numpy",
        dtype: DtypeSpec = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: bool = True,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        memory_budget_bytes: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        fault_policy: Union[FaultPolicy, Dict[str, object], None] = None,
    ) -> None:
        if not model.built:
            raise ValueError("Engine requires a built model")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.model = model
        if criterion is None:
            # imported lazily: repro.coverage depends on repro.engine, not
            # the other way around
            from repro.coverage.activation import default_criterion_for

            criterion = default_criterion_for(model)
        self.criterion = criterion
        self.backend: ExecutionBackend = get_backend(backend)
        self.dtype_policy = DtypePolicy.resolve(dtype)
        self.batch_size = int(batch_size)
        self.memory_budget_bytes = memory_budget_bytes
        self._cache: Optional[BatchResultCache] = (
            BatchResultCache(cache_entries, cache_bytes) if cache else None
        )
        # float32 shadow copy of the model, rebuilt when the caller's
        # parameters change (tracked by digest); None under the default policy
        self._shadow_model: Optional[Sequential] = None
        self._shadow_digest: Optional[str] = None
        self.fault_policy = FaultPolicy.coerce(fault_policy)
        self._faults: Optional[RetryController] = (
            RetryController(self.fault_policy) if self.fault_policy else None
        )

    # -- cache plumbing ------------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        return self._cache is not None

    @property
    def stats(self) -> CacheStats:
        """Merged hit/miss statistics of the memo cache and the backend.

        Sharded backends contribute their transport-level counters (model
        publications reused vs re-shipped), merged into one view so callers
        observing cache behaviour under sharding need no backend-specific
        code.  Zeros when memoization is disabled and the backend is
        stateless.
        """
        memo = self._cache.stats if self._cache is not None else CacheStats()
        backend_stats = self.backend.cache_stats
        merged = memo if backend_stats is None else memo.merge(backend_stats)
        if self._faults is not None:
            fault_stats = self._faults.stats
            merged = merged.merge(
                CacheStats(
                    retries=fault_stats.retries, downgrades=fault_stats.downgrades
                )
            )
        return merged

    @property
    def fault_events(self) -> List[Dict[str, object]]:
        """Structured fault-tolerance log: transient failures, breaker trips,
        and backend downgrades (empty without a fault policy)."""
        return list(self._faults.events) if self._faults is not None else []

    # -- fault-tolerant dispatch --------------------------------------------
    def _backend_call(self, op: str, *args, **kwargs):
        """Invoke a backend primitive under the engine's fault policy.

        Without a policy this is a plain attribute call plus one injection
        guard — the fault-free hot path stays unmeasurable (gated in
        ``benchmarks/bench_faults.py``).  With a policy, transient failures
        are retried with deterministic backoff and the circuit breaker can
        downgrade to the policy's serial fallback backend mid-query.
        """
        faults = self._faults
        if faults is None:
            if inject.active():
                inject.check("engine.dispatch", op=op, backend=self.backend.name)
            return getattr(self.backend, op)(*args, **kwargs)
        if inject.active():
            # an injection plan is live: take the full controller path so
            # injected engine.dispatch faults are retried like real ones
            return self._retry_call(op, args, kwargs, None)
        # inlined happy path — the controller frame is only paid when a
        # dispatch actually raises
        try:
            result = getattr(self.backend, op)(*args, **kwargs)
        except Exception as exc:
            return self._retry_call(op, args, kwargs, exc)
        faults.consecutive_failures = 0
        return result

    def _retry_call(self, op: str, args, kwargs, pending):
        def attempt():
            if inject.active():
                inject.check("engine.dispatch", op=op, backend=self.backend.name)
            return getattr(self.backend, op)(*args, **kwargs)

        downgrade = None
        target = self.fault_policy.downgrade_backend
        if target is not None and self.backend.name != target:
            downgrade = self._downgrade_backend
        return self._faults.run(attempt, key=op, downgrade=downgrade, pending=pending)

    def _downgrade_backend(self, exc: BaseException) -> None:
        """Breaker action: swap in the policy's serial fallback backend.

        The failing backend is *not* closed — one backend instance may serve
        several engines, and a shared pool must not be torn down because one
        engine's breaker tripped.  Owners release it as usual via
        ``close()``/GC.
        """
        target = self.fault_policy.downgrade_backend
        previous = self.backend.name
        self.backend = get_backend(target)
        self._faults.events.append(
            {
                "event": "downgrade",
                "from": previous,
                "to": target,
                "reason": f"{type(exc).__name__}: {exc}",
            }
        )
        logger.warning(
            "circuit breaker tripped: downgrading backend %s -> %s (%s)",
            previous,
            target,
            exc,
        )

    def invalidate(self) -> None:
        """Drop all memoized results.

        Not required for correctness after the model's parameters change —
        keys embed the parameter digest, so stale entries can never be
        returned — but frees their memory immediately.
        """
        if self._cache is not None:
            self._cache.clear()

    def _memoized(self, op: str, batch: np.ndarray, extra: tuple, compute):
        return self._memoized_for(
            op, parameter_digest(self.model), batch, extra, compute
        )

    def _memoized_for(self, op: str, digest_key, batch: np.ndarray, extra: tuple, compute):
        """Memoize under an explicit parameter-digest key.

        The single-model queries key by this engine's model digest; the
        stacked queries key by the *tuple* of digests of the models in the
        stack, so a repeated stacked query over the same copies is a cache
        hit while any reordering or perturbation of the set is a miss.
        """
        if self._cache is None:
            return compute()
        key = (op, digest_key, array_fingerprint(batch), extra)
        value = self._cache.get(key)
        if value is None:
            value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache.put(key, value)
        return value

    # -- batching plumbing ---------------------------------------------------
    def _as_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch)
        expected = self.model.input_shape or ()
        if batch.ndim == len(expected):
            # promote a single sample to a batch of one
            batch = batch[None, ...]
        if batch.ndim != len(expected) + 1 or tuple(batch.shape[1:]) != tuple(expected):
            raise ValueError(
                f"batch must have per-sample shape {expected}, got array of "
                f"shape {batch.shape}"
            )
        if batch.shape[0] == 0:
            raise ValueError("cannot execute an empty batch")
        # cast/contiguize only when needed: a conforming pool array is
        # returned as-is, so repeated queries on the same pool never pay a
        # per-call copy (pinned by a no-copy assertion in the test suite)
        return self.dtype_policy.asarray(batch)

    def _chunks(self, n: int, max_chunk: Optional[int] = None) -> Iterator[slice]:
        # sharded backends split every dispatched chunk across their workers,
        # so scale the chunk size to keep each worker at batch_size samples
        step = self.batch_size * max(1, self.backend.parallelism)
        if max_chunk is not None:
            step = max(1, min(step, max_chunk))
        for start in range(0, n, step):
            yield slice(start, min(start + step, n))

    def _budgeted_chunk_rows(
        self, memory_budget_bytes: Optional[int], per_row_bytes: Optional[int] = None
    ) -> Optional[int]:
        """Largest chunk row count whose transient dense buffers fit a budget.

        ``per_row_bytes`` is the query's per-sample transient cost; defaults
        to one float64 gradient row (``P × 8`` bytes), the dominant buffer of
        the parameter-mask queries.  A per-call ``None`` falls back to the
        engine-level :attr:`memory_budget_bytes` default.
        """
        if memory_budget_bytes is None:
            memory_budget_bytes = self.memory_budget_bytes
        if memory_budget_bytes is None:
            return None
        if memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        if per_row_bytes is None:
            per_row_bytes = self.model.num_parameters() * 8
        rows = int(memory_budget_bytes) // max(1, per_row_bytes)
        if rows < 1:
            warnings.warn(
                f"memory_budget_bytes={int(memory_budget_bytes)} is smaller "
                f"than one sample's transient buffers ({per_row_bytes} bytes "
                "per row); chunking at one sample per chunk, which will "
                f"exceed the budget by up to {per_row_bytes - int(memory_budget_bytes)} "
                "bytes",
                RuntimeWarning,
                stacklevel=3,
            )
            return 1
        return rows

    def _activation_volume(self) -> int:
        """Scalars per sample that ``forward_collect`` keeps resident.

        The transient cost of the neuron-mask queries: every layer's output
        is collected, so (unlike the gradient queries) it scales with
        feature-map sizes, not parameter count — for conv layers the two
        differ by orders of magnitude (weight sharing).
        """
        shape = self.model.input_shape or ()
        total = 0
        for layer in self.model.layers:
            shape = layer.output_shape(shape)
            total += int(np.prod(shape))
        return total

    def _execution_model(self) -> Sequential:
        """The model the backend should run: the caller's, or its shadow.

        Under the default float64 policy this is the caller's model itself.
        Under float32 it is a cast copy, re-cast whenever the caller's
        parameter digest changes (attack loops perturb parameters between
        calls; results must always reflect the current values).
        """
        if self.dtype_policy.is_default:
            return self.model
        digest = parameter_digest(self.model)
        if self._shadow_model is None or self._shadow_digest != digest:
            self._shadow_model = self.dtype_policy.cast_model(self.model)
            self._shadow_digest = digest
        return self._shadow_model

    # -- forward queries -----------------------------------------------------
    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Inference-mode logits for a batch, chunked and memoized."""
        batch = self._as_batch(batch)

        def compute() -> np.ndarray:
            model = self._execution_model()
            return np.concatenate(
                [
                    self._backend_call("forward", model, batch[s])
                    for s in self._chunks(batch.shape[0])
                ],
                axis=0,
            )

        return self._memoized("forward", batch, (), compute)

    def predict_classes(self, batch: np.ndarray) -> np.ndarray:
        """Predicted class index per sample (through the memoized forward)."""
        return np.argmax(self.forward(batch), axis=1)

    # -- model-axis queries --------------------------------------------------
    def stacked_forward(
        self, models: Sequence[Sequential], batch: np.ndarray
    ) -> np.ndarray:
        """Logits of many same-architecture models on one batch: ``(M, N, C)``.

        The Tables II/III inner loop as a single query: ``models`` are the
        perturbed copies of one victim (same architecture, different weight
        values) and slice ``m`` of the result equals
        ``Engine(models[m]).forward(batch)`` bit for bit.  Backends with a
        positive :attr:`~repro.engine.backend.ExecutionBackend.model_axis_capacity`
        fuse up to that many copies per dispatch (one batched matmul per
        layer); others run the models one at a time with identical results.
        Memoization keys on the *tuple* of parameter digests, so revisiting
        the same set of copies is a cache hit.
        """
        models = list(models)
        if not models:
            raise ValueError("stacked_forward needs at least one model")
        batch = self._as_batch(batch)
        for model in models:
            if not model.built:
                raise ValueError("stacked_forward requires built models")
            if tuple(model.input_shape or ()) != tuple(self.model.input_shape or ()):
                raise ValueError(
                    "stacked models must share this engine's input shape"
                )

        def compute() -> np.ndarray:
            if self.dtype_policy.is_default:
                run = models
            else:
                run = [self.dtype_policy.cast_model(model) for model in models]
            # the engine's own model is the unperturbed base the copies were
            # derived from: fused backends share its activation trunk up to
            # each copy's first divergent layer
            base = self._execution_model()
            capacity = self.backend.model_axis_capacity or len(run)
            outputs = []
            for start in range(0, len(run), capacity):
                group = run[start : start + capacity]
                outputs.append(
                    np.concatenate(
                        [
                            self._backend_call(
                                "stacked_forward", group, batch[s], base=base
                            )
                            for s in self._chunks(batch.shape[0])
                        ],
                        axis=1,
                    )
                )
            return np.concatenate(outputs, axis=0)

        if self._cache is None:
            return compute()
        # the digest tuple is only a memo key: an engine without a memo
        # (every trial replay) never hashes the copies
        digests = tuple(parameter_digest(model) for model in models)
        return self._memoized_for("stacked_forward", digests, batch, (), compute)

    # -- gradient queries ----------------------------------------------------
    def output_gradients(
        self, batch: np.ndarray, scalarization: Optional[str] = None
    ) -> np.ndarray:
        """Per-sample flat parameter gradients ``∇θ F(x_i)``, shape ``(N, P)``.

        Row ``i`` matches ``model.output_gradients(batch[i])`` to floating-
        point equivalence, computed in one batched backward pass per chunk.
        """
        batch = self._as_batch(batch)
        scal = scalarization or getattr(self.criterion, "scalarization", "sum")
        if scal not in SCALARIZATIONS:
            raise ValueError(
                f"unknown scalarization {scal!r}; choose from {SCALARIZATIONS}"
            )

        def compute() -> np.ndarray:
            model = self._execution_model()
            return np.concatenate(
                [
                    self._backend_call("output_gradients", model, batch[s], scal)
                    for s in self._chunks(batch.shape[0])
                ],
                axis=0,
            )

        # "max" and "predicted" both seed the backward pass with a one-hot at
        # the argmax logit, so their gradient matrices are identical — share
        # one cache entry
        key_scal = "max" if scal == "predicted" else scal
        return self._memoized("output_gradients", batch, (key_scal,), compute)

    def input_gradients(
        self,
        batch: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss] = "cross_entropy",
    ) -> Tuple[float, np.ndarray]:
        """Loss value and input-gradient batch (Algorithm 2 / GDA primitive).

        Not chunked (batch losses normalise by ``N``) and not memoized: the
        synthesis loop feeds a fresh input every step, so hashing would be
        pure overhead.
        """
        batch = self._as_batch(batch)
        return self._backend_call(
            "input_gradients", self._execution_model(), batch, targets, loss
        )

    def loss_parameter_gradients(
        self,
        batch: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss] = "cross_entropy",
    ) -> Tuple[float, np.ndarray]:
        """Loss value and flat parameter gradients of a training loss.

        Summed over the batch (ordinary training semantics); used by the GDA
        attack, which perturbs the model between calls — hence no memoization.
        """
        batch = self._as_batch(batch)
        return self._backend_call(
            "loss_parameter_gradients", self._execution_model(), batch, targets, loss
        )

    # -- mask queries --------------------------------------------------------
    def activation_masks(
        self, batch: np.ndarray, criterion: Optional[object] = None
    ) -> np.ndarray:
        """Boolean per-parameter activation masks, shape ``(N, P)``.

        Row ``i`` equals ``activation_mask(model, batch[i], criterion)``.
        Gradients are thresholded chunk by chunk, so peak memory is one
        chunk's float64 gradients plus the boolean mask matrix — the full
        ``(N, P)`` float64 matrix is never materialized (callers that need
        it, like the ε-ablation sweep, use :meth:`output_gradients`
        directly).  If that gradient matrix happens to be memoized already,
        it is re-thresholded instead of recomputed.
        """
        crit = criterion or self.criterion
        batch = self._as_batch(batch)
        scal = getattr(crit, "scalarization", "sum")
        if scal not in SCALARIZATIONS:
            raise ValueError(
                f"unknown scalarization {scal!r}; choose from {SCALARIZATIONS}"
            )
        key_scal = "max" if scal == "predicted" else scal
        if self._cache is not None:
            grads_key = (
                "output_gradients",
                parameter_digest(self.model),
                array_fingerprint(batch),
                (key_scal,),
            )
            grads = self._cache.get(grads_key)
            if grads is not None:
                return crit.activated(grads)

        def compute() -> np.ndarray:
            model = self._execution_model()
            return np.concatenate(
                [
                    crit.activated(
                        self._backend_call("output_gradients", model, batch[s], scal)
                    )
                    for s in self._chunks(batch.shape[0])
                ],
                axis=0,
            )

        epsilon = getattr(crit, "epsilon", None)
        return self._memoized("activation_masks", batch, (key_scal, epsilon), compute)

    def packed_activation_masks(
        self,
        batch: np.ndarray,
        criterion: Optional[object] = None,
        memory_budget_bytes: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
    ):
        """Packed per-parameter activation masks as a
        :class:`~repro.coverage.bitmap.MaskMatrix` (1/8 the dense bytes).

        Row ``i`` packs exactly ``activation_mask(model, batch[i],
        criterion)`` — packing is lossless, so dense and packed consumers see
        bit-identical masks.  Masks are built *streaming*: each chunk's
        gradients are thresholded and packed, then dropped, so peak transient
        memory is one chunk's float64 gradients plus the packed matrix.
        ``memory_budget_bytes`` caps that transient chunk (the full
        ``(N, P)`` dense matrix is never materialized either way).

        With ``spill_dir`` (per-call, or the engine-level default) the packed
        words are written chunk by chunk straight into an on-disk
        :class:`~repro.coverage.bitmap.MmapMaskMatrix` store instead of
        concatenating in RAM, and the returned matrix streams greedy-
        selection queries through windows bounded by the same memory budget.
        The store is keyed by (model parameters, batch, criterion), so a
        repeated query maps the existing file without recomputing; torn or
        truncated files from interrupted runs are detected and rebuilt.

        Plain :class:`~repro.coverage.activation.ActivationCriterion`
        thresholds are pushed down to the backend, which may pack inside its
        workers (the parallel backend ships 1/8-size results); criteria with
        a custom ``activated`` run through a generic dense-chunk fallback.
        """
        from repro.coverage.activation import ActivationCriterion
        from repro.coverage.bitmap import MaskMatrix, pack_bool

        crit = criterion or self.criterion
        batch = self._as_batch(batch)
        scal = getattr(crit, "scalarization", "sum")
        if scal not in SCALARIZATIONS:
            raise ValueError(
                f"unknown scalarization {scal!r}; choose from {SCALARIZATIONS}"
            )
        key_scal = "max" if scal == "predicted" else scal
        epsilon = getattr(crit, "epsilon", None)
        nbits = self.model.num_parameters()
        max_chunk = self._budgeted_chunk_rows(memory_budget_bytes)
        plain = type(crit) is ActivationCriterion

        spill = Path(spill_dir) if spill_dir is not None else self.spill_dir
        if spill is not None:

            def spill_chunks():
                model = self._execution_model()
                for s in self._chunks(batch.shape[0], max_chunk):
                    if plain:
                        yield self._backend_call(
                            "packed_masks", model, batch[s], scal, crit.epsilon
                        )
                    else:
                        yield pack_bool(
                            crit.activated(
                                self._backend_call("output_gradients", model, batch[s], scal)
                            )
                        )

            return self._spilled_masks(
                spill,
                "packed_activation_masks",
                batch,
                (key_scal, epsilon),
                nbits,
                spill_chunks,
                memory_budget_bytes,
            )

        # a memoized dense gradient (or mask) matrix for this batch makes
        # packing a pure re-threshold — reuse it instead of recomputing.
        # Thresholding runs chunk by chunk so the reuse path honours the
        # memory budget too (the full (N, P) boolean matrix is never built)
        if self._cache is not None:
            digest = parameter_digest(self.model)
            fingerprint = array_fingerprint(batch)
            grads = self._cache.get(
                ("output_gradients", digest, fingerprint, (key_scal,))
            )
            if grads is not None:
                words = np.concatenate(
                    [
                        pack_bool(crit.activated(grads[s]))
                        for s in self._chunks(grads.shape[0], max_chunk)
                    ],
                    axis=0,
                )
                return MaskMatrix(nbits, words)
            dense = self._cache.get(
                ("activation_masks", digest, fingerprint, (key_scal, epsilon))
            )
            if dense is not None:
                return MaskMatrix(nbits, pack_bool(dense))

        def compute() -> np.ndarray:
            model = self._execution_model()
            rows = []
            for s in self._chunks(batch.shape[0], max_chunk):
                if plain:
                    rows.append(
                        self._backend_call(
                            "packed_masks", model, batch[s], scal, crit.epsilon
                        )
                    )
                else:
                    rows.append(
                        pack_bool(
                            crit.activated(
                                self._backend_call("output_gradients", model, batch[s], scal)
                            )
                        )
                    )
            return np.concatenate(rows, axis=0)

        words = self._memoized(
            "packed_activation_masks", batch, (key_scal, epsilon), compute
        )
        return MaskMatrix(nbits, words)

    def packed_neuron_masks(
        self,
        batch: np.ndarray,
        threshold: float = 0.0,
        memory_budget_bytes: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
    ):
        """Packed per-neuron activation masks as a
        :class:`~repro.coverage.bitmap.MaskMatrix`.

        Row ``i`` packs exactly ``neuron_activation_mask(model, batch[i],
        threshold)``; chunks are thresholded and packed streaming, like
        :meth:`packed_activation_masks` — including its ``spill_dir``
        disk-backed store option.
        """
        from repro.coverage.bitmap import MaskMatrix
        from repro.coverage.neuron_coverage import count_neurons

        batch = self._as_batch(batch)
        threshold = float(threshold)
        indices = tuple(neuron_layer_indices(self.model))
        nbits = count_neurons(self.model)
        # the transient here is forward_collect's per-layer outputs, not a
        # gradient row — budget by activation volume (for conv models the
        # difference is orders of magnitude)
        max_chunk = self._budgeted_chunk_rows(
            memory_budget_bytes, per_row_bytes=self._activation_volume() * 8
        )

        spill = Path(spill_dir) if spill_dir is not None else self.spill_dir
        if spill is not None:

            def spill_chunks():
                model = self._execution_model()
                for s in self._chunks(batch.shape[0], max_chunk):
                    yield self._backend_call(
                        "packed_neuron_masks", model, batch[s], threshold, indices
                    )

            return self._spilled_masks(
                spill,
                "packed_neuron_masks",
                batch,
                (threshold,),
                nbits,
                spill_chunks,
                memory_budget_bytes,
            )

        def compute() -> np.ndarray:
            model = self._execution_model()
            return np.concatenate(
                [
                    self._backend_call(
                        "packed_neuron_masks", model, batch[s], threshold, indices
                    )
                    for s in self._chunks(batch.shape[0], max_chunk)
                ],
                axis=0,
            )

        words = self._memoized("packed_neuron_masks", batch, (threshold,), compute)
        return MaskMatrix(nbits, words)

    def _spilled_masks(
        self,
        spill_dir: Path,
        op: str,
        batch: np.ndarray,
        extra: tuple,
        nbits: int,
        chunks,
        memory_budget_bytes: Optional[int],
    ):
        """Build (or remap) a disk-backed packed-mask store for a query.

        The store file is content-addressed by (operation, parameter digest,
        batch fingerprint, options, nbits): a repeated query memory-maps the
        existing file instead of recomputing — the disk **is** the memo for
        spilled queries, so the in-RAM memo cache is bypassed.  Torn,
        truncated, or unreadable stores (interrupted runs, partial copies,
        I/O faults) are **quarantined** to a ``quarantine/`` sidecar
        directory for post-mortem inspection and rebuilt from scratch — a
        corrupt store is self-healing, never fatal.
        """
        from repro.coverage.bitmap import MmapMaskMatrix, MmapMaskWriter, quarantine_store

        budget = (
            memory_budget_bytes
            if memory_budget_bytes is not None
            else self.memory_budget_bytes
        )
        key = repr(
            (op, parameter_digest(self.model), array_fingerprint(batch), extra, nbits)
        )
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
        path = spill_dir / f"{op}-{digest}.masks"
        if path.exists():
            try:
                matrix = MmapMaskMatrix.open(path, memory_budget_bytes=budget)
            except (ValueError, OSError) as exc:
                sidecar = quarantine_store(path)
                logger.warning(
                    "quarantined corrupt spill store %s -> %s (%s); rebuilding",
                    path,
                    sidecar,
                    exc,
                )
            else:
                if matrix.nbits == nbits and len(matrix) == batch.shape[0]:
                    # refresh the mtime: ``gc-spill`` treats it as the
                    # last-use marker when sweeping unreferenced stores
                    os.utime(path, None)
                    return matrix
                # a readable store that answers a different query is not
                # corruption — a content-address collision after a code
                # change — so rebuild in place without quarantining
                logger.warning("spill store %s does not match the query; rebuilding", path)
                path.unlink()
        with MmapMaskWriter(path, nbits) as writer:
            for words in chunks():
                writer.append(words)
            return writer.close(memory_budget_bytes=budget)

    def neuron_masks(self, batch: np.ndarray, threshold: float = 0.0) -> np.ndarray:
        """Boolean per-neuron activation masks, shape ``(N, num_neurons)``.

        Row ``i`` equals ``neuron_activation_mask(model, batch[i], threshold)``
        — the DeepXplore-style criterion over every neuron-bearing layer's
        post-activation outputs, computed layer-batched.
        """
        batch = self._as_batch(batch)
        threshold = float(threshold)
        indices = neuron_layer_indices(self.model)

        def compute() -> np.ndarray:
            model = self._execution_model()
            rows = []
            for s in self._chunks(batch.shape[0]):
                chunk = batch[s]
                outputs = self._backend_call("forward_collect", model, chunk)
                parts = [
                    (outputs[i] > threshold).reshape(chunk.shape[0], -1)
                    for i in indices
                ]
                rows.append(np.concatenate(parts, axis=1))
            return np.concatenate(rows, axis=0)

        return self._memoized("neuron_masks", batch, (threshold,), compute)

    # -- coverage aggregates -------------------------------------------------
    def per_sample_coverage(
        self, batch: np.ndarray, criterion: Optional[object] = None
    ) -> np.ndarray:
        """``VC(x_i)`` of every sample in the batch (Eq. 3, vectorised).

        Runs on packed masks: per-sample popcount over ``nbits`` — exactly
        equal to the dense row means at 1/8 the resident memory.
        """
        return self.packed_activation_masks(batch, criterion).fractions()

    def mean_validation_coverage(
        self, batch: np.ndarray, criterion: Optional[object] = None
    ) -> float:
        """``mean_i VC(x_i)`` — the Fig. 2 quantity — in one batched pass."""
        return float(self.per_sample_coverage(batch, criterion).mean())

    def union_mask(
        self, batch: np.ndarray, criterion: Optional[object] = None
    ) -> np.ndarray:
        """Parameters activated by at least one sample of the batch.

        An empty batch is a valid (empty) test set: it activates nothing, so
        the result is all-False — matching
        :func:`repro.coverage.parameter_coverage.set_validation_coverage`.
        """
        if np.asarray(batch).shape[:1] == (0,):
            return np.zeros(self.model.num_parameters(), dtype=bool)
        return self.activation_masks(batch, criterion).any(axis=0)

    def set_validation_coverage(
        self, batch: np.ndarray, criterion: Optional[object] = None
    ) -> float:
        """``VC(X)`` of the whole batch as a test set (Eq. 4-5, vectorised).

        Computed on packed masks (word-wise union + popcount); exactly equal
        to ``union_mask(batch).mean()`` without materialising the dense
        matrix.  ``0.0`` for an empty batch, like the module-level function.
        """
        if np.asarray(batch).shape[:1] == (0,):
            return 0.0
        return self.packed_activation_masks(batch, criterion).union().fraction

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(model={self.model.name!r}, backend={self.backend.name!r}, "
            f"dtype={self.dtype_policy.name!r}, batch_size={self.batch_size}, "
            f"cache={self.cache_enabled})"
        )


__all__ = ["DEFAULT_BATCH_SIZE", "Engine", "neuron_layer_indices", "resolve_engine"]
