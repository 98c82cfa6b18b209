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
* **Memoizing** — results are cached keyed by ``(operation, exact model
  key, array fingerprint, options)``.  The model key
  (:func:`~repro.engine.cache.exact_model_key`) covers every parameter bit,
  so perturbing the model (as the attacks do), even in one low mantissa bit,
  can never yield stale results; entries for old parameters simply stop
  matching.
* **In-process** — every query calls the model's own NumPy passes
  (``forward``, ``forward_collect``, ``output_gradients_batch``,
  ``input_gradient``, ``loss_parameter_gradients``) directly, behind the
  ``engine.dispatch`` fault-injection site.  Forward queries are inference
  passes (no tape), and a gradient query's tape lives only as long as the
  query: no query leaves anything on the model.
* **One mask path** — each packed-mask query (parameter or neuron) has one
  chunk generator, which feeds both the in-RAM matrix and the disk-spilled
  store; the dense :meth:`Engine.activation_masks`,
  :meth:`Engine.neuron_masks` and :meth:`Engine.union_mask` are views of
  the packed result.  Spilled stores are keyed on the same exact model
  key.
* **Trunk-sharing stacked replay** — :meth:`Engine.stacked_forward`
  evaluates many same-architecture models (the detection experiments'
  perturbed copies) on one batch.  Each copy starts at its
  :func:`~repro.engine.cache.first_divergence` from the engine's model,
  on that model's *trunk* (its per-layer activations on the batch), so the
  layers a copy shares with the model run once per chunk, not once per
  copy.  The trunk is memoized, whatever ``cache`` says, only when no copy
  is bitwise the engine's model (trial replay of a victim's copies).

Use :class:`Engine` whenever the same model is queried for more than a
handful of samples; use raw ``Model.forward`` for one-off single-sample
queries where the engine's hashing overhead is not worth paying.
"""

from __future__ import annotations

import hashlib
import os
import warnings
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.cache import (
    BatchResultCache,
    CacheStats,
    TrunkCache,
    array_fingerprint,
    exact_model_key,
    first_divergence,
)
from repro.faults import inject
from repro.nn.layers import ActivationLayer, Conv2D, Dense
from repro.nn.losses import Loss
from repro.nn.model import SCALARIZATIONS, Sequential
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


def _checked_scalarization(scal: str) -> str:
    if scal not in SCALARIZATIONS:
        raise ValueError(f"unknown scalarization {scal!r}; choose from {SCALARIZATIONS}")
    return scal


#: layers whose outputs count as neurons: the single definition shared by
#: the engine and :mod:`repro.coverage.neuron_coverage`
NEURON_LAYER_TYPES = (Conv2D, Dense, ActivationLayer)


def neuron_layer_indices(model: Sequential) -> List[int]:
    """Indices of layers whose outputs count as neurons.

    "Neurons" are the scalar post-activation outputs of every layer that has
    parameters or applies a non-linearity (convolution feature-map cells,
    dense units, standalone activations); pooling/flatten outputs introduce
    no new neurons (:data:`NEURON_LAYER_TYPES`).
    """
    indices = [i for i, layer in enumerate(model.layers) if isinstance(layer, NEURON_LAYER_TYPES)]
    if not indices:
        raise ValueError("model has no neuron-bearing layers")
    return indices


class Engine:
    """Batched, memoizing executor of a model's coverage-relevant queries.

    Parameters
    ----------
    model:
        The built model this engine serves.  The engine never mutates it.
    criterion:
        Default activation criterion for :meth:`activation_masks`; resolved
        with :func:`repro.coverage.activation.default_criterion_for` when
        omitted.
    batch_size:
        Chunk size used when a query's batch is larger; bounds the transient
        memory of im2col buffers and per-sample gradient stacks.
    cache:
        Whether to memoize results.  Disable for models whose parameters
        change on every call (e.g. inside attack loops) to skip the hashing
        work.  The memo is an LRU bounded at
        :data:`~repro.engine.cache.DEFAULT_CACHE_ENTRIES` entries and
        :data:`~repro.engine.cache.DEFAULT_CACHE_BYTES` bytes (per-sample
        gradient matrices for large pools dominate; least-recently-used
        entries are evicted once the budget is exceeded).
    memory_budget_bytes:
        Default transient-buffer cap for the streaming packed-mask queries
        (:meth:`packed_activation_masks` / :meth:`packed_neuron_masks`);
        per-call ``memory_budget_bytes`` arguments override it.  ``None``
        leaves chunking governed by ``batch_size`` alone.  When masks spill
        to disk, the same budget also bounds the row window the greedy
        selection streams the store through.
    spill_dir:
        Default directory for disk-spilled packed-mask stores
        (:class:`~repro.coverage.bitmap.MmapMaskMatrix`); per-call
        ``spill_dir`` arguments override it.  ``None`` (default) keeps
        packed masks in RAM.

    The engine computes in float64 and calls the model's passes directly:
    an in-process call has no transient failure mode, so an error
    propagates on its first occurrence.
    """

    def __init__(
        self,
        model: Sequential,
        criterion: Optional[object] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: bool = True,
        memory_budget_bytes: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
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
        self.batch_size = int(batch_size)
        self.memory_budget_bytes = memory_budget_bytes
        self._cache: Optional[BatchResultCache] = BatchResultCache() if cache else None
        # the model's per-layer activations on a batch, kept whatever
        # ``cache`` says: every stacked replay of its perturbed copies reuses
        # them (keyed on the exact parameter bytes, never the rounded digest)
        self._trunks = TrunkCache()

    # -- cache plumbing ------------------------------------------------------
    @property
    def cache_enabled(self) -> bool:
        return self._cache is not None

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the memo cache (the live counter object;
        zeros when memoization is disabled)."""
        return self._cache.stats if self._cache is not None else CacheStats()

    def invalidate(self) -> None:
        """Drop all memoized results.

        Not required for correctness after the model's parameters change —
        keys embed the exact model key, so stale entries can never be
        returned — but frees their memory immediately.
        """
        if self._cache is not None:
            self._cache.clear()
        self._trunks.clear()

    def _memoized(self, op: str, batch: np.ndarray, extra: tuple, compute):
        return self._memoized_for(op, lambda: exact_model_key(self.model), batch, extra, compute)

    def _memoized_for(self, op: str, model_key, batch: np.ndarray, extra: tuple, compute):
        """Memoize under an explicit model key, ``model_key()``.

        The single-model queries key by this engine's exact model key; the
        stacked queries key by the *tuple* of keys of the models in the
        stack, so a repeated stacked query over the same copies is a cache
        hit while any reordering or perturbation of the set is a miss.  The
        key is built only when the memo is on: an engine without one (every
        trial replay, the ``cache=False`` coverage helpers) hashes no model.
        """
        if self._cache is None:
            return compute()
        key = (op, model_key(), array_fingerprint(batch), extra)
        value = self._cache.get(key)
        if value is None:
            value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            self._cache.put(key, value)
        return value

    def _memo_lookup(self, op: str, batch: np.ndarray, extra: tuple):
        """The memoized result of a single-model query, or ``None``."""
        if self._cache is None:
            return None
        return self._cache.get(
            (op, exact_model_key(self.model), array_fingerprint(batch), extra)
        )

    # -- dispatch ------------------------------------------------------------
    def _dispatch(self, op: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` behind the ``engine.dispatch``
        fault-injection site (one guard when no plan is active)."""
        if inject.active():
            inject.check("engine.dispatch", op=op)
        return fn(*args, **kwargs)

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
        return np.ascontiguousarray(batch, dtype=np.float64)

    def _chunks(self, n: int, max_chunk: Optional[int] = None) -> Iterator[slice]:
        step = self.batch_size
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

    # -- forward queries -----------------------------------------------------
    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Inference logits for a batch, chunked and memoized; the model
        records nothing (``forward(chunk)`` with no tape)."""
        batch = self._as_batch(batch)

        def compute() -> np.ndarray:
            return np.concatenate(
                [
                    self._dispatch("forward", self.model.forward, batch[s])
                    for s in self._chunks(batch.shape[0])
                ],
                axis=0,
            )

        return self._memoized("forward", batch, (), compute)

    def predict_classes(self, batch: np.ndarray) -> np.ndarray:
        """Predicted class index per sample (through the memoized forward)."""
        return np.argmax(self.forward(batch), axis=1)

    # -- stacked queries -----------------------------------------------------
    def stacked_forward(
        self, models: Sequence[Sequential], batch: np.ndarray
    ) -> np.ndarray:
        """Logits of many same-architecture models on one batch: ``(M, N, C)``.

        The Tables II/III inner loop as a single query: ``models`` are the
        perturbed copies of one victim (same architecture, different weight
        values) and slice ``m`` of the result equals
        ``Engine(models[m]).forward(batch)`` bit for bit.  Every model must
        share this engine model's
        :meth:`~repro.nn.model.Sequential.architecture_signature`: a copy
        whose parameters equal the engine model's below layer ``k`` reads
        the engine model's activation feeding layer ``k`` (its trunk) as its
        own, which only holds between models of one architecture.

        Each copy runs from its :func:`~repro.engine.cache.first_divergence`
        on: a copy that diverges at layer 0 runs whole, a copy that is
        bitwise the engine model takes the trunk's logits, and every other
        copy runs only its divergent suffix.  When no copy is bitwise the
        engine model (trial replay of a victim's copies), the trunk is kept
        in a small exactly keyed memo, with or without ``cache``, so the
        victim's layers run once per batch, not once per call.  Otherwise
        (a serving engine bound to one of the copies) the call computes the
        trunk with that copy's own pass and drops it on return.
        Memoization keys on the *tuple* of exact model keys, so revisiting
        the same set of copies is a cache hit.  Each model's signature is
        computed once per call.  No model records anything.
        """
        models = list(models)
        if not models:
            raise ValueError("stacked_forward needs at least one model")
        batch = self._as_batch(batch)
        signature = self.model.architecture_signature()
        for model in models:
            if not model.built:
                raise ValueError("stacked_forward requires built models")
            if model.architecture_signature() != signature:
                raise ValueError(
                    "stacked models must share this engine model's architecture"
                )

        def compute() -> np.ndarray:
            splits = [first_divergence(self.model, model) for model in models]
            chunks = list(self._chunks(batch.shape[0]))
            # a copy bitwise this model runs whole anyway, so its pass is
            # the trunk and the call drops it (serve binds its engine to one
            # of the copies); otherwise the copies are this model's
            # perturbations, and its trunk serves the next call's too
            keep = any(splits) and len(self.model.layers) not in splits
            trunks = (
                self._trunks.get(self.model, batch, self.batch_size, signature)
                if keep
                else [None] * len(chunks)
            )
            return np.concatenate(
                [
                    self._dispatch(
                        "stacked_forward", self._run_copies, models, splits, batch[s], trunk
                    )
                    for s, trunk in zip(chunks, trunks)
                ],
                axis=1,
            )

        return self._memoized_for(
            "stacked_forward",
            lambda: tuple(exact_model_key(model, signature) for model in models),
            batch,
            (),
            compute,
        )

    def _run_copies(
        self,
        models: List[Sequential],
        splits: List[int],
        x: np.ndarray,
        trunk: Optional[Tuple[np.ndarray, ...]],
    ) -> np.ndarray:
        """Logits of ``models`` on one chunk ``x``, each run from its split
        layer on the engine model's ``trunk`` (computed here when ``None``
        and some copy needs it)."""
        if trunk is None and any(splits):
            trunk = (x, *self.model.forward_collect(x))
        return np.stack(
            [
                model.forward(x) if split == 0 else model._run(trunk[split], start=split)
                for model, split in zip(models, splits)
            ]
        )

    # -- gradient queries ----------------------------------------------------
    def output_gradients(
        self, batch: np.ndarray, scalarization: Optional[str] = None
    ) -> np.ndarray:
        """Per-sample flat parameter gradients ``∇θ F(x_i)``, shape ``(N, P)``.

        Row ``i`` matches ``model.output_gradients(batch[i])`` to floating-
        point equivalence, computed in one batched backward pass per chunk.
        """
        batch = self._as_batch(batch)
        scal = _checked_scalarization(
            scalarization or getattr(self.criterion, "scalarization", "sum")
        )

        def compute() -> np.ndarray:
            return np.concatenate(
                [
                    self._dispatch(
                        "output_gradients", self.model.output_gradients_batch, batch[s], scal
                    )
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
        """Loss value and input-gradient batch (the Algorithm 2 primitive).

        Not chunked (batch losses normalise by ``N``) and not memoized: the
        synthesis loop feeds a fresh input every step, so hashing would be
        pure overhead.
        """
        batch = self._as_batch(batch)
        return self._dispatch(
            "input_gradients", self.model.input_gradient, batch, targets, loss
        )

    def loss_parameter_gradients(
        self,
        batch: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss] = "cross_entropy",
    ) -> Tuple[float, np.ndarray]:
        """Loss value and flat parameter gradients of a training loss.

        Summed over the batch (ordinary training semantics).  Not memoized:
        a caller that wants this gradient is usually changing the model
        between calls.
        """
        batch = self._as_batch(batch)
        return self._dispatch(
            "loss_parameter_gradients", self.model.loss_parameter_gradients, batch, targets, loss
        )

    # -- mask queries --------------------------------------------------------
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
        criterion)``: each chunk runs ``pack_bool(criterion.activated(
        output_gradients(chunk)))``, whatever the criterion's class.  Masks
        are built *streaming* — each chunk's gradients are thresholded and
        packed, then dropped — so peak transient memory is one chunk's
        float64 gradients plus the packed matrix.  ``memory_budget_bytes``
        caps that transient chunk (the full ``(N, P)`` dense matrix is never
        materialized either way).

        With ``spill_dir`` (per-call, or the engine-level default) the packed
        words are written chunk by chunk straight into an on-disk
        :class:`~repro.coverage.bitmap.MmapMaskMatrix` store instead of
        concatenating in RAM, and the returned matrix streams greedy-
        selection queries through windows bounded by the same memory budget.
        The store is keyed by (model parameters, batch, criterion), so a
        repeated query maps the existing file without recomputing; torn or
        truncated files from interrupted runs are detected and rebuilt.
        """
        from repro.coverage.bitmap import pack_bool

        crit = criterion or self.criterion
        batch = self._as_batch(batch)
        scal = _checked_scalarization(getattr(crit, "scalarization", "sum"))
        max_chunk = self._budgeted_chunk_rows(memory_budget_bytes)

        # "max" and "predicted" seed the same backward pass (see
        # output_gradients)
        key_scal = "max" if scal == "predicted" else scal

        def chunks() -> Iterator[np.ndarray]:
            # a memoized gradient matrix for this batch makes packing a pure
            # re-threshold
            memo = self._memo_lookup("output_gradients", batch, (key_scal,))
            for s in self._chunks(batch.shape[0], max_chunk):
                if memo is not None:
                    grads = memo[s]
                else:
                    grads = self._dispatch(
                        "output_gradients", self.model.output_gradients_batch, batch[s], scal
                    )
                yield pack_bool(crit.activated(grads))

        # the criterion's class keys a custom ``activated``
        extra = (
            key_scal,
            getattr(crit, "epsilon", None),
            f"{type(crit).__module__}.{type(crit).__qualname__}",
        )
        return self._packed_query(
            "packed_activation_masks",
            batch,
            extra,
            self.model.num_parameters(),
            chunks,
            memory_budget_bytes,
            spill_dir,
        )

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
        threshold)`` — the DeepXplore-style criterion over every
        neuron-bearing layer's post-activation outputs, computed
        layer-batched.  Chunks are thresholded and packed streaming, like
        :meth:`packed_activation_masks` — including its ``spill_dir``
        disk-backed store option.
        """
        from repro.coverage.bitmap import pack_bool
        from repro.coverage.neuron_coverage import count_neurons

        batch = self._as_batch(batch)
        threshold = float(threshold)
        indices = neuron_layer_indices(self.model)
        # the transient here is forward_collect's per-layer outputs, not a
        # gradient row — budget by activation volume (for conv models the
        # difference is orders of magnitude)
        max_chunk = self._budgeted_chunk_rows(
            memory_budget_bytes, per_row_bytes=self._activation_volume() * 8
        )

        def chunks() -> Iterator[np.ndarray]:
            for s in self._chunks(batch.shape[0], max_chunk):
                outputs = self._dispatch("forward_collect", self.model.forward_collect, batch[s])
                rows = s.stop - s.start
                yield pack_bool(
                    np.concatenate(
                        [(outputs[i] > threshold).reshape(rows, -1) for i in indices],
                        axis=1,
                    )
                )

        return self._packed_query(
            "packed_neuron_masks",
            batch,
            (threshold,),
            count_neurons(self.model),
            chunks,
            memory_budget_bytes,
            spill_dir,
        )

    def _packed_query(
        self,
        op: str,
        batch: np.ndarray,
        extra: tuple,
        nbits: int,
        chunks,
        memory_budget_bytes: Optional[int],
        spill_dir: Optional[Union[str, Path]],
    ):
        """Run a packed-mask query from its one chunk generator.

        ``chunks()`` yields each chunk's packed words.  With a spill
        directory (per call, or the engine default) they stream into a disk
        store (:meth:`_spilled_masks`); otherwise they are concatenated in
        RAM and memoized.
        """
        from repro.coverage.bitmap import MaskMatrix

        spill = Path(spill_dir) if spill_dir is not None else self.spill_dir
        if spill is not None:
            return self._spilled_masks(
                spill, op, batch, extra, nbits, chunks, memory_budget_bytes
            )
        words = self._memoized(
            op, batch, extra, lambda: np.concatenate(list(chunks()), axis=0)
        )
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

        The store file is content-addressed by (operation,
        :func:`~repro.engine.cache.exact_model_key`, batch fingerprint,
        options, nbits): a repeated query memory-maps the existing file
        instead of recomputing — the disk **is** the memo for spilled
        queries, so the in-RAM memo cache is bypassed.  The model key is
        exact (raw parameter bytes), because one directory serves many
        models: two that differ in a single bit get their own stores.
        Torn, truncated, or unreadable stores (interrupted runs, partial
        copies, I/O faults) are **quarantined** to a ``quarantine/`` sidecar
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
            (op, exact_model_key(self.model), array_fingerprint(batch), extra, nbits)
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

    def activation_masks(
        self, batch: np.ndarray, criterion: Optional[object] = None
    ) -> np.ndarray:
        """Boolean per-parameter activation masks, shape ``(N, P)``.

        Row ``i`` equals ``activation_mask(model, batch[i], criterion)``: the
        dense view of :meth:`packed_activation_masks` (packing is lossless),
        so both queries share one memo entry.  Callers that need the float64
        gradient matrix itself, like the ε-ablation sweep, use
        :meth:`output_gradients`.
        """
        return self.packed_activation_masks(batch, criterion).dense()

    def neuron_masks(self, batch: np.ndarray, threshold: float = 0.0) -> np.ndarray:
        """Boolean per-neuron activation masks, shape ``(N, num_neurons)``.

        Row ``i`` equals ``neuron_activation_mask(model, batch[i], threshold)``:
        the dense view of :meth:`packed_neuron_masks`.
        """
        return self.packed_neuron_masks(batch, threshold).dense()

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
        return self.packed_activation_masks(batch, criterion).union().dense()

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
            f"Engine(model={self.model.name!r}, batch_size={self.batch_size}, "
            f"cache={self.cache_enabled})"
        )


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "Engine",
    "neuron_layer_indices",
    "resolve_engine",
]
