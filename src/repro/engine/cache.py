"""Memoization layer for the batched execution engine.

The engine repeatedly evaluates the *same* immutable quantities — forward
logits, per-sample output-gradient matrices, activation masks — for the same
(model, batch) pairs: the greedy selection loop, the combined method's
switch-point probe and the ablation sweeps all revisit the candidate pool.
This module provides the pieces that make those revisits free:

* :func:`array_fingerprint` — a content hash of an ndarray (dtype, shape and
  raw bytes), used together with the model's exact key to key results;
* :func:`exact_model_key` — a hash of a model's architecture and raw
  parameter bytes, the in-process identity of a model (the engine memo, the
  trunk memo, the on-disk mask stores, the session's engine pool and the
  serve coalescer's dedup);
* :class:`BatchResultCache` — a small bounded LRU mapping from those keys to
  computed arrays, with hit/miss statistics for observability; it is also
  the one LRU behind every other in-process pool (the session's engines and
  prepared experiments, the campaign runner's models, serve's query
  models);
* :class:`TrunkCache` — a bounded memo of a model's per-layer activations on
  a batch (its *trunk*), keyed on the exact parameter bytes, which the
  trial loop reuses across every perturbed copy of one victim;
* :func:`first_divergence` — the first layer at which a copy's parameters
  differ from its victim's, bit for bit: the copy reads the victim's trunk
  up to there.

Keys include the model's exact key, so a cache never returns results
computed against parameters that have since been perturbed, even in one
low mantissa bit (entries for the old parameters simply stop matching and
age out of the LRU).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import bit_pattern

#: default number of memoized results kept per engine
DEFAULT_CACHE_ENTRIES = 128

#: default cap on the total ndarray bytes a cache may pin (256 MiB); large
#: per-sample gradient matrices are evicted LRU-first once the budget is hit
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

#: trunks one owner keeps: every owner replays one batch per victim at a
#: time (a trial engine its stacked tests, an attack factory set its
#: reference inputs), so one entry holds the live trunk and a new batch or
#: victim replaces it
TRUNK_ENTRIES = 1


def exact_model_key(model, signature: Optional[Tuple] = None) -> str:
    """SHA-256 of a model's architecture signature and raw parameter bytes.

    Two models get the same key exactly when they have the same layer stack
    and every parameter is equal bit for bit.  The rounded
    :func:`~repro.nn.serialization.parameter_digest` cannot see a flip of a
    low mantissa bit or the sign of a zero, so two models that compute
    different outputs can share it; it only checks saved model files.
    A caller that already holds ``model.architecture_signature()`` passes
    it as ``signature``.
    """
    if signature is None:
        signature = model.architecture_signature()
    hasher = hashlib.sha256(repr(signature).encode("utf-8"))
    for param in model.parameters():
        hasher.update(param.value.tobytes())
    return hasher.hexdigest()


def array_fingerprint(array: np.ndarray) -> str:
    """Content fingerprint of an array: SHA-1 over dtype, shape and bytes.

    Two arrays get the same fingerprint exactly when they compare equal
    elementwise with identical dtype and shape.  The array is made contiguous
    if needed; the cost is one linear pass over the data, which is orders of
    magnitude cheaper than the forward/backward passes the fingerprint
    memoizes.
    """
    arr = np.ascontiguousarray(array)
    hasher = hashlib.sha1()
    hasher.update(str(arr.dtype).encode("utf-8"))
    hasher.update(repr(arr.shape).encode("utf-8"))
    hasher.update(arr.tobytes())
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of a :class:`BatchResultCache`.

    :meth:`merge` folds several counters into one, so a session can report
    one view across its pooled engines.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def merge(self, *others: "CacheStats") -> "CacheStats":
        """A new counter summing this one with ``others`` (inputs untouched)."""
        merged = CacheStats(self.hits, self.misses, self.evictions)
        for other in others:
            merged.hits += other.hits
            merged.misses += other.misses
            merged.evictions += other.evictions
        return merged

    def __add__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return self.merge(other)


def _value_nbytes(value: Any) -> int:
    """Approximate resident size of a cached value (ndarray-aware)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_value_nbytes(v) for v in value)
    return 0


class BatchResultCache:
    """LRU cache from hashable keys to computed results, bounded both by
    entry count and by total ndarray bytes.

    The byte bound matters more than the entry count in practice: one
    memoized per-sample gradient matrix for a large candidate pool can be
    hundreds of megabytes, so a count-only bound could pin gigabytes.

    Values are stored as-is (no copies); callers must treat returned arrays
    as read-only.  The engine enforces this by setting ``writeable=False`` on
    arrays it caches.

    The cache is **thread-safe**: lookups, insertions and evictions run
    under an internal lock, so engines shared across the serving layer's
    worker threads (:mod:`repro.serve`) can never corrupt the LRU order or
    the byte accounting.  The lock bounds bookkeeping only — the expensive
    compute happens outside the cache, so two threads missing the same key
    may both compute it (last write wins; results are deterministic, so the
    duplicates are identical).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        max_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Total ndarray bytes currently pinned by the cache."""
        return self._nbytes

    def get(self, key: Hashable) -> Optional[Any]:
        """Look up a key, refreshing its LRU position; ``None`` on miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting least-recently-used entries
        until both the entry-count and byte budgets are satisfied.

        A single value larger than ``max_bytes`` is not cached at all (it
        would only evict everything else and then be evicted next)."""
        size = _value_nbytes(value)
        if size > self.max_bytes:
            return
        with self._lock:
            if key in self._entries:
                self._nbytes -= _value_nbytes(self._entries[key])
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._nbytes += size
            while len(self._entries) > self.max_entries or self._nbytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= _value_nbytes(evicted)
                self.stats.evictions += 1

    def values(self) -> List[Any]:
        """A snapshot of the cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0


def first_divergence(base, model) -> int:
    """Index of the first layer whose parameters differ from ``base``'s.

    Parameters are compared bit for bit, so a ``-0.0`` where the base holds
    ``0.0`` diverges.  Returns ``len(base.layers)`` when every parameter is
    bitwise equal — the model *is* the base, observably, provided the two
    share an architecture signature (the caller checks that first).
    """
    for idx, layer in enumerate(base.layers):
        for ours, theirs in zip(layer.parameters(), model.layers[idx].parameters()):
            if not np.array_equal(bit_pattern(ours.value), bit_pattern(theirs.value)):
                return idx
    return len(base.layers)


class TrunkCache:
    """Bounded memo of a model's per-layer activations on a batch.

    A *trunk* is the tuple ``(x, out_0, ..., out_{L-1})``: entry ``i`` is the
    input of layer ``i`` and the last entry is the logits.  A perturbed copy
    whose parameters equal the model's bit for bit below layer ``i`` computes
    exactly ``trunk[i]`` there, so it only has to run layers ``i`` onwards.
    One entry holds a whole batch, as one trunk per ``rows``-row chunk (the
    chunks the caller's forward runs, since BLAS results depend on batch
    shape).

    The key is exact: :func:`exact_model_key` (architecture and raw
    parameter bytes, never the rounded digest), the batch fingerprint and
    the chunk size, so a model mutated in place after its trunk was memoized
    simply misses.  Each trunk's input is a private copy, so a caller
    editing its batch in place cannot reach a memoized trunk; returned
    arrays are read-only.
    """

    def __init__(self) -> None:
        self._cache = BatchResultCache(TRUNK_ENTRIES, DEFAULT_CACHE_BYTES)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def get(
        self, model, batch: np.ndarray, rows: int, signature: Optional[Tuple] = None
    ) -> List[Tuple[np.ndarray, ...]]:
        """The trunks of ``model`` on ``batch`` in ``rows``-row chunks,
        computed on a miss with one inference forward per chunk
        (``model.forward_collect``).  ``signature`` is as for
        :func:`exact_model_key`."""
        key = (exact_model_key(model, signature), array_fingerprint(batch), rows)
        trunks = self._cache.get(key)
        if trunks is None:
            trunks = []
            for start in range(0, batch.shape[0], rows):
                chunk = batch[start : start + rows].copy()
                trunk = (chunk, *model.forward_collect(chunk))
                for activation in trunk:
                    activation.setflags(write=False)
                trunks.append(trunk)
            self._cache.put(key, trunks)
        return trunks

    def clear(self) -> None:
        self._cache.clear()


__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "TRUNK_ENTRIES",
    "array_fingerprint",
    "exact_model_key",
    "CacheStats",
    "BatchResultCache",
    "TrunkCache",
    "first_divergence",
]
