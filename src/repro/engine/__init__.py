"""Batched execution engine: the vectorised forward/backward hot path.

This subsystem is the library's answer to "make coverage measurement, test
generation, attacks and validation run as fast as the hardware allows": one
:class:`~repro.engine.engine.Engine` per model batches every gradient/mask
query across whole candidate pools, memoizes immutable results keyed by
``(exact model key, array fingerprint)``, and calls the model's own NumPy
passes in-process; chunking, memoization and mask packing are its own work
on top.  :meth:`~repro.engine.engine.Engine.stacked_forward` replays a
batch against many same-architecture models (the detection experiments'
perturbed copies) in one query: each copy starts at its first divergent
layer (:func:`~repro.engine.cache.first_divergence`) on the engine model's
trunk, bit-identically to running it whole.  Multi-process execution lives
one layer up, in the campaign runner's ``--shards``.

Layering: ``repro.engine`` depends only on ``repro.nn`` (plus a lazy default
criterion lookup); ``repro.coverage``, ``repro.testgen``, ``repro.attacks``,
``repro.validation`` and ``repro.analysis`` all consume it.
"""

from repro.engine.cache import (
    DEFAULT_CACHE_BYTES,
    DEFAULT_CACHE_ENTRIES,
    BatchResultCache,
    CacheStats,
    array_fingerprint,
)
from repro.engine.engine import (
    DEFAULT_BATCH_SIZE,
    Engine,
    neuron_layer_indices,
    resolve_engine,
)

__all__ = [
    # cache
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_CACHE_ENTRIES",
    "BatchResultCache",
    "CacheStats",
    "array_fingerprint",
    # engine
    "DEFAULT_BATCH_SIZE",
    "Engine",
    "neuron_layer_indices",
    "resolve_engine",
]
