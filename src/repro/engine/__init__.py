"""Batched execution engine: the vectorised forward/backward hot path.

This subsystem is the library's answer to "make coverage measurement, test
generation, attacks and validation run as fast as the hardware allows": one
:class:`~repro.engine.engine.Engine` per model batches every gradient/mask
query across whole candidate pools, memoizes immutable results keyed by
``(exact model key, array fingerprint)``, and calls the model's own NumPy
passes in-process; chunking, memoization and mask packing are its own work
on top.  The engine's backend is one of two names (:data:`BACKENDS`), and
it picks only how :meth:`~repro.engine.engine.Engine.stacked_forward` runs a
set of same-architecture models (the detection experiments' perturbed
copies): ``numpy`` (default) runs them one at a time, and ``model_axis``
fuses them into one batched dispatch per layer along a leading model axis
(:mod:`repro.engine.model_axis`), bit-identically.  Multi-process execution
lives one layer up, in the campaign runner's ``--shards``.

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
    BACKENDS,
    DEFAULT_BATCH_SIZE,
    Engine,
    check_backend,
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
    "BACKENDS",
    "DEFAULT_BATCH_SIZE",
    "Engine",
    "check_backend",
    "neuron_layer_indices",
    "resolve_engine",
]
