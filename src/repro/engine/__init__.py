"""Batched execution engine: the vectorised forward/backward hot path.

This subsystem is the library's answer to "make coverage measurement, test
generation, attacks and validation run as fast as the hardware allows": one
:class:`~repro.engine.engine.Engine` per model batches every gradient/mask
query across whole candidate pools, memoizes immutable results keyed by
``(exact model key, array fingerprint)``, and routes all execution through a
pluggable :class:`~repro.engine.backend.ExecutionBackend`.  A backend is
just the six calls the engine makes (``forward``, ``forward_collect``,
``output_gradients``, ``input_gradients``, ``loss_parameter_gradients``,
``stacked_forward``) and is stateless; chunking, memoization and mask
packing are the engine's own.  Two backends ship, both in-process: the
:class:`~repro.engine.backend.NumpyBackend` (default), and the
:class:`~repro.engine.model_axis.ModelAxisBackend`, which fuses sets of
same-architecture models (the detection experiments' perturbed copies) into
one batched dispatch per layer along a leading model axis.
Selecting a backend is the only call-site change the fused path needs: the
engine's ``stacked_forward`` groups models by the backend's advertised
``model_axis_capacity``, and runs them one at a time, bit-identically, on
backends without native support.  Multi-process execution lives one layer
up, in the campaign runner's ``--shards``.

Layering: ``repro.engine`` depends only on ``repro.nn`` (plus a lazy default
criterion lookup); ``repro.coverage``, ``repro.testgen``, ``repro.attacks``,
``repro.validation`` and ``repro.analysis`` all consume it.
"""

from repro.engine.backend import (
    BackendSpec,
    ExecutionBackend,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
)
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
from repro.engine.model_axis import ModelAxisBackend

__all__ = [
    # backends
    "BackendSpec",
    "ExecutionBackend",
    "ModelAxisBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "register_backend",
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
