"""Pluggable execution backends for the batched engine.

The :class:`~repro.engine.engine.Engine` never touches a model's forward or
backward passes directly — it goes through an :class:`ExecutionBackend`.  A
backend is the six calls the engine makes (``forward``, ``forward_collect``,
``output_gradients``, ``input_gradients``, ``loss_parameter_gradients`` and
``stacked_forward``) plus its ``name`` and ``model_axis_capacity``; packed
masks, neuron masks and chunking are the engine's own work on top.  The
default :class:`NumpyBackend` simply delegates to the model's own NumPy
implementation; :class:`~repro.engine.model_axis.ModelAxisBackend` overrides
only ``stacked_forward``, fusing perturbed copies along a model axis.
Backends are stateless: they own no resources and have no lifecycle.

Backends are registered by name through :func:`register_backend` and resolved
with :func:`get_backend`, which accepts a name, a backend instance or a
backend class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.nn.losses import Loss
from repro.nn.model import Sequential
from repro.registry import registry as _registry


class ExecutionBackend:
    """Abstract executor of a model's batched forward/backward primitives.

    All methods take the model explicitly so one backend instance can serve
    several engines.  Backends are stateless policy objects, not model
    wrappers: they own no resources, so there is nothing to open or close.
    """

    #: registry name; subclasses must override
    name: str = "backend"

    @property
    def model_axis_capacity(self) -> int:
        """Models fused per stacked dispatch (0 = no native model-axis path).

        Backends advertising a positive capacity fuse the copies of one
        :meth:`stacked_forward` call into one dispatch per layer, and
        :func:`repro.validation.detection.replay_trials` builds its perturbed
        copies in groups of this size.  The default :meth:`stacked_forward`
        loops the models one at a time, with identical results.
        """
        return 0

    def forward(self, model: Sequential, x: np.ndarray) -> np.ndarray:
        """Inference-mode logits for a batch."""
        raise NotImplementedError

    def forward_collect(self, model: Sequential, x: np.ndarray) -> List[np.ndarray]:
        """Every layer's output for a batch (neuron-coverage primitive)."""
        raise NotImplementedError

    def output_gradients(
        self, model: Sequential, x: np.ndarray, scalarization: str
    ) -> np.ndarray:
        """Per-sample flat parameter gradients of the scalarised output,
        shape ``(N, num_parameters)``."""
        raise NotImplementedError

    def input_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        """Loss value and gradient of the loss with respect to the input batch."""
        raise NotImplementedError

    def loss_parameter_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        """Loss value and flat parameter gradients of a loss, summed over the
        batch.

        Runs in inference mode (no dropout): the engine serves analysis and
        attacks, not training — the :class:`~repro.models.training.Trainer`
        keeps its own training-mode loop.
        """
        raise NotImplementedError

    # -- model-axis primitive -----------------------------------------------
    def stacked_forward(
        self,
        models: List[Sequential],
        x: np.ndarray,
        base: Optional[Sequential] = None,
        trunk: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> np.ndarray:
        """Logits for every model of a same-architecture set, shape
        ``(M, N, num_classes)``.

        Slice ``m`` must equal ``forward(models[m], x)`` bit for bit.  The
        default loops the models; backends with a positive
        :attr:`model_axis_capacity` fuse them into one dispatch per layer.
        ``base``, when given, is the unperturbed victim the models were
        derived from, and ``trunk`` its per-layer activations on ``x`` (see
        :class:`~repro.engine.cache.TrunkCache`) — fused backends run each
        copy from its first divergent layer on that trunk (equal parameters
        on equal inputs are bit-identical, so the shortcut is unobservable)
        and need ``trunk`` whenever ``base`` is given; the default loop
        ignores both.
        """
        return np.stack([self.forward(model, x) for model in models])


class NumpyBackend(ExecutionBackend):
    """Default backend: the model's own single-process NumPy implementation."""

    name = "numpy"

    def forward(self, model: Sequential, x: np.ndarray) -> np.ndarray:
        return model.forward(x, training=False)

    def forward_collect(self, model: Sequential, x: np.ndarray) -> List[np.ndarray]:
        return model.forward_collect(x)

    def output_gradients(
        self, model: Sequential, x: np.ndarray, scalarization: str
    ) -> np.ndarray:
        return model.output_gradients_batch(x, scalarization)

    def input_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        return model.input_gradient(x, targets, loss)

    def loss_parameter_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        return model.loss_parameter_gradients(x, targets, loss)


_BACKENDS: Dict[str, Type[ExecutionBackend]] = {}

BackendSpec = Union[str, ExecutionBackend, Type[ExecutionBackend]]


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Register a backend class under its ``name`` (usable as a decorator).

    The class is also published to the ``backends`` namespace of the
    cross-subsystem :mod:`repro.registry`, so declarative drivers and the
    ``python -m repro registry`` listing see engine backends alongside
    strategies, attacks, criteria, datasets and models.
    """
    name = cls.name
    if not name or name == ExecutionBackend.name:
        raise ValueError(f"backend class {cls.__name__} must define a unique name")
    _BACKENDS[name] = cls
    doc = (cls.__doc__ or "").strip()
    _registry.register(
        "backends", name, cls, summary=doc.splitlines()[0] if doc else ""
    )
    return cls


def available_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_BACKENDS)


def get_backend(spec: BackendSpec = "numpy") -> ExecutionBackend:
    """Resolve a backend from a name, instance or class."""
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, type) and issubclass(spec, ExecutionBackend):
        return spec()
    try:
        return _BACKENDS[spec]()
    except KeyError as exc:
        raise ValueError(
            f"unknown backend {spec!r}; choose from {available_backends()}"
        ) from exc


register_backend(NumpyBackend)


__all__ = [
    "ExecutionBackend",
    "NumpyBackend",
    "BackendSpec",
    "register_backend",
    "available_backends",
    "get_backend",
]
