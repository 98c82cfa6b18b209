"""Pluggable execution backends for the batched engine.

The :class:`~repro.engine.engine.Engine` never touches a model's forward or
backward passes directly — it goes through an :class:`ExecutionBackend`.  The
default :class:`NumpyBackend` simply delegates to the model's own NumPy
implementation; :class:`~repro.engine.model_axis.ModelAxisBackend` fuses
perturbed copies along a model axis.  The seam lets alternative array
backends plug in without a cross-cutting rewrite of the
coverage/testgen/attack consumers.

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


def threshold_and_pack(grads: np.ndarray, epsilon: float) -> np.ndarray:
    """Gradient matrix → packed activation-mask words.

    The single thresholding definition — delegated to
    :meth:`repro.coverage.activation.ActivationCriterion.activated` — used
    by every backend's packed-mask path, so the activation rule can never
    diverge between backends.
    """
    from repro.coverage.activation import ActivationCriterion
    from repro.coverage.bitmap import pack_bool

    return pack_bool(ActivationCriterion(epsilon=epsilon).activated(grads))


class ExecutionBackend:
    """Abstract executor of a model's batched forward/backward primitives.

    All methods take the model explicitly so one backend instance can serve
    several engines (backends are stateless policy objects, not model
    wrappers).
    """

    #: registry name; subclasses must override
    name: str = "backend"

    @property
    def model_axis_capacity(self) -> int:
        """Models fused per stacked dispatch (0 = no native model-axis path).

        Backends advertising a positive capacity execute
        :meth:`stacked_forward` / :meth:`stacked_forward_collect` /
        :meth:`stacked_packed_masks` with genuinely fused weight stacks, and
        :func:`repro.validation.detection.replay_trials` builds its perturbed
        copies in groups of this size.  The default implementations below
        loop the models one at a time and stack the results, so every
        backend supports the stacked API with identical semantics either way.
        """
        return 0

    def close(self) -> None:
        """Release any resources the backend owns (idempotent).

        The shipped backends own none; the hook stays so plugin backends
        that hold devices, pools or files can be context-managed.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        # context-managed use releases owned resources even when a dispatch
        # raised mid-flight
        self.close()

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

    # -- packed mask primitives ---------------------------------------------
    def packed_masks(
        self, model: Sequential, x: np.ndarray, scalarization: str, epsilon: float
    ) -> np.ndarray:
        """Packed per-parameter activation masks: uint64 words, shape
        ``(N, ceil(P / 64))``.

        Row ``i`` is the little-endian bit-packing of
        ``|∇θ F(x_i)| > epsilon`` (strict non-zero when ``epsilon == 0``).
        The default derives from :meth:`output_gradients`; a backend may
        override it to threshold and pack without materialising the dense
        gradient matrix.
        """
        return threshold_and_pack(self.output_gradients(model, x, scalarization), epsilon)

    def packed_neuron_masks(
        self,
        model: Sequential,
        x: np.ndarray,
        threshold: float,
        layer_indices: Tuple[int, ...],
    ) -> np.ndarray:
        """Packed per-neuron activation masks: uint64 words, shape
        ``(N, ceil(num_neurons / 64))``.

        Concatenates, per sample, the thresholded post-activation outputs of
        the given layers and packs them.  Overridable for the same reason as
        :meth:`packed_masks`.
        """
        from repro.coverage.bitmap import pack_bool

        outputs = self.forward_collect(model, x)
        parts = [
            (outputs[i] > threshold).reshape(x.shape[0], -1) for i in layer_indices
        ]
        return pack_bool(np.concatenate(parts, axis=1))

    # -- model-axis (stacked) primitives ------------------------------------
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

    def stacked_forward_collect(
        self, models: List[Sequential], x: np.ndarray
    ) -> List[np.ndarray]:
        """Every layer's output for every model: a list of ``(M, N, ...)``
        arrays, one per layer, matching :meth:`forward_collect` per slice."""
        collected = [self.forward_collect(model, x) for model in models]
        return [np.stack(layer_outs) for layer_outs in zip(*collected)]

    def stacked_packed_masks(
        self,
        models: List[Sequential],
        x: np.ndarray,
        scalarization: str,
        epsilon: float,
    ) -> np.ndarray:
        """Packed activation masks for every model, shape ``(M, N, W)``.

        Slice ``m`` must equal ``packed_masks(models[m], x, ...)``."""
        return np.stack(
            [self.packed_masks(model, x, scalarization, epsilon) for model in models]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}()"


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
    "threshold_and_pack",
]
