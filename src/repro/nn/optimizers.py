"""First-order optimisers for training the substrate models.

All optimisers take a list of :class:`~repro.nn.tensor.Parameter` objects
and the matching gradients the model's backward pass returned, and update
``param.value`` in place.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.nn.tensor import Parameter


class Optimizer:
    """Base optimiser interface."""

    def __init__(self, learning_rate: float = 1e-3, weight_decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.iterations = 0

    def step(self, parameters: List[Parameter], grads: List[np.ndarray]) -> None:
        """Apply one update to every trainable parameter; ``grads[i]`` is the
        gradient of ``parameters[i]``."""
        if len(grads) != len(parameters):
            raise ValueError(f"{len(grads)} gradients for {len(parameters)} parameters")
        self.iterations += 1
        for p, grad in zip(parameters, grads):
            if not p.trainable:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            self._update(p, grad)

    def _update(self, param: Parameter, grad: np.ndarray) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state (momentum buffers, step counters)."""
        self.iterations = 0


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _update(self, param: Parameter, grad: np.ndarray) -> None:
        param.value -= self.learning_rate * grad


class Momentum(Optimizer):
    """SGD with classical momentum."""

    def __init__(
        self,
        learning_rate: float = 1e-2,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: Dict[int, np.ndarray] = {}

    def _update(self, param: Parameter, grad: np.ndarray) -> None:
        key = id(param)
        v = self._velocity.get(key)
        if v is None:
            v = np.zeros_like(param.value)
        v = self.momentum * v - self.learning_rate * grad
        self._velocity[key] = v
        param.value += v

    def reset(self) -> None:
        super().reset()
        self._velocity.clear()


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba)."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def _update(self, param: Parameter, grad: np.ndarray) -> None:
        key = id(param)
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None:
            m = np.zeros_like(param.value)
            v = np.zeros_like(param.value)
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self._m[key] = m
        self._v[key] = v
        t = self.iterations
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param.value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        super().reset()
        self._m.clear()
        self._v.clear()


class StepDecay:
    """Step learning-rate schedule: multiply the LR by ``gamma`` every ``step`` epochs."""

    def __init__(self, initial_lr: float, step: int = 10, gamma: float = 0.5) -> None:
        if initial_lr <= 0:
            raise ValueError("initial_lr must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.initial_lr = float(initial_lr)
        self.step = int(step)
        self.gamma = float(gamma)

    def lr_at(self, epoch: int) -> float:
        """Learning rate for the given (0-based) epoch."""
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        return self.initial_lr * (self.gamma ** (epoch // self.step))

    def apply(self, optimizer: Optimizer, epoch: int) -> None:
        optimizer.learning_rate = self.lr_at(epoch)


def get_optimizer(
    name: str, learning_rate: float = 1e-3, weight_decay: float = 0.0
) -> Optimizer:
    """Build an optimiser from a config-style name: ``sgd``, ``momentum``, ``adam``."""
    name = name.lower()
    if name == "sgd":
        return SGD(learning_rate, weight_decay)
    if name == "momentum":
        return Momentum(learning_rate, weight_decay=weight_decay)
    if name == "adam":
        return Adam(learning_rate, weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer {name!r}")


__all__ = ["Optimizer", "SGD", "Momentum", "Adam", "StepDecay", "get_optimizer"]
