"""Tests for optimisers and LR schedules."""

import numpy as np
import pytest

from repro.nn.optimizers import SGD, Adam, Momentum, StepDecay, get_optimizer
from repro.nn.tensor import Parameter


def _quadratic_params():
    """A single parameter whose optimum is at zero (loss = 0.5 * ||p||^2)."""
    return [Parameter(np.array([4.0, -3.0]), name="p")]


def _step_quadratic(optimizer, params, steps):
    for _ in range(steps):
        # gradient of 0.5 * ||p||^2
        optimizer.step(params, [p.value.copy() for p in params])
    return params[0].value


class TestSGD:
    def test_single_step_update_rule(self):
        params = [Parameter(np.array([1.0]), name="p")]
        SGD(learning_rate=0.1).step(params, [np.array([2.0])])
        np.testing.assert_allclose(params[0].value, [0.8])

    def test_converges_on_quadratic(self):
        value = _step_quadratic(SGD(learning_rate=0.2), _quadratic_params(), 60)
        assert np.all(np.abs(value) < 1e-4)

    def test_skips_frozen_parameters(self):
        frozen = Parameter(np.array([1.0]), trainable=False)
        SGD(learning_rate=0.1).step([frozen], [np.array([5.0])])
        assert frozen.value[0] == 1.0

    def test_weight_decay_shrinks_parameters(self):
        p = Parameter(np.array([1.0]))
        SGD(learning_rate=0.1, weight_decay=1.0).step([p], [np.zeros(1)])
        assert p.value[0] < 1.0

    def test_rejects_gradients_that_do_not_match_the_parameters(self):
        p = Parameter(np.array([1.0]))
        optimizer = SGD(learning_rate=0.1)
        with pytest.raises(ValueError, match="2 gradients for 1 parameters"):
            optimizer.step([p], [np.ones(1), np.ones(1)])
        assert p.value[0] == 1.0 and optimizer.iterations == 0

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)
        with pytest.raises(ValueError):
            SGD(learning_rate=0.1, weight_decay=-1.0)


class TestMomentum:
    def test_converges_on_quadratic(self):
        value = _step_quadratic(
            Momentum(learning_rate=0.05, momentum=0.9), _quadratic_params(), 120
        )
        assert np.all(np.abs(value) < 1e-3)

    def test_velocity_reset(self):
        opt = Momentum(learning_rate=0.1)
        params = _quadratic_params()
        _step_quadratic(opt, params, 3)
        opt.reset()
        assert opt.iterations == 0
        assert not opt._velocity

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            Momentum(momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        value = _step_quadratic(Adam(learning_rate=0.3), _quadratic_params(), 200)
        assert np.all(np.abs(value) < 1e-2)

    def test_first_step_size_close_to_learning_rate(self):
        p = Parameter(np.array([1.0]))
        Adam(learning_rate=0.1).step([p], [np.array([10.0])])
        # bias correction makes the first step approximately lr * sign(grad)
        assert p.value[0] == pytest.approx(0.9, abs=1e-3)

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)
        with pytest.raises(ValueError):
            Adam(beta2=-0.1)


class TestStepDecay:
    def test_schedule_values(self):
        sched = StepDecay(initial_lr=1.0, step=10, gamma=0.5)
        assert sched.lr_at(0) == 1.0
        assert sched.lr_at(9) == 1.0
        assert sched.lr_at(10) == 0.5
        assert sched.lr_at(20) == 0.25

    def test_apply_updates_optimizer(self):
        opt = SGD(learning_rate=1.0)
        StepDecay(initial_lr=1.0, step=5, gamma=0.1).apply(opt, epoch=5)
        assert opt.learning_rate == pytest.approx(0.1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            StepDecay(0.0)
        with pytest.raises(ValueError):
            StepDecay(1.0, step=0)
        with pytest.raises(ValueError):
            StepDecay(1.0, gamma=0.0)
        with pytest.raises(ValueError):
            StepDecay(1.0).lr_at(-1)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [("sgd", SGD), ("momentum", Momentum), ("adam", Adam)])
    def test_builds_by_name(self, name, cls):
        assert isinstance(get_optimizer(name, 0.01), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_optimizer("lbfgs")
