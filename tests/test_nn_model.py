"""Tests for the Sequential model: building, gradients, state and queries."""

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.models.training import Trainer
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optimizers import get_optimizer
from repro.models.zoo import small_cnn, small_mlp
from repro.utils.config import TrainingConfig
from repro.utils.rng import as_generator


def _tiny_cnn(activation="relu", rng=0):
    return small_cnn(
        channels=3,
        dense_units=8,
        input_shape=(1, 8, 8),
        num_classes=4,
        activation=activation,
        rng=rng,
    )


class TestConstruction:
    def test_build_sets_shapes(self):
        model = _tiny_cnn()
        assert model.built
        assert model.input_shape == (1, 8, 8)
        assert model.output_shape == (4,)
        assert model.num_classes == 4

    def test_cannot_add_after_build(self):
        model = _tiny_cnn()
        with pytest.raises(RuntimeError):
            model.add(Dense(3))

    def test_empty_model_build_raises(self):
        with pytest.raises(ValueError):
            Sequential([]).build((4,))

    def test_forward_before_build_raises(self):
        model = Sequential([Dense(3)])
        with pytest.raises(RuntimeError):
            model.forward(np.zeros((1, 4)))

    def test_wrong_input_shape_raises(self):
        model = _tiny_cnn()
        with pytest.raises(ValueError, match="does not match"):
            model.forward(np.zeros((2, 1, 9, 9)))

    def test_num_parameters_counts_all(self):
        model = small_mlp(input_features=5, hidden_units=7, num_classes=3, depth=1, rng=0)
        # (5*7 + 7) + (7*3 + 3)
        assert model.num_parameters() == 5 * 7 + 7 + 7 * 3 + 3

    def test_summary_contains_layers_and_total(self):
        model = _tiny_cnn()
        text = model.summary()
        assert "conv1" in text
        assert "Total parameters" in text


class TestForwardBackward:
    def test_full_model_gradient_check(self):
        model = _tiny_cnn(activation="tanh", rng=2)
        rng = np.random.default_rng(0)
        x = rng.random((2, 1, 8, 8))
        y = np.array([0, 3])
        loss_fn = SoftmaxCrossEntropy()

        tape = []
        logits = model.forward(x, training=True, tape=tape)
        _, grad = loss_fn.value_and_grad(logits, y)
        _, grads = model.backward(grad, tape)
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
        analytic = np.concatenate([g.ravel() for g in grads])

        eps = 1e-6
        view = model.parameter_view()
        idx = rng.choice(view.total_size, size=25, replace=False)
        for i in idx:
            orig = view.get_scalar(int(i))
            view.set_scalar(int(i), orig + eps)
            plus = loss_fn.value_and_grad(model.forward(x), y)[0]
            view.set_scalar(int(i), orig - eps)
            minus = loss_fn.value_and_grad(model.forward(x), y)[0]
            view.set_scalar(int(i), orig)
            numeric = (plus - minus) / (2 * eps)
            assert analytic[i] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_backward_needs_the_tape_a_recording_forward_filled(self):
        model = _tiny_cnn(rng=3)
        x = np.random.default_rng(2).random((2, 1, 8, 8))
        grad = np.ones_like(model.forward(x))  # inference: no tape
        for method in (model.backward, model.backward_batch):
            with pytest.raises(ValueError, match="tape holds 0 records"):
                method(grad, [])

    def test_predict_matches_forward_in_chunks(self):
        model = _tiny_cnn()
        x = np.random.default_rng(1).random((7, 1, 8, 8))
        np.testing.assert_allclose(model.predict(x, batch_size=3), model.forward(x))

    def test_predict_classes_and_proba(self):
        model = _tiny_cnn()
        x = np.random.default_rng(1).random((5, 1, 8, 8))
        proba = model.predict_proba(x)
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(5))
        assert np.array_equal(model.predict_classes(x), np.argmax(proba, axis=1))

    def test_forward_collect_returns_every_layer_output(self):
        model = _tiny_cnn()
        x = np.random.default_rng(2).random((1, 1, 8, 8))
        outputs = model.forward_collect(x)
        assert len(outputs) == len(model.layers)
        np.testing.assert_allclose(outputs[-1], model.forward(x))


class TestGradientQueries:
    def test_output_gradients_shape_and_reset(self):
        model = _tiny_cnn()
        x = np.random.default_rng(3).random((1, 8, 8))
        values = model.parameter_view().flat_values()
        grads = model.output_gradients(x)
        assert grads.shape == (model.num_parameters(),)
        # the query leaves nothing behind: the model is bitwise unchanged,
        # and a second query returns the same bytes, not an accumulation
        assert model.parameter_view().flat_values().tobytes() == values.tobytes()
        assert model.output_gradients(x).tobytes() == grads.tobytes()

    def test_output_gradients_accepts_batched_single_sample(self):
        model = _tiny_cnn()
        x = np.random.default_rng(3).random((1, 1, 8, 8))
        grads = model.output_gradients(x)
        assert grads.shape == (model.num_parameters(),)

    def test_output_gradients_rejects_batches(self):
        model = _tiny_cnn()
        with pytest.raises(ValueError):
            model.output_gradients(np.zeros((2, 1, 8, 8)))

    def test_output_gradients_rejects_unknown_scalarization(self):
        model = _tiny_cnn()
        with pytest.raises(ValueError):
            model.output_gradients(np.zeros((1, 8, 8)), scalarization="median")

    def test_scalarizations_differ(self):
        model = _tiny_cnn(rng=5)
        x = np.random.default_rng(4).random((1, 8, 8))
        g_sum = model.output_gradients(x, "sum")
        g_max = model.output_gradients(x, "max")
        assert not np.allclose(g_sum, g_max)

    def test_input_gradient_shape_and_descent_direction(self):
        model = _tiny_cnn(rng=6)
        x = np.random.default_rng(5).random((2, 1, 8, 8))
        y = np.array([1, 2])
        loss_before, grad = model.input_gradient(x, y)
        stepped = x - 0.05 * grad
        loss_after, _ = model.input_gradient(stepped, y)
        assert grad.shape == x.shape
        assert loss_after < loss_before


def _two_conv_cnn(rng=0):
    """Two convs (same/stride-1 and padded stride-2) around a pooling layer."""
    model = Sequential(
        [
            Conv2D(3, 3, padding="same", activation="relu", name="conv1"),
            MaxPool2D(2, name="pool1"),
            Conv2D(4, 3, stride=2, padding=1, activation="tanh", name="conv2"),
            Flatten(name="flatten"),
            Dense(4, name="logits"),
        ]
    )
    return model.build((1, 8, 8), rng=rng)


class TestBackwardFlags:
    """The backward flags skip work without changing a bit of the rest."""

    def _batch(self, seed=0, n=6):
        rng = np.random.default_rng(seed)
        return rng.random((n, 1, 8, 8)), rng.integers(0, 4, size=n)

    def test_input_gradient_equals_full_backward_bitwise(self):
        model = _two_conv_cnn(rng=1)
        x, y = self._batch()
        value, grad = model.input_gradient(x, y)
        tape = []
        logits = model.forward(x, training=True, tape=tape)
        ref_value, grad_logits = SoftmaxCrossEntropy().value_and_grad(logits, y)
        ref, _ = model.backward(grad_logits, tape)
        assert value == ref_value
        assert grad.dtype == ref.dtype and grad.tobytes() == ref.tobytes()

    def test_input_gradient_leaves_parameter_grads_untouched(self):
        """An input-only backward computes no parameter gradient and leaves
        every parameter value as it was."""
        model = _two_conv_cnn(rng=2)
        x, y = self._batch(seed=4)
        before = [p.value.copy() for p in model.parameters()]
        model.input_gradient(x, y)
        for p, want in zip(model.parameters(), before):
            assert p.value.tobytes() == want.tobytes(), p.name
        tape = []
        _, grad_logits = SoftmaxCrossEntropy().value_and_grad(
            model.forward(x, training=True, tape=tape), y
        )
        full, _ = model.backward(grad_logits, tape)
        grad_x, grads = model.backward(grad_logits, tape, need_param_grads=False)
        assert grads == []
        assert grad_x.tobytes() == full.tobytes()

    def test_backward_without_input_grad_returns_none_and_same_param_grads(self):
        model = _two_conv_cnn(rng=5)
        x, y = self._batch(seed=6)
        tape = []
        _, grad_logits = SoftmaxCrossEntropy().value_and_grad(model.forward(x, tape=tape), y)
        _, full = model.backward(grad_logits, tape)
        grad_x, grads = model.backward(grad_logits, tape, need_input_grad=False)
        assert grad_x is None
        assert len(grads) == len(full) == len(model.parameters())
        for got, want in zip(grads, full):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_trainer_fit_matches_full_backward_reference_bitwise(self):
        images, labels = self._batch(seed=7, n=20)
        train = Dataset(images, labels)
        cfg = TrainingConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=8)
        trained = _two_conv_cnn(rng=9)
        Trainer(cfg).fit(trained, train)

        reference = _two_conv_cnn(rng=9)
        optimizer = get_optimizer(cfg.optimizer, cfg.learning_rate, cfg.weight_decay)
        loss_fn = SoftmaxCrossEntropy()
        rng = as_generator(cfg.seed)
        for _ in range(cfg.epochs):
            for batch, targets in train.batches(cfg.batch_size, shuffle=cfg.shuffle, rng=rng):
                tape = []
                logits = reference.forward(batch, training=True, tape=tape)
                _, grad = loss_fn.value_and_grad(logits, targets)
                _, grads = reference.backward(grad, tape)
                optimizer.step(reference.parameters(), grads)
        for got, want in zip(trained.parameters(), reference.parameters()):
            assert got.value.tobytes() == want.value.tobytes(), got.name


class TestState:
    def test_state_dict_round_trip(self):
        model = _tiny_cnn(rng=7)
        state = model.state_dict()
        other = _tiny_cnn(rng=8)
        assert not np.allclose(
            other.parameter_view().flat_values(), model.parameter_view().flat_values()
        )
        other.load_state_dict(state)
        np.testing.assert_allclose(
            other.parameter_view().flat_values(), model.parameter_view().flat_values()
        )

    def test_load_state_dict_rejects_mismatched_keys(self):
        model = _tiny_cnn()
        state = model.state_dict()
        del state["fc1/weight"]
        with pytest.raises(ValueError, match="mismatch"):
            model.load_state_dict(state)

    def test_copy_is_deep(self):
        model = _tiny_cnn(rng=9)
        clone = model.copy()
        clone.parameter_view().set_scalar(0, 123.0)
        assert model.parameter_view().get_scalar(0) != 123.0
        x = np.random.default_rng(0).random((1, 1, 8, 8))
        # clone still computes (structure intact)
        assert clone.forward(x).shape == (1, 4)

    def test_copy_allocates_only_parameter_values(self):
        """A copy's traced peak is its parameter values and small change:
        no per-parameter buffer rides along (a trial copies its victim)."""
        import tracemalloc

        from repro.models.zoo import mnist_cnn

        model = mnist_cnn(width_multiplier=1.0, rng=0)
        values = sum(p.value.nbytes for p in model.parameters())
        tracemalloc.start()
        try:
            model.copy()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * values, peak / values

    def test_pickling_a_warm_model_ships_no_caches(self):
        """A model whose layers hold forward caches (it was just trained or
        queried in-process) pickles as lean as a cold one and round-trips
        bit-exactly — the distributed campaign ships prepared models this
        way."""
        import pickle

        from repro.models.zoo import mnist_cnn

        model = mnist_cnn(width_multiplier=0.125, input_size=12, rng=9)
        images = np.random.default_rng(23).random((6, *model.input_shape))
        expected = model.forward(images)  # fills every layer cache
        payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        cold = pickle.dumps(
            mnist_cnn(width_multiplier=0.125, input_size=12, rng=9),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert len(payload) < len(cold) * 1.1  # caches stripped from the pickle
        restored = pickle.loads(payload)
        assert restored.forward(images).tobytes() == expected.tobytes()
        assert (
            restored.output_gradients_batch(images, "sum").tobytes()
            == model.output_gradients_batch(images, "sum").tobytes()
        )
