"""A model holds its parameters and nothing else between calls.

Layers keep no per-pass state: a recording forward writes what backward
reads onto a tape the caller owns, and inference (``predict``,
``Engine.forward``, ``Engine.stacked_forward``, ``forward_collect`` and SBA's
flip check) passes no tape at all.  After any entry point, training and the
gradient queries included, every ndarray a model references is a
parameter's value: a backward pass returns its gradients to the caller.
Because nothing is shared but the parameter values, two threads can query
one model at once, for inference or any gradient, and get the serial
results bit for bit.  Pinned on both Table-I architectures, and on both routes a copy
takes through stacked replay.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.attacks.base import bias_flat_indices
from repro.attacks.sba import SingleBiasAttack
from repro.data.datasets import Dataset
from repro.engine import Engine
from repro.engine.cache import first_divergence
from repro.faults import FaultPlan, inject
from repro.models.training import Trainer, TrainingConfig
from repro.models.zoo import cifar_cnn, mnist_cnn
from repro.nn.tensor import bit_pattern

ARCHS = {
    "mnist": lambda: mnist_cnn(width_multiplier=0.125, input_size=28, rng=0),
    "cifar": lambda: cifar_cnn(width_multiplier=0.0625, input_size=32, rng=0),
}


@pytest.fixture(params=sorted(ARCHS))
def model(request):
    """A fresh Table-I victim."""
    return ARCHS[request.param]()


def batch_for(model, rows, seed=0):
    return np.random.default_rng(seed).random((rows, *model.input_shape))


def kept(model) -> list:
    """Every ndarray ``model`` references that is not a parameter's value,
    by path: a scan of the model's and every layer's ``vars()``, through
    containers and nested objects."""
    allowed = {id(p.value) for p in model.parameters()}
    found: list = []
    seen: set = set()

    def scan(obj, path):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if id(obj) not in allowed:
                found.append(f"{path}: {obj.shape} {obj.dtype}")
        elif isinstance(obj, dict):
            for key, value in obj.items():
                scan(value, f"{path}[{key!r}]")
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for i, value in enumerate(obj):
                scan(value, f"{path}[{i}]")
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            for key, value in vars(obj).items():
                scan(value, f"{path}.{key}")

    scan(model, model.name)
    return found


#: The two routes through :meth:`Engine.stacked_forward`, named after the
#: retired backends whose replay each now stands for: ``numpy`` ran every
#: copy whole, ``model_axis`` started the copies on the model's trunk.
ROUTES = ["numpy", "model_axis"]


def route_copies(model, route, count):
    """Copies that take ``route``: perturbed in the first layer (each runs
    whole) or on distinct output-head biases (each runs on the trunk)."""
    biases = bias_flat_indices(model)
    copies = []
    for i in range(count):
        copy = model.copy()
        index = i if route == "numpy" else int(biases[-1 - i])
        copy.parameter_view().add_scalar(index, 0.5 if route == "numpy" else 5.0)
        copies.append(copy)
    return copies


def test_the_scan_sees_a_stray_array(model):
    """The scan reaches into a layer's containers and the model's own."""
    model.layers[0].leftover = {"cols": np.zeros(3)}
    model.extra = (model.layers[0].weight.value, np.zeros(2))
    assert kept(model) == [
        f"{model.name}.layers[0].leftover['cols']: (3,) float64",
        f"{model.name}.extra[1]: (2,) float64",
    ]


class TestRecordFalseIsTheSameForward:
    @pytest.mark.parametrize("rows", [1, 16, 64])
    def test_logits_bitwise_equal(self, model, rows):
        x = batch_for(model, rows, seed=rows)
        plain = model.forward(x)
        assert kept(model) == []
        tape = []
        recorded = model.forward(x, tape=tape)
        # the record exists, and it is the caller's, not the model's
        assert len(tape) == len(model.layers) and all(tape[:2])
        assert kept(model) == []
        assert np.array_equal(bit_pattern(plain), bit_pattern(recorded))

    def test_a_recording_survives_an_inference_pass(self, model):
        # forward -> predict -> another recording forward -> backward still
        # reads the first forward's tape
        x = batch_for(model, 4)
        tape = []
        logits = model.forward(x, tape=tape)
        g = np.ones_like(logits)
        _, want = model.backward_batch(g, tape, need_input_grad=True)
        model.predict(batch_for(model, 7, seed=3))
        model.forward(batch_for(model, 5, seed=4), tape=[])
        _, got = model.backward_batch(g, tape, need_input_grad=True)
        assert np.array_equal(bit_pattern(got), bit_pattern(want))


class TestInferenceKeepsNothing:
    def test_predict(self, model):
        model.predict(batch_for(model, 300))  # two predict chunks
        assert kept(model) == []

    def test_forward_collect(self, model):
        model.forward_collect(batch_for(model, 8))
        assert kept(model) == []

    @pytest.mark.parametrize("route", ROUTES)
    def test_engine_forward(self, model, route):
        # on a fresh engine, and on one that holds a memoized trunk
        engine = Engine(model, cache=False)
        if route == "model_axis":
            engine.stacked_forward(route_copies(model, route, 2), batch_for(model, 100))
            assert len(engine._trunks._cache) == 1
        engine.forward(batch_for(model, 100))
        assert kept(model) == []

    @pytest.mark.parametrize("route", ROUTES)
    def test_engine_stacked_forward(self, model, route):
        # once with the trunk kept or unneeded, once with a copy that is
        # the model (its own pass is the trunk, dropped on return)
        copies = route_copies(model, route, 3)
        splits = {first_divergence(model, copy) for copy in copies}
        assert (splits == {0}) == (route == "numpy")
        for stack in (copies, [model.copy(), *copies]):
            Engine(model).stacked_forward(stack, batch_for(model, 70))
            for involved in [model, *stack]:
                assert kept(involved) == []

    def test_sba_apply(self, model):
        refs = batch_for(model, 12)
        outcome = SingleBiasAttack(reference_inputs=refs, rng=4).apply(model)
        assert kept(model) == []
        assert kept(outcome.model) == []


class TestTrainingAndGradientQueriesKeepNothing:
    def test_trainer_fit_and_predict(self, model):
        x = batch_for(model, 12)
        labels = np.arange(12) % model.num_classes
        config = TrainingConfig(epochs=1, batch_size=5, learning_rate=0.01, seed=1)
        Trainer(config).fit(model, Dataset(x, labels), Dataset(x[:4], labels[:4]))
        assert kept(model) == []
        model.predict(x)
        assert kept(model) == []

    @pytest.mark.parametrize(
        "query",
        [
            "output_gradients_batch",
            "input_gradient",
            "loss_parameter_gradients",
            "output_gradients",
        ],
    )
    def test_gradient_query(self, model, query):
        x = batch_for(model, 6)
        labels = np.arange(6) % model.num_classes
        if query == "output_gradients":
            model.output_gradients(x[0])
        elif query == "output_gradients_batch":
            model.output_gradients_batch(x)
        else:
            getattr(model, query)(x, labels)
        assert kept(model) == []


class TestOneModelAcrossThreads:
    """Two threads query one shared model at once and each gets the serial
    result bit for bit: no pass writes anything another pass reads."""

    ROUNDS = 20

    @staticmethod
    def queries(model, seed):
        # each thread works on its own inputs and batch size, so a pass that
        # read another thread's record would read the wrong shape or values
        rows = 5 + 3 * seed
        x = batch_for(model, rows, seed=seed)
        labels = np.arange(rows) % model.num_classes
        return [
            lambda: model.output_gradients_batch(x),
            lambda: model.input_gradient(x, labels)[1],
            lambda: model.loss_parameter_gradients(x, labels)[1],
            lambda: model.output_gradients(x[0]),
            lambda: model.predict(x),
        ]

    def test_concurrent_queries_match_the_serial_run(self, model):
        serial = {seed: [q() for q in self.queries(model, seed)] for seed in (0, 1)}
        start = threading.Barrier(2, timeout=30)
        mismatches: list = []
        errors: list = []

        def worker(seed):
            calls = self.queries(model, seed)
            try:
                start.wait()
                for round_ in range(self.ROUNDS):
                    for i, call in enumerate(calls):
                        got = call()
                        want = serial[seed][i]
                        if not np.array_equal(bit_pattern(got), bit_pattern(want)):
                            mismatches.append((seed, round_, i))
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, repr(exc)))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-pass
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
        assert kept(model) == []


class TestFaultsStillFire:
    @pytest.mark.parametrize("entry", ["predict", "engine"])
    def test_layer_forward_fault(self, model, entry):
        x = batch_for(model, 4)
        plan = FaultPlan()
        plan.raise_error("layer.forward", exception="OSError", at=(2,))
        run = model.predict if entry == "predict" else Engine(model, cache=False).forward
        with inject.activate(plan), pytest.raises(OSError):
            run(x)
        assert plan.faults[0].fires == 1
        # the interrupted pass left nothing behind
        assert kept(model) == []
