"""Tests for stacked replay: many perturbed copies of one model, one query.

The acceptance bar: starting each copy at its first divergent layer on the
engine model's trunk must be *observably free* — stacked logits, detection
tables, campaign stores and greedy selections are bit-identical to running
each copy whole through its own engine, on both Table-I architectures, and
copies that share the engine model's layers do not run them again.  Speed
is asserted in ``benchmarks/bench_engine.py``; correctness lives here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.attacks.base import bias_flat_indices
from repro.attacks.sba import SingleBiasAttack
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, run_campaign
from repro.data.datasets import Dataset
from repro.engine import Engine
from repro.engine.cache import first_divergence
from repro.models.zoo import cifar_cnn, mnist_cnn
from repro.nn.activations import get_activation
from repro.nn.layers import Conv2D
from repro.nn.model import Sequential
from repro.testgen.selection import TrainingSetSelector
from repro.utils.config import DetectionConfig
from repro.validation import detection
from repro.validation.detection import (
    ATTACK_NAMES,
    DetectionExperiment,
    default_attack_factories,
    replay_trials,
)
from repro.validation.user import validate_ip
from repro.validation.vendor import IPVendor


def whole_copy_forward(engine, models, batch):
    """The reference :meth:`Engine.stacked_forward`: every copy run whole,
    in ``engine``'s chunks."""
    return np.stack(
        [Engine(m, batch_size=engine.batch_size, cache=False).forward(batch) for m in models]
    )


@pytest.fixture(scope="module")
def mnist_model():
    """The Table-I MNIST architecture (Tanh), width-scaled."""
    return mnist_cnn(width_multiplier=0.125, input_size=28, rng=0)


@pytest.fixture(scope="module")
def cifar_model():
    """The Table-I CIFAR architecture (ReLU), width-scaled."""
    return cifar_cnn(width_multiplier=0.0625, input_size=32, rng=0)


@pytest.fixture(scope="module")
def mnist_pool(mnist_model):
    rng = np.random.default_rng(1)
    return rng.random((12, *mnist_model.input_shape))


@pytest.fixture(scope="module")
def cifar_pool(cifar_model):
    rng = np.random.default_rng(2)
    return rng.random((12, *cifar_model.input_shape))


def sba_copies(model, trials, seed=100):
    """Perturbed copies with faults on rng-chosen (arbitrary-layer) biases."""
    return [
        SingleBiasAttack(rng=seed + trial).apply(model).model
        for trial in range(trials)
    ]


def head_copies(model, trials, magnitude=10.0):
    """Copies perturbed on distinct output-head biases (deepest divergence)."""
    biases = bias_flat_indices(model)
    copies = []
    for trial in range(trials):
        copy = model.copy()
        copy.parameter_view().add_scalar(int(biases[-1 - trial]), magnitude)
        copies.append(copy)
    return copies


def tiny_campaign_spec(**overrides):
    """A one-model campaign small enough for tier-1."""
    fields = dict(
        name="backend-identity",
        attacks=ATTACK_NAMES,
        models=("mnist",),
        criteria=("default",),
        strategies=("random",),
        budgets=(2, 3),
        trials=5,
        train_size=24,
        test_size=12,
        epochs=1,
        width_multiplier=0.08,
        candidate_pool=12,
        gradient_updates=3,
        reference_inputs=6,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


#: Replay group sizes named after the retired backends: ``numpy`` replayed
#: one copy per stacked call, ``model_axis`` a group of them.
GROUPINGS = {"numpy": 1, "model_axis": 4}


def layer_copies(model, magnitude=0.5):
    """One copy per parameter tensor of every parametric layer, perturbed in
    that tensor's first entry: every split the architecture has."""
    copies = []
    for index, layer in enumerate(model.layers):
        for p in range(len(layer.parameters())):
            copy = model.copy()
            copy.layers[index].parameters()[p].value.flat[0] += magnitude
            copies.append(copy)
    return copies


class TestFirstDivergence:
    def test_identical_copy_diverges_nowhere(self, mnist_model):
        assert first_divergence(mnist_model, mnist_model.copy()) == len(
            mnist_model.layers
        )

    def test_head_copy_diverges_at_last_dense(self, mnist_model):
        copy = head_copies(mnist_model, 1)[0]
        param_layers = [
            idx for idx, layer in enumerate(mnist_model.layers) if layer.parameters()
        ]
        assert first_divergence(mnist_model, copy) == param_layers[-1]

    def test_first_layer_perturbation_diverges_at_zero(self, mnist_model):
        copy = mnist_model.copy()
        copy.parameter_view().add_scalar(0, 1.0)
        assert first_divergence(mnist_model, copy) == 0


class TestModelAxisBackend:
    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_trunk_grouping_bitwise_identical(self, arch, request):
        # mixed divergence depths: an identical copy (the trunk's logits),
        # head-perturbed copies (deep shared trunk), SBA copies on arbitrary
        # layers and a copy perturbed at every parametric layer's weight
        # and bias — all must match per-copy engine forwards, both when the
        # trunk is memoized and when a copy bitwise the model computes it
        model = request.getfixturevalue(f"{arch}_model")
        pool = request.getfixturevalue(f"{arch}_pool")
        perturbed = head_copies(model, 2) + sba_copies(model, 3) + layer_copies(model)
        splits = {first_divergence(model, copy) for copy in perturbed}
        param_layers = {i for i, layer in enumerate(model.layers) if layer.parameters()}
        assert param_layers <= splits
        for copies, trunks_kept in ((perturbed, 1), ([model.copy()] + perturbed, 0)):
            engine = Engine(model, batch_size=5, cache=False)
            stacked = engine.stacked_forward(copies, pool)
            for m, copy in enumerate(copies):
                own = Engine(copy, batch_size=5, cache=False).forward(pool)
                assert stacked[m].tobytes() == own.tobytes()
            assert len(engine._trunks._cache) == trunks_kept


class TestEngineStackedForward:
    def test_engine_dispatch_bitwise_identical(self, mnist_model, mnist_pool):
        copies = sba_copies(mnist_model, 5)
        engine = Engine(mnist_model, cache=False)
        stacked = engine.stacked_forward(copies, mnist_pool)
        loop = whole_copy_forward(engine, copies, mnist_pool)
        assert stacked.tobytes() == loop.tobytes()

    def test_capacity_grouping_preserves_results(self, mnist_model, mnist_pool, monkeypatch):
        # replay_trials builds copies in groups of REPLAY_GROUP_SIZE, one
        # stacked query per group: the group size changes no row or record
        factories = default_attack_factories(mnist_pool[:4])
        expected = mnist_model.forward(mnist_pool)

        def replay():
            attacks = [
                factories[ATTACK_NAMES[t % 4]](np.random.default_rng(t)) for t in range(7)
            ]
            engine = Engine(mnist_model, cache=False)
            rows, records = replay_trials(engine, attacks, mnist_pool, expected, 0.0)
            return rows, [record.to_dict() for record in records]

        whole = replay()
        sizes = []
        stacked_forward = Engine.stacked_forward

        def counting(self, models, batch):
            sizes.append(len(models))
            return stacked_forward(self, models, batch)

        monkeypatch.setattr(Engine, "stacked_forward", counting)
        monkeypatch.setattr(detection, "REPLAY_GROUP_SIZE", 3)
        grouped = replay()
        assert sizes == [3, 3, 1]
        assert np.array_equal(whole[0], grouped[0])
        assert whole[1] == grouped[1]

    def test_memoized_on_digest_tuple(self, mnist_model, mnist_pool):
        engine = Engine(mnist_model)
        copies = sba_copies(mnist_model, 3)
        first = engine.stacked_forward(copies, mnist_pool)
        hits_before = engine.stats.hits
        again = engine.stacked_forward(copies, mnist_pool)
        assert engine.stats.hits == hits_before + 1
        assert np.array_equal(first, again)
        # perturbing any copy changes its digest — the memo must miss
        copies[1].parameter_view().add_scalar(0, 1.0)
        recomputed = engine.stacked_forward(copies, mnist_pool)
        assert engine.stats.hits == hits_before + 1
        assert not np.array_equal(first[1], recomputed[1])

    def test_validation_errors(self, mnist_model, cifar_model, mnist_pool):
        engine = Engine(mnist_model)
        with pytest.raises(ValueError, match="at least one model"):
            engine.stacked_forward([], mnist_pool)
        with pytest.raises(ValueError, match="architecture"):
            engine.stacked_forward([cifar_model], mnist_pool)

    @pytest.mark.parametrize("backend", ["numpy", "model_axis"])
    def test_rejects_a_different_activation(self, backend, mnist_model, mnist_pool):
        # the victim's exact weights behind a relu conv1: parameters alone
        # read as "the victim itself", so trunk sharing would have served
        # the victim's logits for it; rejected beside copies that run whole
        # (numpy) and beside copies that start on the trunk (model_axis)
        copy = mnist_model.copy()
        copy.layers[0].activation = get_activation("relu")
        assert first_divergence(mnist_model, copy) == len(mnist_model.layers)
        others = (
            layer_copies(mnist_model)[:1] if backend == "numpy" else head_copies(mnist_model, 2)
        )
        engine = Engine(mnist_model, cache=False)
        engine.stacked_forward(others, mnist_pool)
        with pytest.raises(ValueError, match="architecture"):
            engine.stacked_forward([*others, copy], mnist_pool)

    @pytest.mark.parametrize("cache", [False, True])
    def test_one_signature_per_model_per_call(self, cache, mnist_model, mnist_pool, monkeypatch):
        # the engine checks every copy once; the exact keys (memo and
        # trunk) reuse that signature
        copies = sba_copies(mnist_model, 6) + head_copies(mnist_model, 3)
        engine = Engine(mnist_model, cache=cache)
        counts = {}
        signature = Sequential.architecture_signature

        def counting(model):
            counts[id(model)] = counts.get(id(model), 0) + 1
            return signature(model)

        monkeypatch.setattr(Sequential, "architecture_signature", counting)
        engine.stacked_forward(copies, mnist_pool)
        assert set(counts) == {id(model) for model in [mnist_model, *copies]}
        assert max(counts.values()) == 1


class TestSharedLayersRunOnce:
    def test_head_copies_run_each_conv_once_per_chunk(self, mnist_model, mnist_pool, monkeypatch):
        # 8 copies perturbed in the head share every conv with the model:
        # each Conv2D runs once per chunk (for the trunk), not once per copy
        calls = []
        forward = Conv2D.forward

        def counting(self, x, *args, **kwargs):
            calls.append(self.name)
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(Conv2D, "forward", counting)
        copies = head_copies(mnist_model, 8)
        engine = Engine(mnist_model, batch_size=5, cache=False)
        stacked = engine.stacked_forward(copies, mnist_pool)
        convs = [layer.name for layer in mnist_model.layers if isinstance(layer, Conv2D)]
        chunks = -(-len(mnist_pool) // 5)
        assert sorted(calls) == sorted(convs * chunks)
        monkeypatch.undo()
        assert stacked.tobytes() == whole_copy_forward(engine, copies, mnist_pool).tobytes()

    def test_first_layer_copies_peak_like_one_forward(self, mnist_model):
        # 16 copies perturbed in conv1 share nothing with the model: they
        # run one after another, so the query peaks near one copy's forward
        tests = np.random.default_rng(4).random((16, *mnist_model.input_shape))
        copies = []
        for i in range(16):
            copy = mnist_model.copy()
            copy.layers[0].weight.value.flat[i] += 0.5
            copies.append(copy)
        assert {first_divergence(mnist_model, copy) for copy in copies} == {0}
        engine = Engine(mnist_model, cache=False)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: copies[0].forward(tests))
        stacked = peak(lambda: engine.stacked_forward(copies, tests))
        assert stacked <= 2 * one, (stacked, one)


class TestConsumerEquivalence:
    """Detection tables, campaign stores and greedy selections: identical to
    replaying every copy whole."""

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_detection_table_identical(self, arch, request, monkeypatch):
        model = request.getfixturevalue(f"{arch}_model")
        pool = request.getfixturevalue(f"{arch}_pool")
        packages = {
            "training_set": IPVendor(model).build_package(pool[:4]),
            "random": IPVendor(model).build_package(pool[4:8]),
        }
        factories = default_attack_factories(pool[:4])
        config = DetectionConfig(
            trials=7, test_budgets=(2, 4), attacks=("sba", "random"), seed=0
        )
        monkeypatch.setattr(detection, "REPLAY_GROUP_SIZE", 4)
        rows = DetectionExperiment(model, packages, factories, config).run().as_rows()
        monkeypatch.setattr(Engine, "stacked_forward", whole_copy_forward)
        reference = DetectionExperiment(model, packages, factories, config).run().as_rows()
        assert rows == reference

    @pytest.mark.parametrize("backend", ["numpy", "model_axis"])
    def test_replay_trials_rows_match_validate_ip(
        self, backend, mnist_model, mnist_pool, monkeypatch
    ):
        monkeypatch.setattr(detection, "REPLAY_GROUP_SIZE", GROUPINGS[backend])
        # a loose tolerance lets some copies pass, so rows differ by trial
        package = IPVendor(mnist_model).build_package(mnist_pool[:6], output_atol=0.1)
        factories = default_attack_factories(mnist_pool[:4])

        def attacks():
            # 9 trials: nine groups of 1, or two of 4 plus a remainder of 1
            return [
                factories[ATTACK_NAMES[t % 4]](np.random.default_rng(t)) for t in range(9)
            ]

        # reference: one validate_ip per perturbed copy
        reference_rows, reference_records = [], []
        for attack in attacks():
            outcome = attack.apply(mnist_model)
            reference_rows.append(validate_ip(outcome.model, package).mismatched_indices)
            reference_records.append(outcome.record.to_dict())

        mismatches, records = replay_trials(
            Engine(mnist_model, cache=False),
            attacks(),
            package.tests,
            package.expected_outputs,
            package.output_atol,
        )
        assert mismatches.shape == (9, package.num_tests)
        assert [np.flatnonzero(row).tolist() for row in mismatches] == reference_rows
        assert [record.to_dict() for record in records] == reference_records
        assert len({tuple(row) for row in reference_rows}) > 1, "every row alike: vacuous"

    def test_campaign_store_identical(self, tmp_path, monkeypatch):
        spec = tiny_campaign_spec()
        monkeypatch.setattr(detection, "REPLAY_GROUP_SIZE", 2)
        stores = {}
        for name in ("trunk", "whole"):
            if name == "whole":
                monkeypatch.setattr(Engine, "stacked_forward", whole_copy_forward)
            stores[name] = tmp_path / f"{name}.jsonl"
            summary = run_campaign(spec, str(stores[name]))
            assert summary.executed == 8 and summary.failed == 0
        assert stores["trunk"].read_bytes() == stores["whole"].read_bytes()

    def test_retired_backend_keyword_changes_nothing(self, tmp_path):
        # CampaignRunner still takes the two old names (the benchmark
        # harness passes one); both write the bytes of no keyword at all
        spec = tiny_campaign_spec(attacks=("sba",), budgets=(2,))
        stores = []
        for kwargs in ({}, {"backend": "numpy"}, {"backend": "model_axis"}):
            path = tmp_path / f"{len(stores)}.jsonl"
            with CampaignRunner(spec, ResultStore(path), **kwargs) as runner:
                assert runner.run().executed == 1
            stores.append(path.read_bytes())
        assert stores[0] and stores[1] == stores[0] and stores[2] == stores[0]
        with pytest.raises(ValueError, match="unknown backend 'tpu'"):
            CampaignRunner(spec, ResultStore(tmp_path / "x.jsonl"), backend="tpu")

    def test_greedy_selection_identical(self, mnist_model, mnist_pool):
        dataset = Dataset(
            images=mnist_pool, labels=np.zeros(len(mnist_pool), dtype=np.int64)
        )
        memoized = TrainingSetSelector(
            mnist_model, dataset, rng=0, engine=Engine(mnist_model)
        ).generate(num_tests=6)
        unmemoized = TrainingSetSelector(
            mnist_model,
            dataset,
            rng=0,
            engine=Engine(mnist_model, cache=False),
        ).generate(num_tests=6)
        np.testing.assert_array_equal(
            memoized.dataset_indices, unmemoized.dataset_indices
        )
        assert memoized.gains == unmemoized.gains
        assert memoized.coverage_history == unmemoized.coverage_history
