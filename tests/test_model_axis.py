"""Tests for the fused ``model_axis`` path (stacked multi-model dispatch).

The acceptance bar: fusing perturbed copies along a leading model axis must
be *observably free* — stacked logits, detection tables and greedy
selections are bit-identical to running each copy through its own engine on
the ``numpy`` backend, on both Table-I architectures; trial replay matches per-copy ``validate_ip`` and a campaign
writes the same store bytes on either backend.  Speed is asserted in ``benchmarks/bench_engine.py``;
correctness lives here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.base import bias_flat_indices
from repro.attacks.sba import SingleBiasAttack
from repro.campaign import CampaignSpec, run_campaign
from repro.data.datasets import Dataset
from repro.engine import Engine, model_axis
from repro.engine.cache import TrunkCache
from repro.engine.model_axis import first_divergence, fused_stacked_forward
from repro.models.zoo import cifar_cnn, mnist_cnn
from repro.nn.activations import get_activation
from repro.nn.model import Sequential
from repro.nn.stacked import StackedSequential
from repro.testgen.selection import TrainingSetSelector
from repro.utils.config import DetectionConfig
from repro.validation.detection import (
    ATTACK_NAMES,
    DetectionExperiment,
    default_attack_factories,
    replay_trials,
)
from repro.validation.user import validate_ip
from repro.validation.vendor import IPVendor


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


class TestStackedSequentialEquivalence:
    """Stacked outputs == per-model outputs, bit for bit, on both archs."""

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_forward_bitwise_identical(self, arch, request):
        model = request.getfixturevalue(f"{arch}_model")
        pool = request.getfixturevalue(f"{arch}_pool")
        copies = sba_copies(model, 4) + [model.copy()]
        stacked = StackedSequential(copies).forward(pool)
        for m, copy in enumerate(copies):
            assert np.array_equal(stacked[m], copy.forward(pool, training=False))

    def test_identical_copies_share_one_pass(self, mnist_model, mnist_pool):
        # all-equal stacks never tile: the output is a broadcast of one pass
        copies = [mnist_model.copy() for _ in range(3)]
        out = StackedSequential(copies).forward(mnist_pool[:4])
        expected = mnist_model.forward(mnist_pool[:4], training=False)
        for m in range(3):
            assert np.array_equal(out[m], expected)

    def test_start_mode_resumes_mid_network(self, mnist_model, mnist_pool):
        # feeding a layer's true input activation with start=<layer> must
        # reproduce the full forward exactly (the trunk-sharing contract)
        copies = head_copies(mnist_model, 2)
        split = first_divergence(mnist_model, copies[0])
        trunk = mnist_pool[:4]
        for layer in mnist_model.layers[:split]:
            trunk = layer.forward(trunk)
        resumed = StackedSequential(copies, start=split).forward(trunk)
        full = StackedSequential(copies).forward(mnist_pool[:4])
        assert np.array_equal(resumed, full)

    def test_validation_errors(self, mnist_model, cifar_model):
        with pytest.raises(ValueError, match="at least one model"):
            StackedSequential([])
        with pytest.raises(ValueError, match="architecture"):
            StackedSequential([mnist_model, cifar_model])
        with pytest.raises(ValueError, match="start"):
            StackedSequential([mnist_model], start=len(mnist_model.layers))

    def test_rejects_a_different_activation(self, mnist_model):
        copy = mnist_model.copy()
        copy.layers[0].activation = get_activation("relu")
        with pytest.raises(ValueError, match="architecture"):
            StackedSequential([mnist_model, copy])


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
    def test_numpy_backend_advertises_no_capacity(self, mnist_model, mnist_pool, monkeypatch):
        # no fused path on numpy: trial replay builds and replays one copy
        # per stacked dispatch, and DEFAULT_MAX_MODELS on model_axis
        monkeypatch.setattr(model_axis, "DEFAULT_MAX_MODELS", 2)
        sizes = []
        stacked_forward = Engine.stacked_forward

        def counting(self, models, batch):
            sizes.append((self.backend, len(models)))
            return stacked_forward(self, models, batch)

        monkeypatch.setattr(Engine, "stacked_forward", counting)
        factories = default_attack_factories(mnist_pool[:4])
        expected = mnist_model.forward(mnist_pool)
        for backend in ("numpy", "model_axis"):
            attacks = [factories["sba"](np.random.default_rng(t)) for t in range(3)]
            engine = Engine(mnist_model, backend=backend, cache=False)
            replay_trials(engine, attacks, mnist_pool, expected, 0.0)
        assert sizes == [("numpy", 1)] * 3 + [("model_axis", 2), ("model_axis", 1)]

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_trunk_grouping_bitwise_identical(self, arch, request):
        # mixed divergence depths: an identical copy (broadcast of base
        # logits), head-perturbed copies (deep shared trunk) and SBA copies
        # on arbitrary layers — all must match per-copy engine forwards
        model = request.getfixturevalue(f"{arch}_model")
        pool = request.getfixturevalue(f"{arch}_pool")
        copies = (
            [model.copy()] + head_copies(model, 2) + sba_copies(model, 3)
        )
        (trunk,) = TrunkCache().get(model, pool, pool.shape[0])
        fused = fused_stacked_forward(copies, pool, model, trunk)
        for m, copy in enumerate(copies):
            assert np.array_equal(fused[m], Engine(copy, cache=False).forward(pool))

class TestEngineStackedForward:
    def test_engine_dispatch_bitwise_identical(self, mnist_model, mnist_pool):
        copies = sba_copies(mnist_model, 5)
        loop = Engine(mnist_model, cache=False).stacked_forward(copies, mnist_pool)
        fused = Engine(
            mnist_model, backend="model_axis", cache=False
        ).stacked_forward(copies, mnist_pool)
        assert np.array_equal(loop, fused)

    def test_capacity_grouping_preserves_results(self, mnist_model, mnist_pool, monkeypatch):
        # more copies than DEFAULT_MAX_MODELS: the engine splits into fused groups
        monkeypatch.setattr(model_axis, "DEFAULT_MAX_MODELS", 3)
        copies = sba_copies(mnist_model, 7)
        whole = Engine(mnist_model, cache=False).stacked_forward(copies, mnist_pool)
        grouped = Engine(
            mnist_model, backend="model_axis", cache=False
        ).stacked_forward(copies, mnist_pool)
        assert np.array_equal(whole, grouped)

    def test_memoized_on_digest_tuple(self, mnist_model, mnist_pool):
        engine = Engine(mnist_model, backend="model_axis")
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
        # read as "the victim itself", so the fused path would have served
        # the victim's logits for it
        copy = mnist_model.copy()
        copy.layers[0].activation = get_activation("relu")
        assert first_divergence(mnist_model, copy) == len(mnist_model.layers)
        engine = Engine(mnist_model, backend=backend, cache=False)
        with pytest.raises(ValueError, match="architecture"):
            engine.stacked_forward([mnist_model.copy(), copy], mnist_pool)


    @pytest.mark.parametrize("cache", [False, True])
    def test_one_signature_per_model_per_call(self, cache, mnist_model, mnist_pool, monkeypatch):
        # the engine checks every copy once; the fused stacks and the exact
        # keys (memo and trunk) reuse that signature
        copies = sba_copies(mnist_model, 6) + head_copies(mnist_model, 3)
        engine = Engine(mnist_model, backend="model_axis", cache=cache)
        counts = {}
        signature = Sequential.architecture_signature

        def counting(model):
            counts[id(model)] = counts.get(id(model), 0) + 1
            return signature(model)

        monkeypatch.setattr(Sequential, "architecture_signature", counting)
        engine.stacked_forward(copies, mnist_pool)
        assert set(counts) == {id(model) for model in [mnist_model, *copies]}
        assert max(counts.values()) == 1


class TestConsumerEquivalence:
    """Detection tables and greedy selections: byte-identical across backends."""

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
        rows_np = DetectionExperiment(
            model, packages, factories, config, backend="numpy"
        ).run().as_rows()
        monkeypatch.setattr(model_axis, "DEFAULT_MAX_MODELS", 4)
        rows_ma = DetectionExperiment(
            model, packages, factories, config, backend="model_axis"
        ).run().as_rows()
        assert rows_np == rows_ma

    @pytest.mark.parametrize("backend", ["numpy", "model_axis"])
    def test_replay_trials_rows_match_validate_ip(
        self, backend, mnist_model, mnist_pool, monkeypatch
    ):
        monkeypatch.setattr(model_axis, "DEFAULT_MAX_MODELS", 4)
        # a loose tolerance lets some copies pass, so rows differ by trial
        package = IPVendor(mnist_model).build_package(mnist_pool[:6], output_atol=0.1)
        factories = default_attack_factories(mnist_pool[:4])

        def attacks():
            # 9 trials: two full model-axis groups of 4 plus a remainder of 1
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
            Engine(mnist_model, backend=backend, cache=False),
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
        spec = CampaignSpec(
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
        monkeypatch.setattr(model_axis, "DEFAULT_MAX_MODELS", 2)
        stores = {}
        for name in ("numpy", "model_axis"):
            stores[name] = tmp_path / f"{name}.jsonl"
            summary = run_campaign(spec, str(stores[name]), backend=name)
            assert summary.executed == 8 and summary.failed == 0
        assert stores["numpy"].read_bytes() == stores["model_axis"].read_bytes()

    def test_greedy_selection_identical(self, mnist_model, mnist_pool):
        dataset = Dataset(
            images=mnist_pool, labels=np.zeros(len(mnist_pool), dtype=np.int64)
        )
        numpy_result = TrainingSetSelector(
            mnist_model, dataset, rng=0, engine=Engine(mnist_model, backend="numpy")
        ).generate(num_tests=6)
        fused_result = TrainingSetSelector(
            mnist_model,
            dataset,
            rng=0,
            engine=Engine(mnist_model, backend="model_axis"),
        ).generate(num_tests=6)
        np.testing.assert_array_equal(
            numpy_result.dataset_indices, fused_result.dataset_indices
        )
        assert numpy_result.gains == fused_result.gains
        assert numpy_result.coverage_history == fused_result.coverage_history
