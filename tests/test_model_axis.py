"""Tests for the model-axis batched backend (stacked multi-model dispatch).

The acceptance bar: fusing perturbed copies along a leading model axis must
be *observably free* — stacked logits, gradients, collected activations,
detection tables and greedy selections are bit-identical to running each
copy through its own engine on the numpy backend, on both Table-I
architectures; trial replay matches per-copy ``validate_ip`` and a campaign
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
from repro.engine import Engine, ModelAxisBackend
from repro.engine.backend import NumpyBackend, get_backend
from repro.engine.model_axis import DEFAULT_MAX_MODELS, first_divergence
from repro.models.zoo import cifar_cnn, mnist_cnn
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

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    @pytest.mark.parametrize("scalarization", ["sum", "max"])
    def test_gradients_bitwise_identical(self, arch, scalarization, request):
        model = request.getfixturevalue(f"{arch}_model")
        pool = request.getfixturevalue(f"{arch}_pool")[:4]
        copies = sba_copies(model, 3)
        stacked = StackedSequential(copies).output_gradients_batch(
            pool, scalarization
        )
        for m, copy in enumerate(copies):
            assert np.array_equal(
                stacked[m], copy.output_gradients_batch(pool, scalarization)
            )

    def test_forward_collect_bitwise_identical(self, mnist_model, mnist_pool):
        copies = sba_copies(mnist_model, 3)
        collected = StackedSequential(copies).forward_collect(mnist_pool[:4])
        assert len(collected) == len(mnist_model.layers)
        for m, copy in enumerate(copies):
            reference = copy.forward_collect(mnist_pool[:4])
            for layer_out, ref in zip(collected, reference):
                assert np.array_equal(layer_out[m], ref)

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

    def test_start_mode_rejects_gradient_queries(self, mnist_model, mnist_pool):
        copies = head_copies(mnist_model, 2)
        stack = StackedSequential(copies, start=1)
        with pytest.raises(ValueError, match="layer 0"):
            stack.output_gradients_batch(mnist_pool[:2])

    def test_validation_errors(self, mnist_model, cifar_model):
        with pytest.raises(ValueError, match="at least one model"):
            StackedSequential([])
        with pytest.raises(ValueError, match="architecture"):
            StackedSequential([mnist_model, cifar_model])
        with pytest.raises(ValueError, match="start"):
            StackedSequential([mnist_model], start=len(mnist_model.layers))
        with pytest.raises(ValueError, match="scalarization"):
            StackedSequential([mnist_model]).output_gradients_batch(
                np.zeros((1, *mnist_model.input_shape)), "median"
            )


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
    def test_registered_and_constructible(self):
        backend = get_backend("model_axis")
        assert isinstance(backend, ModelAxisBackend)
        assert backend.model_axis_capacity == DEFAULT_MAX_MODELS
        assert ModelAxisBackend(max_models=4).model_axis_capacity == 4
        with pytest.raises(ValueError):
            ModelAxisBackend(max_models=0)

    def test_numpy_backend_advertises_no_capacity(self):
        assert NumpyBackend().model_axis_capacity == 0

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
        fused = ModelAxisBackend().stacked_forward(copies, pool, base=model)
        for m, copy in enumerate(copies):
            assert np.array_equal(fused[m], Engine(copy, cache=False).forward(pool))

    def test_baseless_dispatch_bitwise_identical(self, mnist_model, mnist_pool):
        copies = sba_copies(mnist_model, 3)
        fused = ModelAxisBackend().stacked_forward(copies, mnist_pool)
        for m, copy in enumerate(copies):
            assert np.array_equal(
                fused[m], Engine(copy, cache=False).forward(mnist_pool)
            )

    def test_stacked_packed_masks_match_numpy(self, mnist_model, mnist_pool):
        copies = sba_copies(mnist_model, 2)
        fused = ModelAxisBackend().stacked_packed_masks(
            copies, mnist_pool[:4], "sum", 1e-4
        )
        loop = NumpyBackend().stacked_packed_masks(copies, mnist_pool[:4], "sum", 1e-4)
        assert np.array_equal(fused, loop)


class TestEngineStackedForward:
    def test_engine_dispatch_bitwise_identical(self, mnist_model, mnist_pool):
        copies = sba_copies(mnist_model, 5)
        loop = Engine(mnist_model, cache=False).stacked_forward(copies, mnist_pool)
        fused = Engine(
            mnist_model, backend=ModelAxisBackend(), cache=False
        ).stacked_forward(copies, mnist_pool)
        assert np.array_equal(loop, fused)

    def test_capacity_grouping_preserves_results(self, mnist_model, mnist_pool):
        # more copies than max_models: the engine splits into fused groups
        copies = sba_copies(mnist_model, 7)
        whole = Engine(mnist_model, cache=False).stacked_forward(copies, mnist_pool)
        grouped = Engine(
            mnist_model, backend=ModelAxisBackend(max_models=3), cache=False
        ).stacked_forward(copies, mnist_pool)
        assert np.array_equal(whole, grouped)

    def test_memoized_on_digest_tuple(self, mnist_model, mnist_pool):
        engine = Engine(mnist_model, backend=ModelAxisBackend())
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
        with pytest.raises(ValueError, match="input shape"):
            engine.stacked_forward([cifar_model], mnist_pool)


class TestConsumerEquivalence:
    """Detection tables and greedy selections: byte-identical across backends."""

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_detection_table_identical(self, arch, request):
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
        rows_ma = DetectionExperiment(
            model, packages, factories, config, backend=ModelAxisBackend(max_models=4)
        ).run().as_rows()
        assert rows_np == rows_ma

    @pytest.mark.parametrize(
        "backend", [NumpyBackend(), ModelAxisBackend(max_models=4)], ids=["numpy", "model_axis"]
    )
    def test_replay_trials_rows_match_validate_ip(self, backend, mnist_model, mnist_pool):
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

    def test_campaign_store_identical(self, tmp_path):
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
        stores = {}
        for name, backend in (("numpy", "numpy"), ("model_axis", ModelAxisBackend(max_models=2))):
            stores[name] = tmp_path / f"{name}.jsonl"
            summary = run_campaign(spec, str(stores[name]), backend=backend)
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
