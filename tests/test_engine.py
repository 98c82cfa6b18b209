"""Engine/per-sample equivalence and behaviour tests.

Property-style checks that the batched execution engine reproduces the
per-sample reference implementations — activation masks, output gradients,
input gradients, neuron masks and coverage aggregates — to 1e-8 on both
Table-I architectures (the Tanh MNIST CNN and the ReLU CIFAR CNN, width-
scaled for test speed) plus the small unit-test models, along with the memo
cache and chunking behaviour.
"""

import numpy as np
import pytest

from repro.coverage.activation import ActivationCriterion, default_criterion_for
from repro.coverage.neuron_coverage import neuron_activation_mask, neuron_activation_masks
from repro.coverage.parameter_coverage import (
    CoverageTracker,
    activation_mask,
    activation_masks,
    mean_validation_coverage,
    mean_validation_coverage_reference,
    set_validation_coverage,
)
from repro.engine import (
    BatchResultCache,
    CacheStats,
    Engine,
    array_fingerprint,
)
from repro.models.zoo import cifar_cnn, mnist_cnn, small_cnn, small_mlp
from repro.nn.layers import Dense

TOLERANCE = 1e-8


def _pool(model, size, seed):
    """A deterministic image pool matching the model's input shape."""
    rng = np.random.default_rng(seed)
    return rng.random((size, *model.input_shape))


@pytest.fixture(scope="module", params=["mnist", "cifar", "small_relu", "small_tanh", "mlp"])
def arch(request):
    """Every Table-I architecture (width-scaled) plus the small test models."""
    if request.param == "mnist":
        return mnist_cnn(width_multiplier=0.125, input_size=12, rng=0)
    if request.param == "cifar":
        return cifar_cnn(width_multiplier=0.0625, input_size=12, rng=1)
    if request.param == "small_relu":
        return small_cnn(activation="relu", rng=2)
    if request.param == "small_tanh":
        return small_cnn(activation="tanh", rng=3)
    return small_mlp(rng=4)


class TestPerSampleEquivalence:
    def test_output_gradients_match_per_sample(self, arch):
        images = _pool(arch, 6, seed=10)
        engine = Engine(arch, batch_size=4)
        for scal in ("sum", "max", "predicted"):
            batched = engine.output_gradients(images, scal)
            singles = np.stack(
                [arch.output_gradients(images[i], scal) for i in range(len(images))]
            )
            assert np.abs(batched - singles).max() <= TOLERANCE

    def test_activation_masks_match_per_sample(self, arch):
        images = _pool(arch, 6, seed=11)
        crit = default_criterion_for(arch)
        batched = activation_masks(arch, images, crit)
        singles = np.stack(
            [activation_mask(arch, images[i], crit) for i in range(len(images))]
        )
        np.testing.assert_array_equal(batched, singles)

    def test_input_gradients_match_model_query(self, arch):
        images = _pool(arch, 5, seed=12)
        targets = np.arange(5) % arch.num_classes
        engine = Engine(arch)
        value_e, grad_e = engine.input_gradients(images, targets)
        value_m, grad_m = arch.input_gradient(images, targets)
        assert value_e == pytest.approx(value_m)
        assert np.abs(grad_e - grad_m).max() <= TOLERANCE

    def test_neuron_masks_match_per_sample(self, arch):
        images = _pool(arch, 6, seed=13)
        batched = neuron_activation_masks(arch, images, threshold=0.0)
        singles = np.stack(
            [neuron_activation_mask(arch, images[i], 0.0) for i in range(len(images))]
        )
        np.testing.assert_array_equal(batched, singles)

    def test_mean_validation_coverage_matches_reference(self, arch):
        images = _pool(arch, 7, seed=14)
        batched = mean_validation_coverage(arch, images)
        reference = mean_validation_coverage_reference(arch, images)
        assert abs(batched - reference) <= TOLERANCE

    def test_set_validation_coverage_matches_tracker_loop(self, arch):
        images = _pool(arch, 5, seed=15)
        tracker = CoverageTracker(arch)
        for x in images:
            tracker.add_sample(x)
        assert set_validation_coverage(arch, images) == pytest.approx(
            tracker.coverage, abs=TOLERANCE
        )

    def test_set_validation_coverage_empty_is_zero(self, arch):
        assert set_validation_coverage(arch, []) == 0.0
        empty = np.zeros((0, *arch.input_shape))
        assert set_validation_coverage(arch, empty) == 0.0
        # the engine-level namesake agrees on the edge case
        engine = Engine(arch)
        assert engine.set_validation_coverage(empty) == 0.0
        assert not engine.union_mask(empty).any()

    def test_sweeps_accept_empty_test_sets(self, arch):
        from repro.analysis.sweep import epsilon_sweep

        empty = np.zeros((0, *arch.input_shape))
        result = epsilon_sweep(arch, empty, epsilons=(0.0, 1e-2))
        assert result.coverages == [0.0, 0.0]

    def test_tracker_add_batch_matches_sample_loop(self, arch):
        images = _pool(arch, 5, seed=26)
        loop = CoverageTracker(arch)
        for x in images:
            loop.add_sample(x)
        batched = CoverageTracker(arch)
        gain = batched.add_batch(images)
        assert batched.coverage == pytest.approx(loop.coverage, abs=TOLERANCE)
        assert gain == pytest.approx(loop.coverage, abs=TOLERANCE)
        assert batched.num_tests == loop.num_tests == len(images)
        # a second add of the same batch gains nothing
        assert batched.add_batch(images) == 0.0

    def test_per_sample_parameter_grads_sum_to_batch_grads(self, arch):
        """Σ_n per-sample grads == accumulated batch gradients from backward."""
        images = _pool(arch, 4, seed=16)
        tape = []
        logits = arch.forward(images, tape=tape)
        _, per_sample = arch.backward_batch(np.ones_like(logits), tape)
        arch.zero_grad()
        arch.backward(np.ones_like(logits), tape)
        accumulated = arch.parameter_view().flat_grads()
        arch.zero_grad()
        assert np.abs(per_sample.sum(axis=0) - accumulated).max() <= 1e-7


class TestEngineBehaviour:
    def test_chunking_is_invisible(self, arch):
        images = _pool(arch, 9, seed=17)
        one_chunk = Engine(arch, batch_size=64).output_gradients(images)
        many_chunks = Engine(arch, batch_size=2).output_gradients(images)
        assert np.abs(one_chunk - many_chunks).max() <= TOLERANCE

    def test_forward_matches_model_and_is_memoized(self):
        model = small_cnn(rng=5)
        images = _pool(model, 6, seed=18)
        engine = Engine(model)
        first = engine.forward(images)
        np.testing.assert_allclose(first, model.forward(images), atol=TOLERANCE)
        misses = engine.stats.misses
        second = engine.forward(images)
        assert engine.stats.hits >= 1 and engine.stats.misses == misses
        np.testing.assert_array_equal(first, second)

    def test_cache_keys_include_parameter_digest(self):
        """Perturbing the model can never yield stale cached results."""
        model = small_mlp(rng=6)
        images = _pool(model, 4, seed=19)
        engine = Engine(model)
        before = engine.output_gradients(images).copy()
        model.parameter_view().add_scalar(0, 0.5)
        after = engine.output_gradients(images)
        assert not np.array_equal(before, after)
        singles = np.stack(
            [model.output_gradients(images[i]) for i in range(len(images))]
        )
        assert np.abs(after - singles).max() <= TOLERANCE

    @pytest.mark.parametrize("bit", range(64))
    def test_memo_sees_every_bit_of_a_weight(self, bit):
        """A flip of any one bit of one last-layer weight, in place, is a
        memo miss: bits 0-13 are below the rounded parameter digest's 12
        decimals, so a memo keyed on it would return the pre-flip logits."""
        model = mnist_cnn(width_multiplier=0.125, input_size=12, rng=0)
        images = _pool(model, 32, seed=40)
        engine = Engine(model)
        before = engine.forward(images)
        last = [layer for layer in model.layers if isinstance(layer, Dense)][-1]
        last.weight.value.reshape(-1).view(np.uint64)[0] ^= np.uint64(1) << np.uint64(bit)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = model.forward(images)
            after = engine.forward(images)
        assert expected.tobytes() != before.tobytes()  # the flip is visible
        assert after.tobytes() == expected.tobytes()

    def test_cache_disabled_records_no_stats(self):
        model = small_mlp(rng=7)
        images = _pool(model, 3, seed=20)
        engine = Engine(model, cache=False)
        engine.forward(images)
        engine.forward(images)
        assert engine.stats.requests == 0

    def test_invalidate_clears_entries(self):
        model = small_mlp(rng=8)
        images = _pool(model, 3, seed=21)
        engine = Engine(model)
        engine.forward(images)
        engine.invalidate()
        misses = engine.stats.misses
        engine.forward(images)
        assert engine.stats.misses == misses + 1

    def test_batch_validation(self):
        model = small_cnn(rng=9)
        engine = Engine(model)
        with pytest.raises(ValueError):
            engine.forward(np.zeros((0, *model.input_shape)))
        with pytest.raises(ValueError):
            engine.forward(np.zeros((2, 3, 5)))
        with pytest.raises(ValueError):
            engine.output_gradients(_pool(model, 2, seed=0), "median")
        with pytest.raises(ValueError):
            Engine(model, batch_size=0)

    def test_single_sample_promoted_to_batch(self):
        model = small_cnn(rng=10)
        images = _pool(model, 2, seed=22)
        engine = Engine(model)
        masks = engine.activation_masks(images[0])
        assert masks.shape == (1, model.num_parameters())

    def test_engine_bound_to_other_model_rejected(self):
        a, b = small_mlp(rng=11), small_mlp(rng=12)
        engine = Engine(a)
        with pytest.raises(ValueError):
            activation_masks(b, _pool(b, 2, seed=23), engine=engine)

    def test_criterion_override(self):
        model = small_cnn(activation="tanh", rng=13)
        images = _pool(model, 4, seed=24)
        engine = Engine(model)
        loose = engine.activation_masks(images, ActivationCriterion(epsilon=1e-8))
        tight = engine.activation_masks(images, ActivationCriterion(epsilon=1e-1))
        assert loose.sum() >= tight.sum()
        # repeating a criterion is served from its memoized mask matrix
        hits = engine.stats.hits
        again = engine.activation_masks(images, ActivationCriterion(epsilon=1e-1))
        assert engine.stats.hits == hits + 1
        np.testing.assert_array_equal(again, tight)

    def test_masks_rethreshold_memoized_gradient_matrix(self):
        """An explicitly computed gradient matrix is reused by mask queries."""
        model = small_cnn(activation="tanh", rng=16)
        images = _pool(model, 4, seed=28)
        engine = Engine(model)
        grads = engine.output_gradients(images)
        hits = engine.stats.hits
        masks = engine.activation_masks(images, ActivationCriterion(epsilon=1e-3))
        assert engine.stats.hits == hits + 1  # served from the gradient entry
        np.testing.assert_array_equal(masks, np.abs(np.asarray(grads)) > 1e-3)

    def test_max_and_predicted_share_one_cache_entry(self):
        model = small_cnn(rng=15)
        images = _pool(model, 4, seed=27)
        engine = Engine(model)
        g_max = engine.output_gradients(images, "max")
        hits = engine.stats.hits
        g_pred = engine.output_gradients(images, "predicted")
        assert engine.stats.hits == hits + 1  # served from the same entry
        np.testing.assert_array_equal(g_max, g_pred)


class TestBackendsAndCache:
    def test_unknown_backend_rejected(self):
        # there is no backend choice: the option itself is rejected
        model = small_mlp(rng=14)
        with pytest.raises(TypeError, match="backend"):
            Engine(model, backend="tpu")

    def test_forward_chunks_by_batch_size(self, monkeypatch):
        model = small_mlp(rng=14)
        images = _pool(model, 5, seed=25)
        expected = model.forward(images)
        calls = []
        forward = model.forward

        def counting_forward(x, training=False, tape=None):
            calls.append((x.shape[0], tape))
            return forward(x, training=training, tape=tape)

        monkeypatch.setattr(model, "forward", counting_forward)
        logits = Engine(model, batch_size=2).forward(images)
        assert [rows for rows, _ in calls] == [2, 2, 1]
        assert all(tape is None for _, tape in calls)  # inference records nothing
        np.testing.assert_allclose(logits, expected, atol=TOLERANCE)

    def test_cache_stats_merge_semantics(self):
        a = CacheStats(hits=2, misses=1, evictions=0)
        b = CacheStats(hits=3, misses=4, evictions=5)
        merged = a + b
        assert (merged.hits, merged.misses, merged.evictions) == (5, 5, 5)
        # inputs untouched
        assert (a.hits, b.hits) == (2, 3)
        assert a.merge(b, b).hits == 8

    def test_array_fingerprint_semantics(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        assert array_fingerprint(a) != array_fingerprint(a.reshape(4, 3))
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.float32))
        b = a.copy()
        b[0, 0] += 1.0
        assert array_fingerprint(a) != array_fingerprint(b)

    def test_lru_eviction_and_stats(self):
        cache = BatchResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert 0.0 < cache.stats.hit_rate < 1.0
        with pytest.raises(ValueError):
            BatchResultCache(max_entries=0)
        with pytest.raises(ValueError):
            BatchResultCache(max_bytes=0)

    def test_byte_budget_evicts_large_arrays(self):
        one_kb = np.zeros(128, dtype=np.float64)  # 1024 bytes
        cache = BatchResultCache(max_entries=100, max_bytes=2048)
        cache.put("a", one_kb)
        cache.put("b", one_kb)
        assert cache.nbytes == 2048
        cache.put("c", one_kb)  # exceeds the byte budget -> evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") is not None and cache.get("c") is not None
        assert cache.nbytes == 2048
        # a value bigger than the whole budget is never cached
        cache.put("huge", np.zeros(1024, dtype=np.float64))
        assert cache.get("huge") is None
        # replacing a key does not double-count its bytes
        cache.put("b", one_kb)
        assert cache.nbytes == 2048
