"""Integration tests for the packed coverage-map refactor.

The acceptance bar of the refactor: packed greedy selection must pick
*byte-identical* test sequences (indices, gains, coverage histories) to the
dense implementation — same argmax tie-breaking — on both Table-I
architectures, across memoizing and memo-free engines, and the packed
representation must
occupy ≤ 1/8 of the dense mask bytes.  Also covers the satellite fixes:
recorded dataset indices (duplicate-safe provenance), explicit availability
instead of the ``-1.0`` gain sentinel, and validation-package format v2 with
backward-compatible loading.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.coverage import (
    ActivationCriterion,
    CoverageMap,
    CoverageTracker,
    MaskMatrix,
    MmapMaskMatrix,
    MmapMaskWriter,
    NeuronCoverage,
    ParameterCoverage,
    count_neurons,
    neuron_activation_masks,
    pack_bool,
    packed_activation_masks,
)
from repro.coverage.bitmap import MMAP_HEADER_BYTES, MMAP_MAGIC, num_words
from repro.coverage.activation import default_criterion_for
from repro.data.datasets import Dataset
from repro.engine import Engine
from repro.engine.cache import exact_model_key
from repro.models.zoo import cifar_cnn, mnist_cnn
from repro.nn.layers import Conv2D
from repro.nn.serialization import parameter_digest
from repro.testgen.base import GenerationResult
from repro.testgen.selection import NeuronCoverageSelector, TrainingSetSelector
from repro.validation.package import FORMAT_VERSION, ValidationPackage
from repro.validation.vendor import IPVendor


# -- Table-I architectures (width-scaled so tests stay fast) -----------------


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
    return rng.random((16, *mnist_model.input_shape))


@pytest.fixture(scope="module")
def cifar_pool(cifar_model):
    rng = np.random.default_rng(2)
    return rng.random((16, *cifar_model.input_shape))


def dense_reference_greedy(masks: np.ndarray, budget: int):
    """The pre-refactor dense greedy loop, kept verbatim as ground truth.

    Dense boolean matrix, ``-1.0`` sentinel for unavailable candidates,
    ``np.argmax`` over float gains — exactly what ``TrainingSetSelector``
    did before masks were packed.
    """
    total = masks.shape[1]
    covered = np.zeros(total, dtype=bool)
    available = np.ones(masks.shape[0], dtype=bool)
    order, gains, history = [], [], []
    for _ in range(min(budget, masks.shape[0])):
        new_bits = (masks & ~covered[None, :]).sum(axis=1)
        pool_gains = new_bits / total
        pool_gains[~available] = -1.0
        best = int(np.argmax(pool_gains))
        covered |= masks[best]
        available[best] = False
        order.append(best)
        gains.append(new_bits[best] / total)
        history.append(covered.sum() / total)
    return order, gains, history


class TestPackedGreedyEquivalence:
    """Packed selection == dense reference, on both Table-I architectures."""

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_selection_identical_to_dense_reference(self, arch, request):
        model = request.getfixturevalue(f"{arch}_model")
        pool = request.getfixturevalue(f"{arch}_pool")
        dataset = Dataset(images=pool, labels=np.zeros(len(pool), dtype=np.int64))

        selector = TrainingSetSelector(model, dataset, rng=0)
        result = selector.generate(num_tests=len(pool))

        dense_masks = selector.masks.dense()  # materialised for the oracle
        order, gains, history = dense_reference_greedy(dense_masks, len(pool))

        np.testing.assert_array_equal(result.dataset_indices, order)
        np.testing.assert_array_equal(result.tests, pool[order])
        assert result.gains == gains
        assert result.coverage_history == history

    @pytest.mark.parametrize("arch", ["mnist", "cifar"])
    def test_packed_masks_bitwise_equal_dense(self, arch, request):
        model = request.getfixturevalue(f"{arch}_model")
        pool = request.getfixturevalue(f"{arch}_pool")
        engine = Engine(model)
        dense = engine.activation_masks(pool)
        packed = engine.packed_activation_masks(pool)
        np.testing.assert_array_equal(packed.dense(), dense)
        # the memory bar: packed ≤ 1/8 of the dense mask bytes, up to the
        # word-granularity padding (< 8 bytes per row)
        assert packed.nbytes <= packed.dense_nbytes // 8 + 8 * len(packed)
        assert packed.nbytes < packed.dense_nbytes / 7.9

    def test_duplicated_masks_tie_break_identical(self, mnist_model):
        # a pool of duplicated images produces identical masks — gains tie
        # on every iteration, and packed must break ties exactly like dense
        rng = np.random.default_rng(3)
        base = rng.random((4, *mnist_model.input_shape))
        pool = np.concatenate([base, base[::-1]], axis=0)  # every mask twice
        dataset = Dataset(images=pool, labels=np.zeros(8, dtype=np.int64))

        selector = TrainingSetSelector(mnist_model, dataset, rng=0)
        result = selector.generate(num_tests=8)
        dense_masks = selector.masks.dense()
        order, _gains, _history = dense_reference_greedy(dense_masks, 8)
        np.testing.assert_array_equal(result.dataset_indices, order)


class TestBackendDeterminism:
    """Selection order and masks identical across engines (memoizing and
    memo-free) × representations."""

    def test_selection_order_matches_across_backends(self, mnist_model, mnist_pool):
        dataset = Dataset(
            images=mnist_pool, labels=np.zeros(len(mnist_pool), dtype=np.int64)
        )
        single = TrainingSetSelector(
            mnist_model, dataset, rng=0, engine=Engine(mnist_model)
        ).generate(num_tests=6)

        unmemoized = TrainingSetSelector(
            mnist_model,
            dataset,
            rng=0,
            engine=Engine(mnist_model, cache=False),
        ).generate(num_tests=6)

        np.testing.assert_array_equal(single.dataset_indices, unmemoized.dataset_indices)
        assert single.gains == unmemoized.gains
        assert single.coverage_history == unmemoized.coverage_history

    def test_packed_masks_identical_across_backends(self, mnist_model, mnist_pool):
        unmemoized = Engine(mnist_model, cache=False).packed_activation_masks(mnist_pool)
        ref = Engine(mnist_model).packed_activation_masks(mnist_pool)
        assert unmemoized == ref

    def test_packed_neuron_masks_match_dense_and_backends(
        self, mnist_model, mnist_pool
    ):
        dense = neuron_activation_masks(mnist_model, mnist_pool)
        packed = Engine(mnist_model).packed_neuron_masks(mnist_pool)
        np.testing.assert_array_equal(packed.dense(), dense)
        unmemoized = Engine(mnist_model, cache=False).packed_neuron_masks(mnist_pool)
        assert unmemoized == packed


class TestMemoryBudget:
    def test_budgeted_construction_equals_unbudgeted(self, mnist_model, mnist_pool):
        engine = Engine(mnist_model, cache=False)
        full = engine.packed_activation_masks(mnist_pool)
        # a budget of one row's gradients forces single-sample chunks
        tiny = engine.packed_activation_masks(
            mnist_pool, memory_budget_bytes=mnist_model.num_parameters() * 8
        )
        assert tiny == full

    def test_neuron_budget_equals_unbudgeted(self, mnist_model, mnist_pool):
        engine = Engine(mnist_model, cache=False)
        full = engine.packed_neuron_masks(mnist_pool)
        # one sample's activation volume forces single-sample chunks
        tiny = engine.packed_neuron_masks(mnist_pool, memory_budget_bytes=1)
        assert tiny == full

    def test_cached_gradient_reuse_honours_budget(self, mnist_model, mnist_pool):
        engine = Engine(mnist_model)
        grads = engine.output_gradients(mnist_pool)  # memoized dense grads
        assert grads is not None
        budgeted = engine.packed_activation_masks(
            mnist_pool, memory_budget_bytes=mnist_model.num_parameters() * 8
        )
        reference = Engine(mnist_model, cache=False).packed_activation_masks(
            mnist_pool
        )
        assert budgeted == reference

    def test_budget_must_be_positive(self, mnist_model, mnist_pool):
        with pytest.raises(ValueError):
            Engine(mnist_model).packed_activation_masks(
                mnist_pool, memory_budget_bytes=0
            )

    def test_cache_accepts_budget(self, mnist_model, mnist_pool):
        # the selector's pool masks are chunked by its engine's budget
        dataset = Dataset(
            images=mnist_pool, labels=np.zeros(len(mnist_pool), dtype=np.int64)
        )
        engine = Engine(mnist_model, memory_budget_bytes=10_000_000)
        masks = TrainingSetSelector(mnist_model, dataset, engine=engine).masks
        assert len(masks) == len(mnist_pool)
        assert masks.nbytes < masks.dense_nbytes / 7.9


class BandCriterion(ActivationCriterion):
    """A criterion with its own rule: only gradients inside a magnitude band
    count as activated."""

    def activated(self, gradients):
        magnitudes = np.abs(np.asarray(gradients))
        return (magnitudes > self.epsilon) & (magnitudes < 1e-2)


class TestPackedMaskQueries:
    """One chunk path serves every criterion, and every spill store is keyed
    on the model's exact parameters."""

    @pytest.mark.parametrize("spill", [False, True], ids=["ram", "spill"])
    def test_custom_criterion_packs_its_own_rule(
        self, mnist_model, mnist_pool, tmp_path, spill
    ):
        crit = BandCriterion(epsilon=1e-6)
        grads = Engine(mnist_model, cache=False).output_gradients(mnist_pool)
        expected = pack_bool(crit.activated(grads))
        plain = pack_bool(ActivationCriterion(epsilon=1e-6).activated(grads))
        assert not np.array_equal(expected, plain)  # the rules differ here
        engine = Engine(mnist_model, spill_dir=tmp_path if spill else None)
        # a plain criterion with the same epsilon answers first: its memo
        # entry or store must not serve the custom rule
        engine.packed_activation_masks(mnist_pool, ActivationCriterion(epsilon=1e-6))
        packed = engine.packed_activation_masks(mnist_pool, crit)
        assert isinstance(packed, MmapMaskMatrix) == spill
        assert np.array_equal(np.asarray(packed.words, dtype=np.uint64), expected)

    def test_low_bit_flip_gets_its_own_spill_store(
        self, mnist_model, mnist_pool, tmp_path
    ):
        flipped = mnist_model.copy()
        conv1 = next(layer for layer in flipped.layers if isinstance(layer, Conv2D))
        conv1.weight.value.reshape(-1).view(np.uint64)[0] ^= np.uint64(1)
        # the rounded digest cannot see the flip; the exact key can
        assert parameter_digest(flipped) == parameter_digest(mnist_model)
        assert exact_model_key(flipped) != exact_model_key(mnist_model)
        assert exact_model_key(mnist_model.copy()) == exact_model_key(mnist_model)
        first = Engine(mnist_model, cache=False).packed_activation_masks(
            mnist_pool, spill_dir=tmp_path
        )
        second = Engine(flipped, cache=False).packed_activation_masks(
            mnist_pool, spill_dir=tmp_path
        )
        assert second.path != first.path
        reference = Engine(flipped, cache=False).packed_activation_masks(mnist_pool)
        assert np.array_equal(np.asarray(second.words, dtype=np.uint64), reference.words)


def windowed_greedy(masks, budget):
    """Generic greedy loop over any MaskMatrix (dense or mmap)."""
    covered = CoverageMap(masks.nbits)
    available = np.ones(len(masks), dtype=bool)
    order = []
    for _ in range(min(budget, len(masks))):
        best, _gain = masks.best_candidate(covered, available)
        covered.union_(masks.row(best))
        available[best] = False
        order.append(best)
    return order, covered


class TestMmapMaskStore:
    """Disk-spilled packed masks: byte-identical selection under a budget.

    The acceptance bar of the mmap satellite: a 4× candidate pool spilled to
    disk and streamed through windows bounded by **half** the packed bytes
    must pick byte-identical greedy selections to the dense in-RAM matrix.
    """

    @pytest.fixture(scope="class")
    def big_pool(self, mnist_model):
        # 4× the standard 16-sample pool of these tests
        rng = np.random.default_rng(7)
        return rng.random((64, *mnist_model.input_shape))

    @pytest.fixture(scope="class")
    def dense_masks(self, mnist_model, big_pool):
        return Engine(mnist_model, cache=False).packed_activation_masks(big_pool)

    def test_spilled_selection_byte_identical_under_half_budget(
        self, mnist_model, big_pool, dense_masks, tmp_path_factory
    ):
        spill = tmp_path_factory.mktemp("spill")
        budget = max(1, int(dense_masks.nbytes) // 2)
        # for this width-scaled model half the packed bytes is below even one
        # float64 gradient row, so the build also warns about chunk overshoot
        with pytest.warns(RuntimeWarning, match="smaller than one sample"):
            spilled = Engine(mnist_model, cache=False).packed_activation_masks(
                big_pool, spill_dir=spill, memory_budget_bytes=budget
            )
        assert isinstance(spilled, MmapMaskMatrix)
        assert spilled.memory_budget_bytes == budget
        # the window is a strict subset of the pool: streaming is exercised
        assert spilled._window_rows() < len(spilled)
        # the on-disk words are byte-identical to the in-RAM packing
        assert np.array_equal(
            np.asarray(spilled.words, dtype=np.uint64), dense_masks.words
        )
        dense_order, dense_covered = windowed_greedy(dense_masks, 16)
        mmap_order, mmap_covered = windowed_greedy(spilled, 16)
        assert mmap_order == dense_order
        assert np.array_equal(mmap_covered.words, dense_covered.words)

    def test_streamed_primitives_match_dense(self, dense_masks, tmp_path):
        path = tmp_path / "store.masks"
        with MmapMaskWriter(path, dense_masks.nbits) as writer:
            writer.append(dense_masks.words)
            # one row per window: maximum number of partial windows
            store = writer.close(
                memory_budget_bytes=num_words(dense_masks.nbits) * 8
            )
        assert store._window_rows() == 1
        np.testing.assert_array_equal(store.counts(), dense_masks.counts())
        assert np.array_equal(store.union().words, dense_masks.union().words)
        covered = dense_masks.row(3)
        np.testing.assert_array_equal(
            store.marginal_counts(covered), dense_masks.marginal_counts(covered)
        )

    def test_window_not_dividing_rows(self, dense_masks, tmp_path):
        # 64 rows streamed in windows of 3: the final window is partial
        path = tmp_path / "ragged.masks"
        with MmapMaskWriter(path, dense_masks.nbits) as writer:
            writer.append(dense_masks.words)
            store = writer.close(
                memory_budget_bytes=3 * num_words(dense_masks.nbits) * 8
            )
        assert store._window_rows() == 3 and len(store) % 3 != 0
        np.testing.assert_array_equal(store.counts(), dense_masks.counts())
        assert np.array_equal(store.union().words, dense_masks.union().words)

    def test_sub_row_budget_warns_and_still_matches(
        self, mnist_model, mnist_pool, tmp_path
    ):
        # a budget below one gradient row cannot be honoured: the engine
        # warns and chunks one sample at a time instead of failing
        reference = Engine(mnist_model, cache=False).packed_activation_masks(
            mnist_pool
        )
        with pytest.warns(RuntimeWarning, match="smaller than one sample"):
            spilled = Engine(mnist_model, cache=False).packed_activation_masks(
                mnist_pool, spill_dir=tmp_path, memory_budget_bytes=8
            )
        assert spilled._window_rows() == 1
        assert np.array_equal(
            np.asarray(spilled.words, dtype=np.uint64), reference.words
        )

    def test_spill_store_reused_across_queries(self, mnist_model, mnist_pool, tmp_path):
        engine = Engine(mnist_model, cache=False)
        first = engine.packed_activation_masks(mnist_pool, spill_dir=tmp_path)
        stat = first.path.stat()
        again = engine.packed_activation_masks(mnist_pool, spill_dir=tmp_path)
        # the second query maps the existing file instead of rebuilding it
        # (same inode), but touches its mtime — the last-use marker that
        # `campaign gc-spill` uses to keep live stores
        assert again.path == first.path
        assert again.path.stat().st_ino == stat.st_ino
        assert again.path.stat().st_mtime_ns >= stat.st_mtime_ns
        assert again == first

    def test_mismatched_store_rebuilt(self, mnist_model, mnist_pool, tmp_path):
        engine = Engine(mnist_model, cache=False)
        first = engine.packed_activation_masks(mnist_pool, spill_dir=tmp_path)
        # overwrite with a valid store of the wrong shape: must be rebuilt
        with MmapMaskWriter(first.path, first.nbits) as writer:
            writer.append(np.asarray(first.words[:2], dtype=np.uint64))
            writer.close()
        rebuilt = engine.packed_activation_masks(mnist_pool, spill_dir=tmp_path)
        assert len(rebuilt) == len(mnist_pool)
        assert rebuilt == first

    def test_spilled_neuron_masks_match(self, mnist_model, mnist_pool, tmp_path):
        reference = Engine(mnist_model, cache=False).packed_neuron_masks(mnist_pool)
        spilled = Engine(mnist_model, cache=False).packed_neuron_masks(
            mnist_pool, spill_dir=tmp_path
        )
        assert isinstance(spilled, MmapMaskMatrix)
        assert np.array_equal(
            np.asarray(spilled.words, dtype=np.uint64), reference.words
        )

    # -- corrupt stores --------------------------------------------------------
    def test_open_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.masks"
        path.write_bytes(b"NOTAMASK" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic"):
            MmapMaskMatrix.open(path)

    def test_open_rejects_short_header(self, tmp_path):
        path = tmp_path / "short.masks"
        path.write_bytes(MMAP_MAGIC)
        with pytest.raises(ValueError, match="torn"):
            MmapMaskMatrix.open(path)

    def test_open_rejects_truncated_rows(self, dense_masks, tmp_path):
        path = tmp_path / "torn.masks"
        with MmapMaskWriter(path, dense_masks.nbits) as writer:
            writer.append(dense_masks.words)
            writer.close()
        full = path.read_bytes()
        path.write_bytes(full[:-8])  # tear one word off the final row
        with pytest.raises(ValueError, match="torn"):
            MmapMaskMatrix.open(path)
        # a row-count/payload mismatch in the other direction is also torn
        path.write_bytes(full + b"\x00" * 8)
        with pytest.raises(ValueError, match="torn"):
            MmapMaskMatrix.open(path)

    def test_interrupted_writer_leaves_no_store(self, dense_masks, tmp_path):
        path = tmp_path / "crash.masks"
        with pytest.raises(RuntimeError):
            with MmapMaskWriter(path, dense_masks.nbits) as writer:
                writer.append(dense_masks.words[:4])
                raise RuntimeError("interrupted mid-build")
        # the atomic-rename protocol: neither the store nor the temp survive
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_writer_validates_chunks(self, tmp_path):
        writer = MmapMaskWriter(tmp_path / "w.masks", nbits=70)
        with pytest.raises(ValueError, match="shape"):
            writer.append(np.zeros((2, 3), dtype=np.uint64))  # needs 2 words
        writer.abort()
        with pytest.raises(ValueError, match="closed"):
            writer.append(np.zeros((1, 2), dtype=np.uint64))

    def test_header_is_little_endian(self, tmp_path):
        with MmapMaskWriter(tmp_path / "le.masks", nbits=70) as writer:
            writer.append(np.ones((3, 2), dtype=np.uint64))
            store = writer.close()
        raw = store.path.read_bytes()
        assert raw[: len(MMAP_MAGIC)] == MMAP_MAGIC
        header = np.frombuffer(raw[:MMAP_HEADER_BYTES], dtype="<u8", offset=8)
        assert header.tolist() == [70, 3]
        assert raw[MMAP_HEADER_BYTES:] == np.ones((3, 2), dtype="<u8").tobytes()

    def test_budget_must_be_positive(self, tmp_path):
        with MmapMaskWriter(tmp_path / "b.masks", nbits=8) as writer:
            writer.append(np.ones((1, 1), dtype=np.uint64))
            store = writer.close()
        with pytest.raises(ValueError, match="positive"):
            MmapMaskMatrix.open(store.path, memory_budget_bytes=0)


class TestAvailabilitySemantics:
    """Satellite: explicit availability instead of the -1.0 gain sentinel."""

    @pytest.fixture(scope="class")
    def cache(self, mnist_model, mnist_pool):
        return ParameterCoverage().mask_matrix(mnist_model, mnist_pool)

    def test_all_covered_pool_reports_zero_not_sentinel(self, cache, mnist_model):
        everything = CoverageMap.from_dense(
            np.ones(mnist_model.num_parameters(), dtype=bool)
        )
        counts = cache.marginal_counts(everything)
        np.testing.assert_array_equal(counts, np.zeros(len(cache)))

    def test_unavailable_candidates_are_passed_over(self, cache, mnist_model):
        # availability is an argument, not a value mixed into the gains: the
        # candidates with the largest gains are passed over once unavailable
        nothing = CoverageMap(mnist_model.num_parameters())
        counts = cache.marginal_counts(nothing)
        available = counts < counts.max()
        best, count = cache.best_candidate(nothing, available)
        assert available[best]
        assert count == counts[available].max()

    def test_best_candidate_skips_unavailable_on_zero_gains(
        self, cache, mnist_model
    ):
        everything = CoverageMap.from_dense(
            np.ones(mnist_model.num_parameters(), dtype=bool)
        )
        available = np.zeros(len(cache), dtype=bool)
        available[5] = True
        best, count = cache.best_candidate(everything, available)
        assert best == 5 and count == 0

    def test_best_candidate_exhausted_pool_raises(self, cache, mnist_model):
        with pytest.raises(ValueError, match="no candidates available"):
            cache.best_candidate(
                CoverageMap(mnist_model.num_parameters()),
                np.zeros(len(cache), dtype=bool),
            )

    def test_neuron_cache_mirrors_semantics(self, mnist_model, mnist_pool):
        masks = NeuronCoverage().mask_matrix(mnist_model, mnist_pool[:6])
        everything = CoverageMap.from_dense(
            np.ones(count_neurons(mnist_model), dtype=bool)
        )
        available = np.array([False, True, True, False, True, True])
        best, count = masks.best_candidate(everything, available)
        assert best == 1 and count == 0


class TestDatasetIndexRecording:
    """Satellite: provenance recorded at selection time, duplicate-safe."""

    def test_duplicate_training_images_resolve_distinctly(self, mnist_model):
        rng = np.random.default_rng(4)
        base = rng.random((5, *mnist_model.input_shape))
        images = np.concatenate([base, base[2:3]], axis=0)  # index 5 == index 2
        dataset = Dataset(images=images, labels=np.zeros(6, dtype=np.int64))

        selector = TrainingSetSelector(mnist_model, dataset, rng=0)
        result = selector.generate(num_tests=6)
        recorded = selector.selected_dataset_indices(result)

        # every pool index selected exactly once — the duplicate pair appears
        # as {2, 5}, which the removed pixel rematch could never produce
        assert sorted(recorded.tolist()) == [0, 1, 2, 3, 4, 5]

        # index-less legacy results are rejected outright: the ambiguous
        # pixel-equality rematch fallback was removed
        legacy = GenerationResult(
            tests=result.tests,
            coverage_history=list(result.coverage_history),
            gains=list(result.gains),
            sources=list(result.sources),
            method=result.method,
        )
        with pytest.raises(ValueError, match="no recorded dataset_indices"):
            selector.selected_dataset_indices(legacy)

    def test_round_trip_with_candidate_pool(self, mnist_model, mnist_pool):
        dataset = Dataset(
            images=mnist_pool, labels=np.zeros(len(mnist_pool), dtype=np.int64)
        )
        selector = TrainingSetSelector(mnist_model, dataset, candidate_pool=10, rng=0)
        result = selector.generate(num_tests=4)
        indices = selector.selected_dataset_indices(result)
        np.testing.assert_array_equal(dataset.images[indices], result.tests)

    def test_neuron_selector_records_indices(self, mnist_model, mnist_pool):
        dataset = Dataset(
            images=mnist_pool, labels=np.zeros(len(mnist_pool), dtype=np.int64)
        )
        result = NeuronCoverageSelector(mnist_model, dataset, rng=0).generate(4)
        assert result.dataset_indices is not None
        np.testing.assert_array_equal(
            dataset.images[result.dataset_indices], result.tests
        )

    def test_truncated_slices_indices(self, mnist_model, mnist_pool):
        dataset = Dataset(
            images=mnist_pool, labels=np.zeros(len(mnist_pool), dtype=np.int64)
        )
        result = TrainingSetSelector(mnist_model, dataset, rng=0).generate(5)
        truncated = result.truncated(2)
        np.testing.assert_array_equal(
            truncated.dataset_indices, result.dataset_indices[:2]
        )


class TestCoverageCriterionProtocol:
    """The pluggable criterion → MaskMatrix protocol."""

    def test_parameter_criterion(self, mnist_model, mnist_pool):
        crit = ParameterCoverage()
        assert crit.num_bits(mnist_model) == mnist_model.num_parameters()
        matrix = crit.mask_matrix(mnist_model, mnist_pool)
        assert isinstance(matrix, MaskMatrix)
        assert matrix.shape == (len(mnist_pool), mnist_model.num_parameters())
        expected = packed_activation_masks(
            mnist_model, mnist_pool, default_criterion_for(mnist_model)
        )
        assert matrix == expected
        tracker = crit.tracker(mnist_model)
        assert isinstance(tracker, CoverageTracker)

    def test_neuron_criterion(self, mnist_model, mnist_pool):
        crit = NeuronCoverage(threshold=0.1)
        assert crit.num_bits(mnist_model) == count_neurons(mnist_model)
        matrix = crit.mask_matrix(mnist_model, mnist_pool)
        np.testing.assert_array_equal(
            matrix.dense(), neuron_activation_masks(mnist_model, mnist_pool, 0.1)
        )
        assert crit.tracker(mnist_model).threshold == 0.1

    def test_greedy_runs_on_any_criterion(self, mnist_model, mnist_pool):
        # the generic loop: criterion → matrix → tracker, no metric-specific code
        for crit in (ParameterCoverage(), NeuronCoverage()):
            matrix = crit.mask_matrix(mnist_model, mnist_pool[:6])
            tracker = crit.tracker(mnist_model)
            available = np.ones(len(matrix), dtype=bool)
            for _ in range(3):
                best, _ = matrix.best_candidate(tracker.covered_map, available)
                tracker.add_mask(matrix.row(best))
                available[best] = False
            assert tracker.num_tests == 3
            assert 0.0 < tracker.coverage <= 1.0


class TestValidationPackageV2:
    """Packed masks in the release package, with v1-compatible loading."""

    @pytest.fixture(scope="class")
    def package(self, mnist_model, mnist_pool):
        vendor = IPVendor(mnist_model)
        return vendor.build_package(mnist_pool[:5])

    def test_build_attaches_packed_masks(self, package, mnist_model):
        assert package.coverage_masks is not None
        assert len(package.coverage_masks) == 5
        assert package.coverage_masks.nbits == mnist_model.num_parameters()
        assert package.coverage_fraction() == pytest.approx(
            package.metadata["validation_coverage"]
        )

    def test_masks_match_direct_computation(self, package, mnist_model):
        expected = packed_activation_masks(mnist_model, package.tests)
        assert package.coverage_masks == expected

    def test_save_load_round_trip(self, package, tmp_path):
        path = package.save(tmp_path / "pkg.npz")
        loaded = ValidationPackage.load(path)
        assert loaded.coverage_masks == package.coverage_masks
        np.testing.assert_array_equal(loaded.tests, package.tests)
        assert loaded.coverage_fraction() == pytest.approx(
            package.coverage_fraction()
        )

    def test_subset_slices_masks(self, package):
        subset = package.subset(2)
        assert len(subset.coverage_masks) == 2
        assert subset.coverage_masks.words.shape[0] == 2
        np.testing.assert_array_equal(
            subset.coverage_masks.dense(), package.coverage_masks.dense()[:2]
        )

    def test_opt_out(self, mnist_model, mnist_pool):
        pkg = IPVendor(mnist_model).build_package(
            mnist_pool[:3], include_coverage_masks=False
        )
        assert pkg.coverage_masks is None
        assert pkg.coverage_fraction() is None

    def _write_v1(self, path, package, extra_arrays=None):
        """Write the pre-format-version on-disk layout (no ``format`` key).

        v1 digests covered tests + outputs only — never masks.
        """
        from repro.validation.package import _digest_arrays

        meta = {
            "output_atol": package.output_atol,
            "digest": _digest_arrays(package.tests, package.expected_outputs),
            "metadata": package.metadata,
        }
        arrays = {
            "tests": package.tests,
            "expected_outputs": package.expected_outputs,
            "expected_labels": package.expected_labels,
            "__meta__": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        }
        arrays.update(extra_arrays or {})
        np.savez(path, **arrays)

    def test_loads_v1_package_without_masks(self, package, tmp_path):
        path = tmp_path / "v1.npz"
        self._write_v1(path, package)
        loaded = ValidationPackage.load(path)  # digest verified by default
        assert loaded.coverage_masks is None
        np.testing.assert_array_equal(loaded.tests, package.tests)

    def test_loads_v1_package_with_legacy_dense_masks(self, package, tmp_path):
        path = tmp_path / "v1_dense.npz"
        dense = package.coverage_masks.dense()
        self._write_v1(path, package, {"coverage_masks": dense})
        loaded = ValidationPackage.load(path)
        assert loaded.coverage_masks == package.coverage_masks

    def test_tampered_masks_fail_integrity_check(self, package, tmp_path):
        # the v2 digest spans the packed masks: rewriting the coverage
        # record in transit must not pass verification
        path = package.save(tmp_path / "tampered.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        words = arrays["coverage_words"].copy()
        words[0, 0] ^= np.uint64(1)
        arrays["coverage_words"] = words
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="integrity"):
            ValidationPackage.load(path)
        assert ValidationPackage.load(path, verify_digest=False) is not None

    def test_rejects_future_format(self, package, tmp_path):
        path = package.save(tmp_path / "future.npz")
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta["format"] = FORMAT_VERSION + 1
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="format"):
            ValidationPackage.load(path)

    def test_mask_row_count_validated(self, package):
        with pytest.raises(ValueError, match="coverage_masks"):
            ValidationPackage(
                tests=package.tests,
                expected_outputs=package.expected_outputs,
                coverage_masks=package.coverage_masks.take([0, 1]),
            )
