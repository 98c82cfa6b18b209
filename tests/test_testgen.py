"""Tests for the test-generation algorithms: greedy selection (Algorithm 1),
gradient-based synthesis (Algorithm 2), the combined method and baselines."""

import math

import numpy as np
import pytest

from repro.coverage import CoverageTracker, set_validation_coverage
from repro.engine import Engine
from repro.testgen import (
    CombinedGenerator,
    GenerationResult,
    GradientTestGenerator,
    NeuronCoverageSelector,
    RandomSelector,
    TrainingSetSelector,
    build_generator,
    stack_samples,
)


class TestGenerationResult:
    def test_validates_history_lengths(self):
        with pytest.raises(ValueError):
            GenerationResult(
                tests=np.zeros((3, 1, 4, 4)), coverage_history=[0.1, 0.2]
            )

    def test_truncated(self):
        result = GenerationResult(
            tests=np.zeros((4, 2)),
            coverage_history=[0.1, 0.2, 0.3, 0.4],
            gains=[0.1, 0.1, 0.1, 0.1],
            sources=["training"] * 4,
            method="x",
        )
        cut = result.truncated(2)
        assert cut.num_tests == 2
        assert cut.final_coverage == 0.2
        with pytest.raises(ValueError):
            result.truncated(9)

    def test_switch_index(self):
        result = GenerationResult(
            tests=np.zeros((3, 2)),
            coverage_history=[0.1, 0.2, 0.3],
            gains=[0.1, 0.1, 0.1],
            sources=["training", "training", "gradient"],
        )
        assert result.switch_index() == 2
        all_training = GenerationResult(
            tests=np.zeros((2, 2)),
            coverage_history=[0.1, 0.2],
            gains=[0.1, 0.1],
            sources=["training", "training"],
        )
        assert all_training.switch_index() is None

    def test_final_coverage_requires_history(self):
        with pytest.raises(ValueError):
            GenerationResult(tests=np.zeros((1, 2))).final_coverage

    def test_stack_samples(self):
        out = stack_samples([np.zeros((1, 2, 2)), np.ones((1, 2, 2))])
        assert out.shape == (2, 1, 2, 2)
        with pytest.raises(ValueError):
            stack_samples([])


class TestTrainingSetSelector:
    def test_coverage_history_is_monotone(self, trained_cnn, digit_dataset):
        selector = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=30, rng=0)
        result = selector.generate(8)
        assert result.num_tests == 8
        diffs = np.diff([0.0] + result.coverage_history)
        assert np.all(diffs >= -1e-12)

    def test_greedy_beats_random_selection(self, trained_cnn, digit_dataset):
        budget = 6
        greedy = TrainingSetSelector(
            trained_cnn, digit_dataset, candidate_pool=40, rng=0
        ).generate(budget)
        random = RandomSelector(trained_cnn, digit_dataset, rng=0).generate(budget)
        assert greedy.final_coverage >= random.final_coverage - 1e-9

    def test_first_pick_is_the_best_single_sample(self, trained_cnn, digit_dataset):
        selector = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=20, rng=1)
        best_single = selector.masks.fractions().max()
        result = selector.generate(1)
        assert result.coverage_history[0] == pytest.approx(best_single)

    def test_history_matches_recomputed_coverage(self, trained_cnn, digit_dataset):
        selector = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=25, rng=2)
        result = selector.generate(5)
        recomputed = set_validation_coverage(trained_cnn, result.tests)
        assert result.final_coverage == pytest.approx(recomputed)

    def test_budget_larger_than_pool_is_clamped(self, trained_cnn, digit_dataset):
        selector = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=5, rng=0)
        result = selector.generate(10)
        assert result.num_tests == 5

    def test_selected_dataset_indices_round_trip(self, trained_cnn, digit_dataset):
        selector = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=15, rng=3)
        result = selector.generate(3)
        indices = selector.selected_dataset_indices(result)
        np.testing.assert_allclose(digit_dataset.images[indices], result.tests)

    def test_rejects_bad_arguments(self, trained_cnn, digit_dataset):
        with pytest.raises(ValueError):
            TrainingSetSelector(trained_cnn, digit_dataset).generate(0)
        empty = digit_dataset.subset([])
        with pytest.raises(ValueError):
            TrainingSetSelector(trained_cnn, empty)

    def test_sources_all_training(self, trained_cnn, digit_dataset):
        result = TrainingSetSelector(
            trained_cnn, digit_dataset, candidate_pool=10, rng=0
        ).generate(3)
        assert set(result.sources) == {"training"}

    @pytest.mark.parametrize("pool", [0, -1])
    @pytest.mark.parametrize("strategy", ["selection", "neuron", "combined"])
    def test_rejects_non_positive_candidate_pool(
        self, trained_cnn, digit_dataset, strategy, pool
    ):
        with pytest.raises(ValueError, match="candidate_pool must be positive when given"):
            build_generator(strategy, trained_cnn, digit_dataset, candidate_pool=pool)


def _no_exit_round(gen, synthesis_model):
    """One Algorithm 2 round that runs all ``max_updates`` steps, whatever
    the gradient: the reference for the zero-gradient stop."""
    engine = Engine(synthesis_model, criterion=gen.criterion, cache=False)
    x = gen._init_batch()
    targets = np.arange(len(x))
    for _ in range(gen.max_updates):
        _, grad = engine.input_gradients(x, targets, gen.loss)
        x = x - gen.step_size * grad
        np.clip(x, *gen.clip_range, out=x)
    return x


class TestGradientTestGenerator:
    def test_batch_has_one_sample_per_class(self, trained_cnn):
        gen = GradientTestGenerator(trained_cnn, rng=0, max_updates=10)
        batch = gen.synthesize_batch()
        assert batch.shape == (trained_cnn.num_classes, *trained_cnn.input_shape)

    def test_samples_respect_clip_range(self, trained_cnn):
        gen = GradientTestGenerator(trained_cnn, rng=0, max_updates=10, clip_range=(0, 1))
        batch = gen.synthesize_batch()
        assert batch.min() >= 0.0
        assert batch.max() <= 1.0

    def test_synthesis_reduces_per_class_loss(self, trained_cnn):
        """Gradient descent on the input must actually decrease the loss (Eq. 8)."""
        from repro.nn.losses import SoftmaxCrossEntropy

        gen = GradientTestGenerator(
            trained_cnn, rng=0, max_updates=30, target="model", init_noise_std=0.0
        )
        k = trained_cnn.num_classes
        zeros = np.zeros((k, *trained_cnn.input_shape))
        targets = np.arange(k)
        loss_fn = SoftmaxCrossEntropy()
        loss_before, _ = loss_fn.value_and_grad(trained_cnn.predict(zeros), targets)
        batch = gen.synthesize_batch()
        loss_after, _ = loss_fn.value_and_grad(trained_cnn.predict(batch), targets)
        assert loss_after < loss_before

    def test_generation_coverage_monotone_and_counts(self, trained_cnn):
        gen = GradientTestGenerator(trained_cnn, rng=0, max_updates=15)
        result = gen.generate(7)
        assert result.num_tests == 7
        assert set(result.sources) == {"gradient"}
        diffs = np.diff([0.0] + result.coverage_history)
        assert np.all(diffs >= -1e-12)

    def test_residual_mode_differs_from_model_mode(self, trained_cnn):
        residual = GradientTestGenerator(
            trained_cnn, rng=0, max_updates=10, target="residual"
        ).generate(4)
        plain = GradientTestGenerator(
            trained_cnn, rng=0, max_updates=10, target="model"
        ).generate(4)
        assert residual.num_tests == plain.num_tests == 4

    @pytest.mark.parametrize("target", ["residual", "model"])
    def test_zero_gradient_stop_matches_full_descent(
        self, trained_cnn, digit_dataset, monkeypatch, target
    ):
        """A residual round on a mostly covered model has an exactly zero
        first gradient and stops there; a round on the full model descends.
        Both return the same bytes as a round that runs every update, and
        leave the random stream in the same state."""
        tracker = CoverageTracker(trained_cnn)
        tracker.add_batch(digit_dataset.images[:10])
        shipped = GradientTestGenerator(trained_cnn, rng=5, max_updates=10)
        reference = GradientTestGenerator(trained_cnn, rng=5, max_updates=10)
        if target == "residual":
            synthesis_model = shipped._residual_model(tracker.covered_mask)
        else:
            synthesis_model = trained_cnn

        nonzero = []
        original = Engine.input_gradients

        def recording(self, *args, **kwargs):
            loss, grad = original(self, *args, **kwargs)
            nonzero.append(bool(grad.any()))
            return loss, grad

        monkeypatch.setattr(Engine, "input_gradients", recording)
        got = shipped.synthesize_batch(synthesis_model)
        if target == "residual":
            assert nonzero == [False]  # the round stopped at its first gradient
        else:
            assert nonzero == [True] * shipped.max_updates
        expected = _no_exit_round(reference, synthesis_model)
        assert got.tobytes() == expected.tobytes()
        assert shipped._rng.bit_generator.state == reference._rng.bit_generator.state

    def test_synthesis_accuracy_in_unit_interval(self, trained_cnn):
        gen = GradientTestGenerator(trained_cnn, rng=0, max_updates=20)
        acc = gen.synthesis_accuracy()
        assert 0.0 <= acc <= 1.0

    def test_rejects_bad_arguments(self, trained_cnn):
        with pytest.raises(ValueError):
            GradientTestGenerator(trained_cnn, step_size=0)
        with pytest.raises(ValueError):
            GradientTestGenerator(trained_cnn, max_updates=0)
        with pytest.raises(ValueError):
            GradientTestGenerator(trained_cnn, target="other")
        with pytest.raises(ValueError):
            GradientTestGenerator(trained_cnn, clip_range=(1.0, 0.0))
        with pytest.raises(ValueError):
            GradientTestGenerator(trained_cnn).generate(0)


class TestCombinedGenerator:
    def test_switch_policy_parsing(self, trained_cnn, digit_dataset):
        with pytest.raises(ValueError):
            CombinedGenerator(trained_cnn, digit_dataset, switch_policy="never")
        with pytest.raises(ValueError):
            CombinedGenerator(trained_cnn, digit_dataset, switch_policy="fixed:x")
        with pytest.raises(ValueError):
            CombinedGenerator(trained_cnn, digit_dataset, switch_policy="fixed:-1")

    def test_fixed_switch_point_respected(self, trained_cnn, digit_dataset):
        gen = CombinedGenerator(
            trained_cnn,
            digit_dataset,
            switch_policy="fixed:3",
            candidate_pool=20,
            rng=0,
            max_updates=10,
        )
        result = gen.generate(6)
        assert result.sources[:3] == ["training"] * 3
        assert set(result.sources[3:]) == {"gradient"}

    def test_adaptive_combined_at_least_matches_selection(self, trained_cnn, digit_dataset):
        budget = 8
        combined = CombinedGenerator(
            trained_cnn, digit_dataset, candidate_pool=25, rng=0, max_updates=10
        ).generate(budget)
        selection = TrainingSetSelector(
            trained_cnn, digit_dataset, candidate_pool=25, rng=0
        ).generate(budget)
        assert combined.final_coverage >= selection.final_coverage - 0.02

    def test_coverage_history_monotone(self, trained_cnn, digit_dataset):
        result = CombinedGenerator(
            trained_cnn, digit_dataset, candidate_pool=20, rng=1, max_updates=10
        ).generate(6)
        diffs = np.diff([0.0] + result.coverage_history)
        assert np.all(diffs >= -1e-12)

    def test_rejects_zero_budget(self, trained_cnn, digit_dataset):
        with pytest.raises(ValueError):
            CombinedGenerator(trained_cnn, digit_dataset).generate(0)

    @pytest.mark.parametrize("pool", [25, 4])  # 4 < the budget: the pool runs dry
    def test_skipped_probes_change_nothing(
        self, trained_cnn, digit_dataset, monkeypatch, pool
    ):
        """The adaptive switch as shipped (probes whose gain bound already
        loses are skipped) against every probe synthesised in full: the same
        tests, sources, gains and dataset indices, and the same state of the
        shared random stream afterwards, from fewer syntheses."""

        def run(every_probe):
            calls = []
            original = GradientTestGenerator.synthesize_batch

            def counting(self, *args, **kwargs):
                calls.append(1)
                return original(self, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(GradientTestGenerator, "synthesize_batch", counting)
                if every_probe:
                    patch.setattr(CombinedGenerator, "_gain_bound", lambda self, t: math.inf)
                gen = CombinedGenerator(
                    trained_cnn, digit_dataset, candidate_pool=pool, rng=0, max_updates=10
                )
                result = gen.generate(8)
            return result, gen._rng.bit_generator.state, len(calls)

        shipped, shipped_state, shipped_calls = run(every_probe=False)
        full, full_state, full_calls = run(every_probe=True)
        assert shipped.tests.tobytes() == full.tests.tobytes()
        assert shipped.sources == full.sources
        assert shipped.gains == full.gains
        assert shipped.coverage_history == full.coverage_history
        assert np.array_equal(shipped.dataset_indices, full.dataset_indices)
        assert shipped_state == full_state
        assert shipped_calls < full_calls
        assert "gradient" in shipped.sources  # the switch itself was taken


    def test_one_pool_sweep_per_training_pick(self, monkeypatch):
        """On the mnist campaign victim the adaptive switch's argmax is the
        training pick itself: ``combined`` sweeps the pool as often as
        ``selection`` (once per pick), with the same result as a step that
        sweeps again."""
        from repro.analysis.sweep import prepare_experiment
        from repro.coverage.bitmap import MaskMatrix

        prepared = prepare_experiment("mnist", train_size=80, test_size=24, epochs=2, rng=0)
        sweeps = []
        best_candidate = MaskMatrix.best_candidate

        def counting(self, *args, **kwargs):
            sweeps.append(1)
            return best_candidate(self, *args, **kwargs)

        def run(name, **kwargs):
            sweeps.clear()
            result = build_generator(
                name, prepared.model, prepared.train, rng=0, candidate_pool=40, **kwargs
            ).generate(8)
            return result, len(sweeps)

        monkeypatch.setattr(MaskMatrix, "best_candidate", counting)
        selection, selection_sweeps = run("selection")
        combined, combined_sweeps = run("combined")
        select = TrainingSetSelector._select
        monkeypatch.setattr(
            TrainingSetSelector,
            "_select",
            lambda self, tracker, available, index=None: select(self, tracker, available),
        )
        resweeping, resweeps = run("combined")

        assert combined.sources == ["training"] * 8
        assert selection_sweeps == combined_sweeps == 8
        assert resweeps == 16
        assert combined.tests.tobytes() == resweeping.tests.tobytes()
        assert combined.gains == resweeping.gains
        assert combined.coverage_history == resweeping.coverage_history
        assert np.array_equal(combined.dataset_indices, resweeping.dataset_indices)
        assert np.array_equal(combined.dataset_indices, selection.dataset_indices)


class TestBaselines:
    def test_neuron_selector_histories(self, trained_cnn, digit_dataset):
        selector = NeuronCoverageSelector(trained_cnn, digit_dataset, candidate_pool=25, rng=0)
        result = selector.generate(6)
        assert result.num_tests == 6
        diffs = np.diff([0.0] + result.coverage_history)
        assert np.all(diffs >= -1e-12)
        assert result.final_coverage <= 1.0

    def test_neuron_selector_parameter_coverage_below_combined(
        self, trained_cnn, digit_dataset
    ):
        """Key claim behind Tables II/III: neuron-coverage tests achieve lower
        *parameter* coverage than the proposed method at equal budget."""
        budget = 8
        neuron_tests = NeuronCoverageSelector(
            trained_cnn, digit_dataset, candidate_pool=30, rng=0
        ).generate(budget)
        combined_tests = CombinedGenerator(
            trained_cnn, digit_dataset, candidate_pool=30, rng=0, max_updates=10
        ).generate(budget)
        neuron_pcov = set_validation_coverage(trained_cnn, neuron_tests.tests)
        combined_pcov = set_validation_coverage(trained_cnn, combined_tests.tests)
        assert combined_pcov >= neuron_pcov - 0.02

    def test_random_selector(self, trained_cnn, digit_dataset):
        result = RandomSelector(trained_cnn, digit_dataset, rng=0).generate(5)
        assert result.num_tests == 5
        with pytest.raises(ValueError):
            RandomSelector(trained_cnn, digit_dataset, rng=0).generate(0)

    def test_neuron_selector_rejects_empty_dataset(self, trained_cnn, digit_dataset):
        with pytest.raises(ValueError):
            NeuronCoverageSelector(trained_cnn, digit_dataset.subset([]))
