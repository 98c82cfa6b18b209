"""The victim's side of each perturbation trial is computed once, unobservably.

SBA's flip check reads the victim's trunk (its per-layer activations) on the
reference inputs and runs each attempt only from the perturbed bias's layer;
GDA ascends the gradient that chose its parameters; stacked replay starts
every copy on the engine's memoized trunk.  These tests pin that records and
outputs are exactly those of the plain loop — a full ``predict_classes`` per
SBA attempt, a fresh gradient per GDA step, a full forward per copy — on the
campaign's victims (both Table-I architectures, 80 training images, 2
epochs, 12 reference inputs), and that the trunk key and the other
in-process identity keys are exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweep import prepare_experiment
from repro.api import Session
from repro.attacks import (
    GradientDescentAttack,
    PerturbationRecord,
    SingleBiasAttack,
    apply_record,
    bias_flat_indices,
)
from repro.engine import Engine
from repro.engine.cache import TrunkCache, exact_model_key, first_divergence
from repro.models.zoo import mnist_cnn
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.serialization import parameter_digest
from repro.nn.tensor import bit_pattern
from repro.registry import registry
from repro.validation import detection
from repro.validation.detection import default_attack_factories, replay_trials

SEEDS = range(50)
REFERENCE_INPUTS = 12


@pytest.fixture(scope="module", params=["mnist", "cifar"])
def victim(request):
    """A campaign victim: (trained model, reference inputs, replay tests)."""
    prepared = prepare_experiment(
        request.param, train_size=80, test_size=24, epochs=2, rng=0
    )
    images = prepared.test.images
    return prepared.model, images[:REFERENCE_INPUTS], images[REFERENCE_INPUTS:]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(bit_pattern(a), bit_pattern(b))


def models_equal(a, b) -> bool:
    return all(
        same_bits(p.value, q.value) for p, q in zip(a.parameters(), b.parameters())
    )


def assert_same_record(got: PerturbationRecord, want: PerturbationRecord) -> None:
    assert got.attack == want.attack
    assert got.flat_indices.tobytes() == want.flat_indices.tobytes()
    assert got.deltas.tobytes() == want.deltas.tobytes()
    assert got.parameter_names == want.parameter_names
    assert got.metadata == want.metadata


def plain_sba(model, seed, refs, magnitude=10.0, max_attempts=5) -> PerturbationRecord:
    """SBA without trunks: a full predict per attempt, undo by subtraction."""
    attack = SingleBiasAttack(magnitude, refs, max_attempts, rng=np.random.default_rng(seed))
    rng = attack._rng
    copy = model.copy()
    biases = bias_flat_indices(copy)
    view = copy.parameter_view()
    baseline = None if refs is None else copy.predict_classes(refs)
    chosen = int(rng.choice(biases))
    delta = 0.0
    for _ in range(max_attempts):
        chosen = int(rng.choice(biases))
        scale = attack._candidate_scale(copy, chosen)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        delta = sign * magnitude * scale
        view.add_scalar(chosen, delta)
        if baseline is None:
            break
        if np.any(copy.predict_classes(refs) != baseline):
            break
        view.add_scalar(chosen, -delta)
        magnitude *= 2.0
    else:
        view.add_scalar(chosen, delta)
    return PerturbationRecord(
        attack="sba",
        flat_indices=np.array([chosen]),
        deltas=np.array([delta]),
        parameter_names=[view.parameters[view.locate(chosen)[0]].name],
        metadata={"magnitude": magnitude},
    )


def plain_gda(model, seed, targets, num_parameters=20):
    """GDA recomputing the gradient at every step; returns (record, steps)."""
    attack = GradientDescentAttack(targets, num_parameters, rng=np.random.default_rng(seed))
    copy = model.copy()
    idx = int(attack._rng.integers(0, targets.shape[0]))
    x = targets[idx : idx + 1]
    view = copy.parameter_view()
    original = view.flat_values()
    scale = max(float(np.sqrt(np.mean(original**2))), 1e-3)
    loss_fn = SoftmaxCrossEntropy()
    label = int(copy.predict_classes(x)[0])
    labels = np.array([label])
    _, grads = copy.loss_parameter_gradients(x, labels, loss_fn)
    chosen = np.argsort(-np.abs(grads))[: min(num_parameters, grads.size)]
    limit = attack.max_relative_change * scale
    steps = 0
    for _ in range(attack.max_steps):
        _, grads = copy.loss_parameter_gradients(x, labels, loss_fn)
        steps += 1
        flat = view.flat_values()
        flat[chosen] += attack.step_size * scale * np.sign(grads[chosen])
        flat[chosen] = np.clip(flat[chosen], original[chosen] - limit, original[chosen] + limit)
        view.set_flat_values(flat)
        if int(copy.predict_classes(x)[0]) != label:
            break
    deltas = view.flat_values()[chosen] - original[chosen]
    touched = np.abs(deltas) > 0
    chosen = chosen[touched]
    record = PerturbationRecord(
        attack="gda",
        flat_indices=chosen,
        deltas=deltas[touched],
        parameter_names=[view.parameters[view.locate(int(i))[0]].name for i in chosen],
        metadata={"target_index": float(idx), "original_label": float(label)},
    )
    return record, steps


class TestRecordsMatchThePlainLoop:
    def test_sba_with_reference_inputs(self, victim):
        model, refs, _ = victim
        factories = default_attack_factories(refs)
        retried = 0
        for seed in SEEDS:
            attack = factories["sba"](np.random.default_rng(seed))
            record = attack.apply(model).record
            assert_same_record(record, plain_sba(model, seed, refs))
            retried += record.metadata["magnitude"] > 10.0
        # the retry path (forwarding from the perturbed bias's layer) ran
        assert retried > 0
        # one trunk per victim served every trial of the factory set
        assert attack.trunks.stats.misses == 1
        assert attack.trunks.stats.hits == len(SEEDS) - 1

    def test_sba_without_reference_inputs(self, victim):
        model, _, _ = victim
        for seed in SEEDS:
            record = SingleBiasAttack(rng=np.random.default_rng(seed)).apply(model).record
            assert_same_record(record, plain_sba(model, seed, None))

    def test_gda_reuses_its_first_gradient(self, victim, monkeypatch):
        model, refs, _ = victim
        factories = default_attack_factories(refs)
        calls = []
        original = Engine.loss_parameter_gradients

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Engine, "loss_parameter_gradients", counted)
        for seed in SEEDS:
            calls.clear()
            record = factories["gda"](np.random.default_rng(seed)).apply(model).record
            want, steps = plain_gda(model, seed, refs)
            assert_same_record(record, want)
            # one gradient per step: the first step reuses the choosing one
            assert len(calls) == steps


class TestRecordsRebuildTheirCopies:
    @pytest.mark.parametrize("attack", ["sba", "gda", "random"])
    def test_apply_record_is_exact(self, victim, attack):
        model, refs, _ = victim
        factory = default_attack_factories(refs)[attack]
        for seed in SEEDS:
            outcome = factory(np.random.default_rng(seed)).apply(model)
            assert models_equal(apply_record(model, outcome.record), outcome.model), seed


class TestAttackCopiesAreTheirOwnModels:
    """Every registered attack's copy is a different model to the
    in-process identity keys: an engine memo warmed on the victim, and the
    ``Session`` engine pool."""

    @pytest.mark.parametrize("attack", registry.names("attacks"))
    def test_memo_and_session_see_the_copy(self, victim, attack):
        model, refs, tests = victim
        factory = default_attack_factories(refs)[attack]
        copy = factory(np.random.default_rng(0)).apply(model).model
        assert exact_model_key(copy) != exact_model_key(model)
        engine = Engine(model)
        engine.forward(tests)
        engine.stacked_forward([model], tests)
        got = engine.stacked_forward([copy], tests)
        assert got[0].tobytes() == copy.forward(tests).tobytes()
        with Session() as session:
            assert session.engine_for(copy) is not session.engine_for(model)


class TestVictimTrunk:
    def test_warm_trunk_replays_bit_for_bit(self, victim, monkeypatch):
        model, refs, tests = victim
        monkeypatch.setattr(detection, "REPLAY_GROUP_SIZE", 3)
        engine = Engine(model, cache=False)
        factories = default_attack_factories(refs)
        expected = model.forward(tests)
        results = []
        for _ in range(2):
            copies = []

            def capture(attack):
                apply = attack.apply

                def wrapped(base):
                    outcome = apply(base)
                    copies.append(outcome.model)
                    return outcome

                attack.apply = wrapped
                return attack

            attacks = (
                capture(factories[name](np.random.default_rng(seed)))
                for name in ("sba", "gda", "random", "bitflip")
                for seed in range(4)
            )
            mismatches, records = replay_trials(engine, attacks, tests, expected, 0.0)
            stacked = engine.stacked_forward(copies, tests)
            for m, copy in enumerate(copies):
                own = copy.forward(tests)
                assert same_bits(stacked[m], own)
                assert np.array_equal(mismatches[m], np.abs(own - expected).max(axis=1) > 0)
            results.append((mismatches, [r.to_dict() for r in records]))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        # the victim ran once on the tests; every later dispatch read its trunk
        assert engine._trunks.stats.misses == 1
        assert engine._trunks.stats.hits > 1

    def test_key_sees_a_low_mantissa_bit(self, victim):
        model, _, tests = victim
        flipped = model.copy()
        weight = flipped.layers[0].weight.value
        bit_pattern(weight).reshape(-1)[0] ^= 1
        assert parameter_digest(flipped) == parameter_digest(model)
        trunks = TrunkCache()
        trunks.get(model, tests, len(tests))
        (trunk,) = trunks.get(flipped, tests, len(tests))
        assert trunks.stats.misses == 2 and trunks.stats.hits == 0
        assert all(
            same_bits(ours, theirs)
            for ours, theirs in zip(trunk[1:], flipped.forward_collect(tests))
        )

    def test_in_place_mutation_gets_a_fresh_trunk(self, victim):
        model, _, tests = victim
        base = model.copy()
        engine = Engine(base, cache=False)
        head = bias_flat_indices(base)[-1]

        def head_copy():
            copy = base.copy()
            copy.parameter_view().add_scalar(int(head), 5.0)
            return copy

        engine.stacked_forward([head_copy()], tests)
        base.parameter_view().add_scalar(0, 0.5)  # a conv1 weight, in place
        copy = head_copy()
        stacked = engine.stacked_forward([copy], tests)
        assert engine._trunks.stats.misses == 2
        assert same_bits(stacked[0], copy.forward(tests))
        engine.invalidate()
        engine.stacked_forward([copy], tests)
        assert engine._trunks.stats.misses == 3


    def test_a_many_chunk_batch_is_one_entry(self, victim):
        model, _, tests = victim
        engine = Engine(model, batch_size=2, cache=False)
        head = bias_flat_indices(model)[-1]
        copies = []
        for delta in (1.0, 2.0, 3.0):
            copy = model.copy()
            copy.parameter_view().add_scalar(int(head), delta)
            copies.append(copy)
        # six 2-row chunks per call
        for _ in range(2):
            stacked = engine.stacked_forward(copies, tests)
            for m, copy in enumerate(copies):
                assert same_bits(stacked[m], Engine(copy, batch_size=2).forward(tests))
        assert engine._trunks.stats.misses == 1
        assert engine._trunks.stats.hits == 1

    def test_editing_the_batch_in_place_cannot_reach_the_trunk(self, victim):
        model, _, tests = victim
        trunks = TrunkCache()
        batch = tests.copy()
        (trunk,) = trunks.get(model, batch, len(batch))
        kept = trunk[0].copy()
        batch += 1.0
        assert same_bits(trunk[0], kept)


class TestSignedZeroDiverges:
    def test_negative_zero_bias_is_a_divergence(self):
        victim = mnist_cnn(width_multiplier=0.125, input_size=28, rng=0)
        conv3 = next(i for i, layer in enumerate(victim.layers) if layer.name == "conv3")
        copy = victim.copy()
        copy.layers[conv3].bias.value[0] = -0.0
        assert first_divergence(victim, copy) == conv3

        tests = np.random.default_rng(3).random((6, *victim.input_shape))
        stacked = Engine(victim, cache=False).stacked_forward(
            [copy, victim.copy()], tests
        )
        assert same_bits(stacked[0], copy.forward(tests))
        assert same_bits(stacked[1], victim.forward(tests))
        # alone, the copy reads the memoized trunk instead
        alone = Engine(victim, cache=False).stacked_forward([copy], tests)
        assert same_bits(alone[0], copy.forward(tests))
