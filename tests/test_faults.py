"""Chaos suite for the fault-tolerant execution layer.

Covers the ``repro.faults`` primitives (policy, retry controller, injection
plans), the engine's fail-fast dispatch, corrupt-store quarantine, the
result store's failure records and torn-line recovery, and the
campaign-level chaos gates: injected dispatch failures must quarantine
their scenarios, a plan-free re-run must execute exactly the quarantined
scenarios and leave a store **byte-identical** to the fault-free run, and a
deterministically-failing scenario must be quarantined and heal on
``resume``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    FailureRecord,
    ResultStore,
    ScenarioRecord,
    run_campaign,
)
from repro.campaign.__main__ import main as campaign_main
from repro.coverage.bitmap import quarantine_store
from repro.engine import Engine
from repro.faults import (
    CampaignAbortedError,
    CircuitOpenError,
    FaultPlan,
    FaultPolicy,
    RetryController,
    inject,
    is_transient,
)
from repro.models.zoo import small_mlp
from repro.validation import detection
from repro.validation.detection import REPLAY_GROUP_SIZE



def tiny_spec(**overrides: object) -> CampaignSpec:
    """A campaign small enough to run inside a unit test."""
    base = dict(
        name="chaos",
        attacks=("sba", "random"),
        models=("mnist",),
        criteria=("default",),
        strategies=("random",),
        budgets=(2, 3),
        trials=2,
        train_size=24,
        test_size=12,
        epochs=1,
        width_multiplier=0.08,
        candidate_pool=12,
        gradient_updates=3,
        reference_inputs=6,
    )
    base.update(overrides)
    return CampaignSpec(**base)  # type: ignore[arg-type]


def record(digest: str, detections: int = 1) -> ScenarioRecord:
    return ScenarioRecord(
        digest=digest,
        scenario={"model": "mnist", "attack": "sba"},
        seed=0,
        trials=2,
        detections=detections,
        coverage=0.5,
    )


# ---------------------------------------------------------------------------
# policy + controller
# ---------------------------------------------------------------------------


class TestFaultPolicy:
    def test_defaults_validate(self):
        FaultPolicy().validate()

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FaultPolicy(backoff_base_s=0.1, backoff_factor=2.0, backoff_jitter=0.5)
        delays = [policy.backoff_delay(a, key="forward") for a in (1, 2, 3)]
        assert delays == [policy.backoff_delay(a, key="forward") for a in (1, 2, 3)]
        for attempt, delay in enumerate(delays, start=1):
            base = 0.1 * 2.0 ** (attempt - 1)
            assert base <= delay <= base * 1.5
        # jitter depends on the key: two ops don't sleep in lockstep
        assert delays != [policy.backoff_delay(a, key="masks") for a in (1, 2, 3)]

    def test_backoff_without_jitter_is_exact(self):
        policy = FaultPolicy(backoff_base_s=0.25, backoff_factor=3.0, backoff_jitter=0.0)
        assert policy.backoff_delay(1) == 0.25
        assert policy.backoff_delay(2) == 0.75
        with pytest.raises(ValueError, match="1-based"):
            policy.backoff_delay(0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultPolicy field"):
            FaultPolicy.from_dict({"max_retries": 1, "bogus": 2})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_retries", -1),
            ("backoff_base_s", -0.1),
            ("backoff_factor", 0.5),
            ("backoff_jitter", -1.0),
            ("breaker_threshold", 0),
        ],
    )
    def test_validate_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            FaultPolicy.from_dict({field: value})

    def test_coerce(self):
        policy = FaultPolicy(max_retries=5)
        assert FaultPolicy.coerce(None) is None
        assert FaultPolicy.coerce(policy) is policy
        assert FaultPolicy.coerce({"max_retries": 5}) == policy
        with pytest.raises(TypeError):
            FaultPolicy.coerce(3)

    def test_roundtrip(self):
        policy = FaultPolicy(max_retries=7, breaker_threshold=5)
        assert FaultPolicy.from_dict(policy.to_dict()) == policy


class TestRetryController:
    def _controller(self, **overrides):
        sleeps: list = []
        policy = FaultPolicy(backoff_base_s=0.01, **overrides)
        return RetryController(policy, sleeper=sleeps.append), sleeps

    def test_success_passthrough(self):
        controller, sleeps = self._controller()
        assert controller.run(lambda: 42) == 42
        assert sleeps == [] and controller.stats.retries == 0

    def test_transient_retried_with_exact_backoff(self):
        controller, sleeps = self._controller(max_retries=3)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert controller.run(flaky, key="forward") == "ok"
        assert len(attempts) == 3
        assert controller.stats.retries == 2 and controller.stats.failures == 2
        policy = controller.policy
        assert sleeps == [
            policy.backoff_delay(1, "forward"),
            policy.backoff_delay(2, "forward"),
        ]

    def test_logic_errors_propagate_immediately(self):
        controller, _ = self._controller(max_retries=5)
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError, match="logic bug"):
            controller.run(broken)
        assert len(calls) == 1 and controller.stats.failures == 0

    def test_exhaustion_raises_the_original_error(self):
        controller, _ = self._controller(max_retries=1, breaker_threshold=99)

        def always():
            raise TimeoutError("still down")

        with pytest.raises(TimeoutError, match="still down"):
            controller.run(always)
        assert controller.stats.retries == 1 and controller.stats.failures == 2

    def test_breaker_without_downgrade_opens(self):
        controller, _ = self._controller(max_retries=99, breaker_threshold=2)
        calls = []

        def always():
            calls.append(1)
            raise OSError("down")

        with pytest.raises(CircuitOpenError):
            controller.run(always)
        assert len(calls) == 2
        assert controller.stats.breaker_trips == 1

    def test_success_resets_the_breaker(self):
        controller, _ = self._controller(max_retries=2, breaker_threshold=3)
        for _ in range(4):
            flaked = []

            def once():
                if not flaked:
                    flaked.append(1)
                    raise OSError("blip")
                return "ok"

            assert controller.run(once) == "ok"
        # 4 isolated blips never trip a threshold-3 breaker
        assert controller.stats.breaker_trips == 0
        assert controller.consecutive_failures == 0


# ---------------------------------------------------------------------------
# injection plans
# ---------------------------------------------------------------------------


class TestInjection:
    def test_no_plan_is_inert(self):
        assert not inject.active()
        assert inject.check("engine.dispatch", op="forward") is None

    def test_plans_do_not_nest(self):
        with inject.activate(FaultPlan()):
            with pytest.raises(RuntimeError, match="already active"):
                with inject.activate(FaultPlan()):
                    pass
        assert not inject.active()

    def test_at_schedule(self):
        plan = FaultPlan()
        plan.raise_error("site", exception="IOError", at=(1, 3))
        with inject.activate(plan):
            hits = []
            for i in range(5):
                try:
                    inject.check("site")
                    hits.append(False)
                except IOError:
                    hits.append(True)
        assert hits == [False, True, False, True, False]
        assert plan.fired("site") == 2

    def test_every_and_times_schedule(self):
        plan = FaultPlan()
        fault = plan.raise_error("site", every=2, times=2)
        with inject.activate(plan):
            outcomes = []
            for _ in range(6):
                try:
                    inject.check("site")
                    outcomes.append("ok")
                except IOError:
                    outcomes.append("boom")
        # fires at ordinals 0 and 2, then the times cap holds
        assert outcomes == ["boom", "ok", "boom", "ok", "ok", "ok"]
        assert fault.hits == 6 and fault.fires == 2

    def test_match_filters_context(self):
        plan = FaultPlan()
        plan.raise_error("campaign.scenario", exception="RuntimeError", attack="random")
        with inject.activate(plan):
            inject.check("campaign.scenario", model="mnist", attack="sba")
            with pytest.raises(RuntimeError):
                inject.check("campaign.scenario", model="mnist", attack="random")
        assert plan.log == [
            {
                "site": "campaign.scenario",
                "action": "raise",
                "ordinal": 0,
                "model": "mnist",
                "attack": "random",
            }
        ]

    def test_one_fault_fires_per_check_but_all_counters_advance(self):
        plan = FaultPlan()
        first = plan.raise_error("site", exception="OSError")
        second = plan.raise_error("site", exception="TimeoutError")
        with inject.activate(plan):
            with pytest.raises(OSError):
                inject.check("site")
        assert first.fires == 1 and second.fires == 0
        assert first.hits == 1 and second.hits == 1

    def test_latency_sleeps_and_returns_none(self):
        plan = FaultPlan()
        plan.latency("site", 0.01, times=1)
        with inject.activate(plan):
            start = time.perf_counter()
            assert inject.check("site") is None
            assert time.perf_counter() - start >= 0.01

    def test_bad_action_and_exception_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            inject.Fault(site="x", action="explode")
        plan = FaultPlan()
        plan.raise_error("site", exception="NotAnException")
        with inject.activate(plan), pytest.raises(ValueError, match="unknown exception"):
            inject.check("site")


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------


class TestEngineFaults:
    @pytest.fixture(scope="class")
    def model(self):
        return small_mlp(rng=0)

    @pytest.fixture(scope="class")
    def batch(self):
        return np.random.default_rng(0).normal(size=(8, 16))

    def test_backend_error_propagates_on_first_occurrence(self, model, batch, monkeypatch):
        calls = []

        def failing_forward(x, training=False, tape=None):
            calls.append(tape)
            raise OSError("backend down")

        monkeypatch.setattr(model, "forward", failing_forward)
        engine = Engine(model, cache=False)
        with pytest.raises(OSError):
            engine.forward(batch)
        assert len(calls) == 1
        assert calls == [None]  # the engine's forward is an inference pass

    def test_injected_dispatch_fault_propagates(self, model, batch):
        engine = Engine(model, cache=False)
        plan = FaultPlan()
        plan.raise_error("engine.dispatch", exception="OSError", at=(0,))
        with inject.activate(plan), pytest.raises(OSError):
            engine.forward(batch)

    def test_layer_site_sees_the_layers_a_copy_runs_on_the_trunk(self, model, batch):
        """A copy that diverges at the output layer runs only that layer on
        the victim's warm trunk; ``layer.forward`` sees it there once, as in
        the copy's own forward."""
        engine = Engine(model, cache=False)
        copy = model.copy()
        copy.layers[-1].bias.value[0] += 1.0
        engine.stacked_forward([copy], batch)  # warms the victim's trunk
        fired = []
        for run in (lambda: engine.stacked_forward([copy], batch), lambda: copy.forward(batch)):
            plan = FaultPlan()
            plan.latency("layer.forward", 0.0, layer=copy.layers[-1].name)
            with inject.activate(plan):
                run()
            fired.append(plan.fired("layer.forward"))
        assert fired == [1, 1]


# ---------------------------------------------------------------------------
# spill-store quarantine
# ---------------------------------------------------------------------------


class TestMmapFaults:
    def test_quarantine_store_moves_to_sidecar(self, tmp_path):
        path = tmp_path / "corrupt.masks"
        path.write_bytes(b"garbage")
        sidecar = quarantine_store(path)
        assert not path.exists()
        assert sidecar == tmp_path / "quarantine" / "corrupt.masks"
        assert sidecar.read_bytes() == b"garbage"
        # collisions get a numeric suffix instead of overwriting evidence
        path.write_bytes(b"second")
        assert quarantine_store(path).name != sidecar.name

    def test_corrupt_spill_store_quarantined_and_rebuilt(self, tmp_path):
        model = small_mlp(rng=0)
        pool = np.random.default_rng(5).random((10, 16))
        reference = Engine(model, cache=False).packed_activation_masks(pool)
        spilled = Engine(model, cache=False).packed_activation_masks(
            pool, spill_dir=tmp_path
        )
        store_path = Path(spilled.path)
        # tear the store the way a crashed writer would
        store_path.write_bytes(store_path.read_bytes()[:-8])
        rebuilt = Engine(model, cache=False).packed_activation_masks(
            pool, spill_dir=tmp_path
        )
        assert np.array_equal(
            np.asarray(rebuilt.words, dtype=np.uint64), reference.words
        )
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name == store_path.name


# ---------------------------------------------------------------------------
# result-store failure records + durability
# ---------------------------------------------------------------------------


class TestStoreFailures:
    def test_failure_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        failure = FailureRecord.from_exception(
            "abc", {"model": "mnist"}, 7, OSError("io down"), stage="package"
        )
        store.append_failure(failure)
        assert store.quarantined_digests() == {"abc"}
        assert "abc" not in store
        assert store.completed_digests() == set()
        reloaded = ResultStore(tmp_path / "s.jsonl")
        got = reloaded.get_failure("abc")
        assert got is not None
        assert (got.error, got.message, got.stage, got.attempts) == (
            "OSError",
            "io down",
            "package",
            1,
        )

    def test_kind_discriminator_on_disk(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record("ok"))
        store.append_failure(
            FailureRecord.from_exception("bad", {}, 0, RuntimeError("x"))
        )
        lines = [
            json.loads(line)
            for line in (tmp_path / "s.jsonl").read_text().splitlines()
        ]
        assert "kind" not in lines[0]
        assert lines[1]["kind"] == "failure"

    def test_repeat_failure_replaces_with_attempt_count(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append_failure(FailureRecord.from_exception("d", {}, 0, OSError("1")))
        store.append_failure(
            FailureRecord.from_exception("d", {}, 0, OSError("2"), attempts=2)
        )
        reloaded = ResultStore(path)
        assert len(reloaded.failures()) == 1
        assert reloaded.get_failure("d").attempts == 2

    def test_success_after_failure_restores_byte_identity(self, tmp_path):
        clean, healed = tmp_path / "clean.jsonl", tmp_path / "healed.jsonl"
        s1 = ResultStore(clean)
        s1.append(record("a"))
        s1.append(record("b"))

        s2 = ResultStore(healed)
        s2.append(record("a"))
        s2.append_failure(FailureRecord.from_exception("b", {}, 0, OSError("blip")))
        # reload in between: the repair machinery must survive persistence
        s3 = ResultStore(healed)
        s3.append(record("b"))
        assert healed.read_bytes() == clean.read_bytes()
        assert ResultStore(healed).quarantined_digests() == set()

    def test_failure_for_completed_digest_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record("done"))
        with pytest.raises(ValueError, match="already succeeded"):
            store.append_failure(
                FailureRecord.from_exception("done", {}, 0, OSError("x"))
            )

    def test_stale_failure_after_success_dropped_on_load(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append(record("a"))
        # simulate an out-of-band writer appending a stale failure line
        failure = FailureRecord.from_exception("a", {}, 0, OSError("stale"))
        with path.open("a", encoding="utf-8") as fh:
            fh.write(failure.to_json_line() + "\n")
        reloaded = ResultStore(path)
        assert reloaded.failures() == []
        reloaded.append(record("b"))  # triggers the pending repair
        final = ResultStore(path)
        assert final.completed_digests() == {"a", "b"}
        assert "stale" not in path.read_text()

    def test_durable_append_fsyncs(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        store = ResultStore(tmp_path / "s.jsonl", durable=True)
        store.append(record("a"))
        store.append_failure(FailureRecord.from_exception("b", {}, 0, OSError("x")))
        assert len(synced) == 2

    def test_default_append_does_not_fsync(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            os, "fsync", lambda fd: pytest.fail("fsync called without durable=True")
        )
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(record("a"))


class TestConcurrentAppendRecovery:
    """Satellite: two writers, one hard-killed mid-append, full recovery."""

    WRITER = """
import sys, time
sys.path.insert(0, {src!r})
from repro.campaign.store import ResultStore, ScenarioRecord

prefix, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
store = ResultStore.__new__(ResultStore)
import pathlib
store.path = pathlib.Path(path)
store.durable = False
store._records, store._digests, store._failures = [], set(), {{}}
store._entries, store._pending_repair = [], None
print("ready", flush=True)
for i in range(count):
    store.append(ScenarioRecord(
        digest=f"{{prefix}}-{{i}}", scenario={{"model": "mnist"}}, seed=i,
        trials=2, detections=1, coverage=0.5))
    time.sleep(0.002)
"""

    def test_hard_killed_writer_leaves_recoverable_store(self, tmp_path):
        path = tmp_path / "contended.jsonl"
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = self.WRITER.format(src=src)

        def launch(prefix: str, count: int) -> subprocess.Popen:
            proc = subprocess.Popen(
                [sys.executable, "-c", script, prefix, str(count), str(path)],
                stdout=subprocess.PIPE,
                text=True,
            )
            assert proc.stdout.readline().strip() == "ready"
            return proc

        survivor = launch("a", 40)
        victim = launch("b", 40)
        time.sleep(0.05)  # let both interleave some appends
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        assert survivor.wait(timeout=30) == 0

        # the loader must recover every complete record: all 40 of the
        # survivor's, plus whatever the victim flushed before SIGKILL
        store = ResultStore(path)
        digests = store.completed_digests()
        assert {f"a-{i}" for i in range(40)} <= digests
        victim_count = sum(1 for d in digests if d.startswith("b-"))
        assert victim_count <= 40
        # appending after recovery still works (repairs any torn tail)
        store.append(record("post-recovery"))
        assert "post-recovery" in ResultStore(path).completed_digests()


# ---------------------------------------------------------------------------
# campaign chaos gates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """Fault-free reference run: store bytes + summary."""
    path = tmp_path_factory.mktemp("baseline") / "store.jsonl"
    summary = run_campaign(tiny_spec(), str(path))
    assert summary.executed == 4 and summary.failed == 0
    return path.read_bytes()


#: Replay group sizes named after the retired backends: ``numpy`` replayed
#: one copy per stacked call, ``model_axis`` a group of them.
CHAOS_GROUPINGS = {"numpy": 1, "model_axis": REPLAY_GROUP_SIZE}


class TestCampaignChaos:
    @pytest.mark.parametrize("backend", ["numpy", "model_axis"])
    def test_store_byte_identical_under_injected_faults(
        self, backend, baseline, tmp_path, monkeypatch
    ):
        """The headline chaos gate: an engine dispatch error quarantines its
        scenarios, and a plan-free re-run of exactly the quarantined
        scenarios restores every byte."""
        spec = tiny_spec()
        group_size = CHAOS_GROUPINGS[backend]
        monkeypatch.setattr(detection, "REPLAY_GROUP_SIZE", group_size)
        # trial replay runs ceil(trials / group size) stacked dispatches per
        # attack group, so this ordinal is the last group's first dispatch:
        # it lands after the package build (whose greedy selection streams
        # the spilled masks), and a quarantined *last* group re-appends in
        # the baseline's record order
        per_group = -(-spec.trials // group_size)
        first_of_last = per_group * (len(spec.attacks) - 1)
        plan = FaultPlan()
        plan.raise_error(
            "engine.dispatch", exception="OSError", op="stacked_forward", at=(first_of_last,)
        )
        store = tmp_path / "chaos.jsonl"
        with inject.activate(plan):
            summary = run_campaign(spec, str(store), spill_dir=tmp_path / "spill")
        assert plan.fired("engine.dispatch") == 1, "the chaos plan never fired — gate is vacuous"
        # the dispatch error is not retried: the last attack group (both
        # budgets) is quarantined, the first one completes
        assert summary.failed == 2 and summary.executed == 2
        failures = ResultStore(store).failures()
        assert {f.scenario["attack"] for f in failures} == {spec.attacks[-1]}
        assert {(f.stage, f.error) for f in failures} == {("trials", "OSError")}
        quarantined = {f.digest for f in failures}

        resumed = run_campaign(spec, str(store))
        assert resumed.failed == 0
        assert {r.digest for r in resumed.records} == quarantined
        assert store.read_bytes() == baseline

    def test_failing_scenario_quarantined_then_heals_on_resume(
        self, baseline, tmp_path
    ):
        store = tmp_path / "quarantine.jsonl"
        plan = FaultPlan()
        plan.raise_error(
            "campaign.scenario",
            exception="RuntimeError",
            message="deterministic scenario bug",
            attack="random",
        )
        with inject.activate(plan):
            summary = run_campaign(tiny_spec(), str(store))
        # both budgets of the random attack share the failed group
        assert summary.failed == 2 and summary.executed == 2
        loaded = ResultStore(store)
        assert len(loaded.quarantined_digests()) == 2
        failure = loaded.failures()[0]
        assert failure.error == "RuntimeError"
        assert failure.stage == "trials"
        assert failure.scenario["attack"] == "random"

        # resume without the plan: quarantined scenarios re-run and the
        # final store is byte-identical to the never-failed baseline
        resumed = run_campaign(tiny_spec(), str(store))
        assert resumed.executed == 2 and resumed.skipped == 2
        assert resumed.failed == 0
        assert store.read_bytes() == baseline

    def test_repeat_failures_accumulate_attempts(self, tmp_path):
        store = tmp_path / "attempts.jsonl"
        plan = FaultPlan()
        plan.raise_error("campaign.scenario", exception="RuntimeError", attack="random")
        with inject.activate(plan):
            run_campaign(tiny_spec(), str(store))
        plan2 = FaultPlan()
        plan2.raise_error("campaign.scenario", exception="RuntimeError", attack="random")
        with inject.activate(plan2):
            run_campaign(tiny_spec(), str(store))
        failures = ResultStore(store).failures()
        assert failures and all(f.attempts == 2 for f in failures)

    def test_max_failures_bounds_blast_radius(self, tmp_path):
        store = tmp_path / "abort.jsonl"
        plan = FaultPlan()
        plan.raise_error("campaign.scenario", exception="RuntimeError", attack="sba")
        with inject.activate(plan), pytest.raises(CampaignAbortedError):
            run_campaign(tiny_spec(), str(store), max_failures=0)
        # the failures that tripped the bound are still on disk
        assert len(ResultStore(store).failures()) == 2

    def test_keyboard_interrupt_is_not_quarantined(self, tmp_path, monkeypatch):
        from repro.campaign.runner import CampaignRunner

        monkeypatch.setattr(
            CampaignRunner,
            "_run_attack_group",
            lambda self, *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        store_path = tmp_path / "interrupt.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny_spec(), str(store_path))
        assert ResultStore(store_path).failures() == []


class TestCampaignCLI:
    def _args(self, tmp_path, *extra: str) -> list:
        spec_path = tiny_spec().save(tmp_path / "spec.json")
        return [
            "run",
            "--spec",
            str(spec_path),
            "--store",
            str(tmp_path / "store.jsonl"),
            *extra,
        ]

    def test_exit_130_on_keyboard_interrupt(self, tmp_path, monkeypatch, capsys):
        import repro.campaign.__main__ as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt()

        monkeypatch.setattr(cli, "run_campaign", interrupted)
        assert campaign_main(self._args(tmp_path)) == 130
        assert "resume" in capsys.readouterr().err

    def test_exit_3_on_abort(self, tmp_path, monkeypatch, capsys):
        import repro.campaign.__main__ as cli

        def aborted(*args, **kwargs):
            raise CampaignAbortedError("too many failures")

        monkeypatch.setattr(cli, "run_campaign", aborted)
        assert campaign_main(self._args(tmp_path, "--max-failures", "0")) == 3
        assert "aborted" in capsys.readouterr().err

    def test_exit_2_when_failures_remain(self, tmp_path):
        spec_path = tiny_spec().save(tmp_path / "spec.json")
        store_path = tmp_path / "store.jsonl"
        plan = FaultPlan()
        plan.raise_error("campaign.scenario", exception="RuntimeError", attack="random")
        with inject.activate(plan):
            code = campaign_main(
                ["run", "--spec", str(spec_path), "--store", str(store_path)]
            )
        assert code == 2
        assert ResultStore(store_path).quarantined_digests()

    def test_exit_0_clean_run_and_resume(self, tmp_path):
        args = self._args(tmp_path)
        assert campaign_main(args) == 0
        # resume of a complete store is also clean
        assert campaign_main(["resume", *args[1:]]) == 0

    def test_cli_flags_reach_the_runner(self, tmp_path, monkeypatch):
        import repro.campaign.__main__ as cli

        captured = {}

        def fake_run_campaign(spec, store, **kwargs):
            captured.update(kwargs)
            captured["durable"] = store.durable
            from repro.campaign.runner import CampaignSummary

            return CampaignSummary(total=0, executed=0, skipped=0, wall_s=0.0)

        monkeypatch.setattr(cli, "run_campaign", fake_run_campaign)
        assert (
            campaign_main(
                self._args(
                    tmp_path,
                    "--durable",
                    "--max-failures",
                    "5",
                    "--spill-dir",
                    str(tmp_path / "spill"),
                )
            )
            == 0
        )
        assert captured["durable"] is True
        assert captured["max_failures"] == 5
        assert captured["spill_dir"] == str(tmp_path / "spill")

    def test_is_transient_taxonomy(self):
        assert is_transient(OSError("x"))
        assert is_transient(TimeoutError("x"))
        assert not is_transient(ValueError("x"))
        assert not is_transient(KeyboardInterrupt())
