"""Tests for distributed campaign execution (``repro.campaign.distributed``).

Covers the shard-store naming scheme, the work-stealing plan, the canonical
byte-stable merge/compact pipeline, end-to-end ``--shards`` runs (byte
identity vs the serial runner, zero-re-execution resume across shard
boundaries, SIGKILL-of-a-worker chaos), the digest-keyed
:class:`ModelExchange`, spill-store garbage collection, and the satellite
concurrent-writer gate: two processes appending to distinct shard stores —
one hard-killed mid-append — whose merge is byte-identical to a
single-writer store of the same records.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, CampaignSpec, run_campaign
from repro.campaign.__main__ import main as campaign_main
from repro.campaign.distributed import (
    ModelExchange,
    canonical_store_text,
    compact_store,
    find_shard_stores,
    merge_stores,
    plan_shards,
    run_distributed_campaign,
    shard_store_path,
)
from repro.campaign.gc import gc_spill
from repro.campaign.store import FailureRecord, ResultStore, ScenarioRecord
from repro.faults import FaultPlan

SHARDS = 2


def tiny_spec(**overrides: object) -> CampaignSpec:
    """The same four-scenario campaign as tests/test_campaign.py."""
    base = dict(
        name="tiny",
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


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def record(digest: str, detections: int = 1) -> ScenarioRecord:
    return ScenarioRecord(
        digest=digest,
        scenario={"model": "mnist", "attack": "sba"},
        seed=7,
        trials=2,
        detections=detections,
        coverage=0.5,
    )


def failure(digest: str, attempts: int = 1) -> FailureRecord:
    return FailureRecord(
        digest=digest,
        scenario={"model": "mnist", "attack": "sba"},
        seed=7,
        error="IOError",
        message="injected fault",
        attempts=attempts,
    )


@dataclass(frozen=True)
class StubScenario:
    """The three attributes :func:`plan_shards` reads."""

    model: str
    attack: str
    digest: str


def stub_scenarios(*groups):
    """``(model, attack, count)`` triples → expansion-ordered stub scenarios."""
    out = []
    for model, attack, count in groups:
        for i in range(count):
            out.append(StubScenario(model, attack, f"{model}-{attack}-{i}"))
    return out


@pytest.fixture(scope="module")
def dist(tmp_path_factory):
    """One serial and one ``shards=2`` run of the tiny campaign."""
    root = tmp_path_factory.mktemp("dist")
    serial = root / "serial.jsonl"
    serial_summary = run_campaign(tiny_spec(), str(serial))
    assert serial_summary.executed == 4 and serial_summary.failed == 0
    sharded = root / "sharded.jsonl"
    sharded_summary = run_campaign(tiny_spec(), str(sharded), shards=SHARDS)
    return {
        "root": root,
        "serial": serial,
        "sharded": sharded,
        "sharded_summary": sharded_summary,
    }


# ---------------------------------------------------------------------------
# shard store naming
# ---------------------------------------------------------------------------


class TestShardStoreNaming:
    def test_shard_store_path_inserts_shard_component(self, tmp_path):
        base = tmp_path / "store.jsonl"
        assert shard_store_path(base, 3) == tmp_path / "store.shard3.jsonl"

    def test_suffixless_base_gains_jsonl(self, tmp_path):
        assert shard_store_path(tmp_path / "store", 0).name == "store.shard0.jsonl"

    def test_find_orders_by_shard_number_and_ignores_decoys(self, tmp_path):
        base = tmp_path / "store.jsonl"
        for name in (
            "store.jsonl",
            "store.shard2.jsonl",
            "store.shard0.jsonl",
            "store.shard10.jsonl",
            "store.shardx.jsonl",
            "other.shard1.jsonl",
        ):
            (tmp_path / name).write_text("")
        assert [p.name for p in find_shard_stores(base)] == [
            "store.shard0.jsonl",
            "store.shard2.jsonl",
            "store.shard10.jsonl",
        ]

    def test_find_in_missing_directory_is_empty(self, tmp_path):
        assert find_shard_stores(tmp_path / "nowhere" / "store.jsonl") == []


# ---------------------------------------------------------------------------
# work-stealing plan
# ---------------------------------------------------------------------------


class TestPlanShards:
    def test_single_shard_keeps_expansion_order(self):
        scenarios = stub_scenarios(("a", "x", 3), ("a", "y", 1), ("b", "x", 2))
        (queue,) = plan_shards(scenarios, 1)
        assert [(u.model, u.attack, len(u)) for u in queue] == [
            ("a", "x", 3),
            ("a", "y", 1),
            ("b", "x", 2),
        ]

    def test_models_stay_shard_local(self):
        scenarios = stub_scenarios(("a", "x", 3), ("a", "y", 1), ("b", "x", 2))
        plan = plan_shards(scenarios, 2)
        # LPT: model a (4 scenarios) lands first, model b on the other shard
        assert {u.model for u in plan[0]} == {"a"}
        assert {u.model for u in plan[1]} == {"b"}

    def test_spare_shards_seeded_from_largest_queue(self):
        scenarios = stub_scenarios(("a", "x", 2), ("a", "y", 2), ("a", "z", 2))
        plan = plan_shards(scenarios, 3)
        assert all(len(queue) == 1 for queue in plan)

    def test_scenarios_conserved(self):
        scenarios = stub_scenarios(("a", "x", 5), ("b", "y", 3), ("c", "z", 1))
        plan = plan_shards(scenarios, 4)
        planned = [s for queue in plan for unit in queue for s in unit.scenarios]
        assert sorted(s.digest for s in planned) == sorted(s.digest for s in scenarios)

    def test_plan_is_deterministic(self):
        scenarios = stub_scenarios(("a", "x", 2), ("b", "y", 2), ("c", "z", 2))
        assert plan_shards(scenarios, 2) == plan_shards(scenarios, 2)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError):
            plan_shards([], 0)


# ---------------------------------------------------------------------------
# canonical merge / compact
# ---------------------------------------------------------------------------


class TestCanonicalMergeCompact:
    def test_compact_sorts_records_by_digest(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        for digest in ("c", "a", "b"):
            store.append(record(digest))
        text = compact_store(path)
        assert text == canonical_store_text([record("a"), record("b"), record("c")], [])

    def test_compact_heals_failure_replaced_by_success(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append_failure(failure("a"))
        store.append(record("a"))
        assert compact_store(path) == canonical_store_text([record("a")], [])

    def test_compact_drops_torn_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ResultStore(path).append(record("a"))
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"digest": "torn')  # no newline: a SIGKILL mid-append
        out = tmp_path / "compacted.jsonl"
        text = compact_store(path, output=out)
        assert text == canonical_store_text([record("a")], [])
        assert out.read_text(encoding="utf-8") == text

    def test_merge_equals_compact_of_union(self, tmp_path):
        s0, s1 = tmp_path / "s.shard0.jsonl", tmp_path / "s.shard1.jsonl"
        for digest in ("d", "b"):
            ResultStore(s0).append(record(digest))
        for digest in ("a", "c"):
            ResultStore(s1).append(record(digest))
        union = tmp_path / "union.jsonl"
        for digest in ("d", "b", "a", "c"):
            ResultStore(union).append(record(digest))
        assert merge_stores([s0, s1]) == compact_store(union)

    def test_merge_duplicate_digests_must_agree(self, tmp_path):
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        ResultStore(s0).append(record("a", detections=1))
        ResultStore(s1).append(record("a", detections=2))
        with pytest.raises(ValueError, match="conflicting records"):
            merge_stores([s0, s1])

    def test_merge_agreeing_duplicates_are_collapsed(self, tmp_path):
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        ResultStore(s0).append(record("a"))
        ResultStore(s1).append(record("a"))
        assert merge_stores([s0, s1]) == canonical_store_text([record("a")], [])

    def test_merge_success_overrides_failure_across_stores(self, tmp_path):
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        ResultStore(s0).append_failure(failure("a"))
        ResultStore(s1).append(record("a"))
        assert merge_stores([s0, s1]) == canonical_store_text([record("a")], [])

    def test_merge_keeps_highest_attempt_failure(self, tmp_path):
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        ResultStore(s0).append_failure(failure("a", attempts=1))
        ResultStore(s1).append_failure(failure("a", attempts=3))
        (line,) = merge_stores([s0, s1]).splitlines()
        assert json.loads(line)["attempts"] == 3

    def test_merge_prune_unlinks_shard_stores(self, tmp_path):
        s0, s1 = tmp_path / "s.shard0.jsonl", tmp_path / "s.shard1.jsonl"
        ResultStore(s0).append(record("a"))
        ResultStore(s1).append(record("b"))
        out = tmp_path / "merged.jsonl"
        text = merge_stores([s0, s1], output=out, prune=True)
        assert out.read_text(encoding="utf-8") == text
        assert not s0.exists() and not s1.exists()

    def test_merge_prune_requires_output(self, tmp_path):
        with pytest.raises(ValueError, match="output"):
            merge_stores([tmp_path / "s0.jsonl"], prune=True)


# ---------------------------------------------------------------------------
# end-to-end distributed runs
# ---------------------------------------------------------------------------


class TestDistributedEndToEnd:
    def test_executes_every_scenario(self, dist):
        summary = dist["sharded_summary"]
        assert summary.executed == 4 and summary.failed == 0

    def test_workers_wrote_per_shard_stores(self, dist):
        shard_paths = find_shard_stores(dist["sharded"])
        assert 1 <= len(shard_paths) <= SHARDS
        assert not dist["sharded"].exists()  # the parent never appends
        stored = set()
        for path in shard_paths:
            digests = ResultStore(path).completed_digests()
            assert not (stored & digests)  # each scenario ran exactly once
            stored |= digests
        assert len(stored) == 4

    def test_merge_byte_identical_to_compacted_serial(self, dist):
        merged = merge_stores(find_shard_stores(dist["sharded"]))
        assert merged == compact_store(dist["serial"])
        assert merged  # the gate is vacuous on empty text

    def test_resume_executes_zero_scenarios(self, dist):
        summary = run_campaign(tiny_spec(), str(dist["sharded"]), shards=SHARDS)
        assert summary.executed == 0 and summary.skipped == 4

    def test_resume_across_shard_boundaries(self, dist):
        # a different shard count still sees every completed digest
        summary = run_distributed_campaign(tiny_spec(), dist["sharded"], shards=3)
        assert summary.executed == 0 and summary.skipped == 4

    def test_partial_shard_store_resumes_remainder(self, dist, tmp_path):
        source = find_shard_stores(dist["sharded"])[0]
        done = len(ResultStore(source).records())
        base = tmp_path / "store.jsonl"
        shard_store_path(base, 0).write_bytes(source.read_bytes())
        summary = run_distributed_campaign(tiny_spec(), base, shards=SHARDS)
        assert summary.skipped == done
        assert summary.executed == 4 - done
        merged = merge_stores(find_shard_stores(base))
        assert merged == compact_store(dist["serial"])

    def test_serial_store_participates_in_resume(self, dist, tmp_path):
        base = tmp_path / "store.jsonl"
        base.write_bytes(dist["serial"].read_bytes())
        summary = run_distributed_campaign(tiny_spec(), base, shards=SHARDS)
        assert summary.executed == 0 and summary.skipped == 4

    def test_shards_knob_is_digest_neutral(self):
        plain = [s.digest for s in tiny_spec().expand()]
        sharded = [s.digest for s in tiny_spec(shards=4).expand()]
        assert plain == sharded

    def test_backend_instances_are_rejected(self, tmp_path):
        # there is no backend choice: any backend argument is rejected
        with pytest.raises(TypeError, match="backend"):
            run_distributed_campaign(tiny_spec(), tmp_path / "s.jsonl", shards=2, backend="numpy")


class TestWorkerKillChaos:
    def test_sigkilled_worker_is_respawned_and_bytes_survive(self, dist, tmp_path):
        plan = FaultPlan()
        plan.kill_worker(worker=1, site="campaign.shard", at=(0,))
        base = tmp_path / "store.jsonl"
        summary = run_distributed_campaign(tiny_spec(), base, shards=SHARDS, fault_plan=plan)
        assert summary.executed == 4 and summary.failed == 0
        merged = merge_stores(find_shard_stores(base))
        assert merged == compact_store(dist["serial"])


# ---------------------------------------------------------------------------
# model exchange
# ---------------------------------------------------------------------------


class TestModelExchange:
    def test_roundtrip_across_instances(self, tmp_path):
        ModelExchange(tmp_path).put("k", {"weights": [1, 2, 3]})
        assert ModelExchange(tmp_path).get("k") == {"weights": [1, 2, 3]}

    def test_missing_key_returns_none(self, tmp_path):
        assert ModelExchange(tmp_path).get("absent") is None

    def test_corrupt_entry_returns_none(self, tmp_path):
        exchange = ModelExchange(tmp_path)
        exchange.path_for("k").write_bytes(b"\x00not a pickle")
        assert exchange.get("k") is None

    def test_first_writer_wins(self, tmp_path):
        ModelExchange(tmp_path).put("k", "first")
        ModelExchange(tmp_path).put("k", "second")
        assert ModelExchange(tmp_path).get("k") == "first"

    def test_runner_attaches_published_model(self, tmp_path):
        spec = tiny_spec()
        exchange_dir = tmp_path / "exchange"
        first: list = []
        with CampaignRunner(
            spec,
            ResultStore(tmp_path / "s0.jsonl"),
            progress=first.append,
            model_exchange=ModelExchange(exchange_dir),
        ) as runner:
            runner._prepare_model("mnist")
        assert any("training victim" in msg for msg in first)
        key = spec.training_digest("mnist")
        assert ModelExchange(exchange_dir).path_for(key).exists()

        second: list = []
        with CampaignRunner(
            spec,
            ResultStore(tmp_path / "s1.jsonl"),
            progress=second.append,
            model_exchange=ModelExchange(exchange_dir),
        ) as runner:
            runner._prepare_model("mnist")
        assert any("attached published model" in msg for msg in second)
        assert not any("training victim" in msg for msg in second)


# ---------------------------------------------------------------------------
# satellite: concurrent shard writers, one SIGKILLed mid-append
# ---------------------------------------------------------------------------


class TestConcurrentShardWriters:
    WRITER = """
import sys, time
sys.path.insert(0, {src!r})
from repro.campaign.store import ResultStore, ScenarioRecord

prefix, count, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
store = ResultStore(path)
print("ready", flush=True)
for i in range(count):
    store.append(ScenarioRecord(
        digest=f"{{prefix}}-{{i:03d}}", scenario={{"model": "mnist"}}, seed=i,
        trials=2, detections=1, coverage=0.5))
    time.sleep(0.002)
"""

    def test_merge_matches_single_writer_despite_sigkill(self, tmp_path):
        base = tmp_path / "store.jsonl"
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = self.WRITER.format(src=src)

        def launch(prefix: str, shard: int) -> subprocess.Popen:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    script,
                    prefix,
                    "40",
                    str(shard_store_path(base, shard)),
                ],
                stdout=subprocess.PIPE,
                text=True,
            )
            assert proc.stdout.readline().strip() == "ready"
            return proc

        survivor = launch("a", 0)
        victim = launch("b", 1)
        time.sleep(0.05)  # let both interleave some appends
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        assert survivor.wait(timeout=30) == 0

        shard_paths = find_shard_stores(base)
        assert [p.name for p in shard_paths] == [
            "store.shard0.jsonl",
            "store.shard1.jsonl",
        ]
        merged = merge_stores(shard_paths, output=tmp_path / "merged.jsonl")

        # a single-writer store of the same surviving records must
        # canonicalise to identical bytes (any torn tail is dropped)
        survivors = [r for p in shard_paths for r in ResultStore(p).records()]
        assert {r.digest for r in survivors} >= {f"a-{i:03d}" for i in range(40)}
        reference = tmp_path / "reference.jsonl"
        ref_store = ResultStore(reference)
        for rec in survivors:
            ref_store.append(rec)
        assert merged == compact_store(reference)
        # the merged file itself is whole: every line parses, none torn
        for line in (tmp_path / "merged.jsonl").read_text().splitlines():
            json.loads(line)


# ---------------------------------------------------------------------------
# spill-store garbage collection
# ---------------------------------------------------------------------------


@pytest.fixture
def spill(tmp_path):
    """A spill dir with one stale store, one live store, one quarantined."""
    spill_dir = tmp_path / "spill"
    quarantine = spill_dir / "quarantine"
    quarantine.mkdir(parents=True)
    now = time.time()
    stale = spill_dir / "masks-old.masks"
    stale.write_bytes(b"x" * 64)
    os.utime(stale, (now - 600, now - 600))
    live = spill_dir / "masks-new.masks"
    live.write_bytes(b"y" * 32)
    sidecar = quarantine / "masks-bad.masks"
    sidecar.write_bytes(b"z" * 16)
    os.utime(sidecar, (now - 600, now - 600))
    store = tmp_path / "store.jsonl"
    store.write_text("")
    os.utime(store, (now - 120, now - 120))
    return {"dir": spill_dir, "stale": stale, "live": live, "store": store}


class TestGcSpill:
    def test_dry_run_reports_without_removing(self, spill):
        report = gc_spill(spill["dir"], stores=[spill["store"]], dry_run=True)
        assert set(report.removed) == {
            spill["stale"],
            spill["dir"] / "quarantine" / "masks-bad.masks",
        }
        assert report.reclaimed_bytes == 64 + 16
        assert report.kept == 1
        assert spill["stale"].exists()
        assert "would reclaim 80 bytes" in report.describe()

    def test_removes_stale_and_keeps_live(self, spill):
        report = gc_spill(spill["dir"], stores=[spill["store"]])
        assert not spill["stale"].exists()
        assert spill["live"].exists()
        assert not (spill["dir"] / "quarantine").exists()  # emptied, removed
        assert "reclaimed 80 bytes" in report.describe()

    def test_older_than_cutoff_alone(self, spill):
        report = gc_spill(spill["dir"], older_than_s=300)
        assert spill["stale"] in report.removed
        assert spill["live"].exists()

    def test_stricter_cutoff_wins(self, spill):
        # reference newer than older_than: nothing newer than 10min goes
        report = gc_spill(spill["dir"], stores=[spill["store"]], older_than_s=1, dry_run=True)
        assert spill["live"] not in report.removed  # store mtime still guards

    def test_requires_a_cutoff_source(self, spill):
        with pytest.raises(ValueError, match="cutoff"):
            gc_spill(spill["dir"])

    def test_missing_spill_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            gc_spill(tmp_path / "nowhere", older_than_s=1)

    def test_missing_reference_raises(self, spill, tmp_path):
        with pytest.raises(FileNotFoundError):
            gc_spill(spill["dir"], stores=[tmp_path / "ghost.jsonl"])


# ---------------------------------------------------------------------------
# CLI: merge / compact / gc-spill, and flag validation
# ---------------------------------------------------------------------------


class TestDistributedCLI:
    def test_merge_and_compact_commands(self, tmp_path, capsys):
        base = tmp_path / "store.jsonl"
        ResultStore(shard_store_path(base, 0)).append(record("b"))
        ResultStore(shard_store_path(base, 1)).append(record("a"))
        merged = tmp_path / "merged.jsonl"
        rc = campaign_main(["merge", "--store", str(base), "--out", str(merged)])
        assert rc == 0
        assert "merged 2 store(s)" in capsys.readouterr().out
        assert merged.read_text(encoding="utf-8") == canonical_store_text(
            [record("a"), record("b")], []
        )
        assert campaign_main(["compact", "--store", str(merged)]) == 0
        assert "compacted" in capsys.readouterr().out

    def test_merge_prune_via_cli(self, tmp_path, capsys):
        base = tmp_path / "store.jsonl"
        ResultStore(shard_store_path(base, 0)).append(record("a"))
        rc = campaign_main(["merge", "--store", str(base), "--out", str(base), "--prune"])
        assert rc == 0
        assert "pruned" in capsys.readouterr().out
        assert base.exists()
        assert not shard_store_path(base, 0).exists()

    def test_merge_without_stores_fails(self, tmp_path, capsys):
        rc = campaign_main(["merge", "--store", str(tmp_path / "none.jsonl")])
        assert rc == 1
        assert "no shard stores" in capsys.readouterr().err

    def test_gc_spill_dry_run(self, spill, capsys):
        rc = campaign_main(
            [
                "gc-spill",
                "--spill-dir",
                str(spill["dir"]),
                "--store",
                str(spill["store"]),
                "--dry-run",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "would remove" in out and "would reclaim" in out
        assert spill["stale"].exists()

    def test_gc_spill_without_cutoff_fails(self, spill, capsys):
        rc = campaign_main(["gc-spill", "--spill-dir", str(spill["dir"])])
        assert rc == 1
        assert "cutoff" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# api plumbing
# ---------------------------------------------------------------------------


class TestApiShardsPlumbing:
    def test_run_config_validates_shards(self):
        from repro.api import RunConfig

        RunConfig(shards=2).validate()
        with pytest.raises(ValueError, match="shards"):
            RunConfig(shards=0).validate()

    def test_sweep_request_validates_shards(self):
        from repro.api import SweepRequest

        SweepRequest(spec={"name": "tiny"}, shards=2).validate()
        with pytest.raises(ValueError, match="shards"):
            SweepRequest(spec={"name": "tiny"}, shards=0).validate()

    def test_spec_rejects_invalid_shards(self):
        with pytest.raises(ValueError, match="shards"):
            tiny_spec(shards=0).validate()
