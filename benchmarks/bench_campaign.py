"""Micro-benchmark: distributed campaign shards vs the serial runner.

Runs a small campaign (four attack units on one model) twice — serially
through :class:`repro.campaign.CampaignRunner` and distributed across
:data:`CAMPAIGN_SHARDS` worker shards — and gates the two contracts of the
distributed runner:

* **byte-stability**: the canonical merge of the per-shard stores is
  byte-identical to the canonical compaction of the serial store (record
  bytes depend only on the spec and scenario, never on which process
  executed them);
* **speedup**: on a host with at least :data:`CAMPAIGN_SHARDS` cores, the
  sharded run completes ≥2× faster than the serial one (the acceptance
  criterion of the distributed executor).

Run with::

    PYTHONPATH=src python benchmarks/bench_campaign.py

The speedup assertion is skipped automatically on hosts with fewer cores
than shards, and can be demoted explicitly with
``BENCH_CAMPAIGN_SKIP_SPEEDUP=1`` (shared CI runners advertise cores they
do not deliver).  The byte-identity assertion always runs.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    compact_store,
    find_shard_stores,
    merge_stores,
    run_campaign,
)

#: minimum serial/sharded wall ratio on an adequately-cored host
SPEEDUP_FLOOR = 2.0

#: worker shards of the distributed run (the speedup is gated at this shard
#: count on a host with at least as many cores)
CAMPAIGN_SHARDS = 4

#: one model, one strategy and one work unit per shard, with trials heavy
#: enough that the paired-replay stage (the parallelisable part) dominates
#: the duplicated per-worker training
CAMPAIGN_SHARDS_SPEC = dict(
    name="bench-campaign-shards",
    attacks=("sba", "gda", "random", "bitflip"),
    models=("mnist",),
    criteria=("default",),
    strategies=("random",),
    budgets=(2,),
    trials=16,
    train_size=24,
    test_size=12,
    epochs=1,
    width_multiplier=0.08,
    candidate_pool=12,
    gradient_updates=3,
    reference_inputs=6,
)


def main() -> None:
    spec = CampaignSpec(**CAMPAIGN_SHARDS_SPEC)  # type: ignore[arg-type]
    scenarios = spec.expand()
    cores = len(os.sched_getaffinity(0))
    print(
        f"campaign: {len(scenarios)} scenarios "
        f"({len(spec.models)} model x {len(spec.attacks)} attacks), "
        f"{spec.trials} trials each"
    )
    print(f"host: {cores} cores; shards: {CAMPAIGN_SHARDS}")

    with tempfile.TemporaryDirectory() as tmp:
        serial_store = Path(tmp) / "serial.jsonl"
        serial_start = time.perf_counter()
        serial_summary = run_campaign(spec, str(serial_store))
        serial_wall = time.perf_counter() - serial_start
        assert serial_summary.executed == len(scenarios)
        print(f"serial:  {serial_wall * 1e3:9.1f} ms ({serial_summary.describe()})")

        sharded_store = Path(tmp) / "sharded.jsonl"
        sharded_start = time.perf_counter()
        sharded_summary = run_campaign(spec, str(sharded_store), shards=CAMPAIGN_SHARDS)
        sharded_wall = time.perf_counter() - sharded_start
        assert sharded_summary.executed == len(scenarios)
        print(f"sharded: {sharded_wall * 1e3:9.1f} ms ({sharded_summary.describe()})")

        shard_paths = find_shard_stores(sharded_store)
        assert shard_paths, "distributed run produced no shard stores"
        merged = merge_stores(shard_paths, output=Path(tmp) / "merged.jsonl")
        compacted = compact_store(serial_store, output=Path(tmp) / "compacted.jsonl")
        assert merged == compacted, (
            "merge of the shard stores must be byte-identical to the "
            "compacted serial store"
        )
        print(f"byte-identity: OK ({len(merged)} canonical bytes)")

        speedup = serial_wall / sharded_wall if sharded_wall > 0 else float("inf")
        print(f"speedup: {speedup:.2f}x (floor {SPEEDUP_FLOOR:.1f}x)")

        skip_env = os.environ.get("BENCH_CAMPAIGN_SKIP_SPEEDUP") == "1"
        if cores < CAMPAIGN_SHARDS:
            print(
                f"speedup gate skipped: host has {cores} core(s), "
                f"gate requires >= {CAMPAIGN_SHARDS}"
            )
        elif skip_env:
            print("speedup gate skipped: BENCH_CAMPAIGN_SKIP_SPEEDUP=1")
        else:
            assert speedup >= SPEEDUP_FLOOR, (
                f"--shards {CAMPAIGN_SHARDS} must run >= {SPEEDUP_FLOOR:.1f}x "
                f"faster than serial on a {cores}-core host, got {speedup:.2f}x"
            )


if __name__ == "__main__":
    main()
