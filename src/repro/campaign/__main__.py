"""CLI entry point: ``python -m repro.campaign``.

Subcommands::

    # execute a spec into a JSONL store (skips already-completed scenarios)
    python -m repro.campaign run --spec spec.toml --store results.jsonl

    # alias of run — the store already encodes what is left to do
    python -m repro.campaign resume --spec spec.toml --store results.jsonl

    # distribute across 4 worker shards (results.shard<k>.jsonl each),
    # then fold the shard stores into one canonical byte-stable store
    python -m repro.campaign run --spec spec.toml --store results.jsonl --shards 4
    python -m repro.campaign merge --store results.jsonl --prune

    # canonicalise a (serial) store: digest-sorted, failures healed
    python -m repro.campaign compact --store results.jsonl

    # reclaim spill mask stores unreferenced by the given artifacts
    python -m repro.campaign gc-spill --spill-dir spill/ \
        --store results.jsonl --dry-run

    # fold a store into the Tables II/III-style markdown report (and CSV)
    python -m repro.campaign report --store results.jsonl --out report.md

    # gate a store against a committed expectations file (CI drift check)
    python -m repro.campaign diff --store results.jsonl \
        --expectations expectations.json

    # (re)generate the expectations file from a completed store
    python -m repro.campaign expectations --store results.jsonl \
        --out expectations.json

``run``/``resume`` print the executed/skipped summary; ``diff`` exits
non-zero when any scenario's detection outcome drifted.

Exit codes for ``run``/``resume``: 0 on a clean run, 2 when the run
completed but quarantined failures remain in the store, 3 when
``--max-failures`` aborted the campaign, 130 on Ctrl-C (the store is
flushed per append, so ``resume`` re-executes nothing already recorded).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import (
    ResultStore,
    diff_against_expectations,
    expectations_from_records,
)
from repro.engine import BACKENDS
from repro.faults import CampaignAbortedError


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Run, resume, report and gate declarative evaluation campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("run", "execute the spec's pending scenarios into the store"),
        ("resume", "alias of run: completed scenarios are skipped either way"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--spec", required=True, help="campaign spec (.toml or .json)")
        cmd.add_argument("--store", required=True, help="JSONL result store path")
        cmd.add_argument(
            "--backend",
            default="numpy",
            help=f"engine backend for the whole campaign ({', '.join(BACKENDS)})",
        )
        cmd.add_argument("--report", default=None, help="also write the markdown report here")
        cmd.add_argument(
            "--durable",
            action="store_true",
            help="fsync the store after every append (crash durability)",
        )
        cmd.add_argument(
            "--max-failures",
            type=int,
            default=None,
            help="abort once more than this many scenarios are quarantined "
            "(default: quarantine everything, never abort)",
        )
        cmd.add_argument(
            "--spill-dir",
            default=None,
            help="packed-mask spill directory for the per-model engines",
        )
        cmd.add_argument(
            "--shards",
            type=int,
            default=None,
            help="distribute across this many worker processes, each "
            "appending to <store>.shard<k>.jsonl (default: spec.shards); "
            "use 'merge' afterwards for the combined store",
        )
        cmd.add_argument(
            "--stall-timeout",
            type=float,
            default=None,
            help="seconds of shard-worker silence before it is killed and "
            "its unit requeued (distributed runs only)",
        )

    merge = sub.add_parser(
        "merge",
        help="merge per-shard stores into one canonical byte-stable store",
    )
    merge.add_argument(
        "--store",
        required=True,
        help="base store path; its <store>.shard<k>.jsonl siblings are merged",
    )
    merge.add_argument(
        "--out",
        default=None,
        help="merged store output path (default: the base store path)",
    )
    merge.add_argument(
        "--prune",
        action="store_true",
        help="remove the shard stores after a successful merge",
    )

    compact = sub.add_parser(
        "compact",
        help="rewrite one store in canonical form (digest-sorted, healed)",
    )
    compact.add_argument("--store", required=True, help="JSONL result store path")
    compact.add_argument("--out", default=None, help="output path (default: compact in place)")

    gc = sub.add_parser(
        "gc-spill",
        help="reclaim unreferenced spill mask stores and quarantine sidecars",
    )
    gc.add_argument("--spill-dir", required=True, help="spill directory to sweep")
    gc.add_argument(
        "--store",
        action="append",
        default=[],
        help="live result store (repeatable); everything older than the "
        "oldest given reference is unreferenced",
    )
    gc.add_argument(
        "--spec",
        action="append",
        default=[],
        help="live campaign spec (repeatable), same role as --store",
    )
    gc.add_argument(
        "--older-than",
        type=float,
        default=None,
        help="also reclaim anything older than this many seconds",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="list reclaimable files and bytes without deleting",
    )

    report = sub.add_parser("report", help="render a store as markdown/CSV tables")
    report.add_argument("--store", required=True, help="JSONL result store path")
    report.add_argument("--out", default=None, help="markdown output path (default: stdout)")
    report.add_argument("--csv", default=None, help="also write the flat CSV here")

    diff = sub.add_parser("diff", help="compare a store against a committed expectations file")
    diff.add_argument("--store", required=True, help="JSONL result store path")
    diff.add_argument(
        "--expectations", required=True, help="expectations JSON (see 'expectations')"
    )

    expect = sub.add_parser(
        "expectations", help="generate an expectations file from a completed store"
    )
    expect.add_argument("--store", required=True, help="JSONL result store path")
    expect.add_argument("--out", required=True, help="expectations JSON output path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    spec = CampaignSpec.load(args.spec)
    scenarios = spec.expand()
    print(
        f"campaign {spec.name!r}: {len(scenarios)} scenarios "
        f"({len(spec.models)} models x {len(spec.attacks)} attacks x "
        f"{len(spec.criteria)} criteria x {len(spec.strategies)} strategies x "
        f"{len(spec.budgets)} budgets)"
    )
    shards = args.shards if args.shards is not None else spec.shards
    distributed = shards > 1
    store = None if distributed else ResultStore(args.store, durable=args.durable)
    try:
        if distributed:
            from repro.campaign.distributed import run_distributed_campaign

            summary = run_distributed_campaign(
                spec,
                args.store,
                shards=shards,
                backend=args.backend,
                progress=print,
                max_failures=args.max_failures,
                spill_dir=args.spill_dir,
                durable=args.durable,
                stall_timeout_s=args.stall_timeout,
            )
        else:
            summary = run_campaign(
                spec,
                store,
                backend=args.backend,
                progress=print,
                max_failures=args.max_failures,
                spill_dir=args.spill_dir,
            )
    except KeyboardInterrupt:
        # every completed scenario is already flushed to the store — resume
        # picks up with zero re-execution
        print(
            f"\ninterrupted: store {args.store} is consistent; "
            "resume with the same spec to continue",
            file=sys.stderr,
        )
        return 130
    except CampaignAbortedError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    print(summary.describe())
    records, quarantined = _store_view(args.store)
    if args.report is not None:
        from repro.analysis.campaign import write_campaign_report

        path = write_campaign_report(records, args.report, title=spec.name)
        print(f"wrote report to {path}")
    if quarantined:
        print(
            f"{len(quarantined)} scenario(s) remain "
            "quarantined — 'resume' retries them",
            file=sys.stderr,
        )
        return 2
    return 0


def _store_view(base: str):
    """Records and quarantined digests across the base and shard stores."""
    from repro.campaign.distributed import find_shard_stores

    records = {}
    quarantined = set()
    paths = [Path(base)] + find_shard_stores(base)
    for path in paths:
        if not path.exists():
            continue
        shard = ResultStore(path)
        for record in shard.records():
            records.setdefault(record.digest, record)
        quarantined |= shard.quarantined_digests()
    return list(records.values()), quarantined - set(records)


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.campaign.distributed import find_shard_stores, merge_stores

    shard_paths = find_shard_stores(args.store)
    base = Path(args.store)
    if base.exists():
        # a previous serial run or merge participates like a shard
        shard_paths = [base] + shard_paths
    if not shard_paths:
        print(f"no shard stores found next to {args.store}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out is not None else base
    merge_stores(shard_paths, output=out, prune=args.prune)
    merged = ResultStore(out)
    pruned = " (shard stores pruned)" if args.prune else ""
    print(
        f"merged {len(shard_paths)} store(s) into {out}: "
        f"{len(merged)} records, {len(merged.failures())} quarantined{pruned}"
    )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.campaign.distributed import compact_store

    out = Path(args.out) if args.out is not None else Path(args.store)
    compact_store(args.store, output=out)
    compacted = ResultStore(out)
    print(
        f"compacted {args.store} -> {out}: {len(compacted)} records, "
        f"{len(compacted.failures())} quarantined"
    )
    return 0


def _cmd_gc_spill(args: argparse.Namespace) -> int:
    from repro.campaign.gc import gc_spill

    try:
        report = gc_spill(
            args.spill_dir,
            stores=args.store,
            specs=args.spec,
            older_than_s=args.older_than,
            dry_run=args.dry_run,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"gc-spill: {exc}", file=sys.stderr)
        return 1
    for path in report.removed:
        print(f"{'would remove' if args.dry_run else 'removed'} {path}")
    print(report.describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import campaign_csv, render_campaign_report

    store = ResultStore(args.store)
    records = store.records()
    if not records:
        print(f"store {args.store} is empty — run the campaign first", file=sys.stderr)
        return 1
    text = render_campaign_report(records)
    if args.out is None:
        print(text)
    else:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote report to {path} ({len(records)} scenarios)")
    if args.csv is not None:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(campaign_csv(records), encoding="utf-8")
        print(f"wrote CSV to {path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    expectations = json.loads(Path(args.expectations).read_text(encoding="utf-8"))
    drifts = diff_against_expectations(store.records(), expectations)
    if not drifts:
        print(f"no drift: {len(store)} scenarios match {args.expectations}")
        return 0
    for drift in drifts:
        print(f"DRIFT: {drift}", file=sys.stderr)
    print(f"{len(drifts)} drifted scenario(s)", file=sys.stderr)
    return 1


def _cmd_expectations(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = store.records()
    if not records:
        print(f"store {args.store} is empty — run the campaign first", file=sys.stderr)
        return 1
    doc = expectations_from_records(records)
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(records)} scenarios to {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "resume": _cmd_run,
        "merge": _cmd_merge,
        "compact": _cmd_compact,
        "gc-spill": _cmd_gc_spill,
        "report": _cmd_report,
        "diff": _cmd_diff,
        "expectations": _cmd_expectations,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
