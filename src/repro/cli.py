"""The unified command-line interface: ``python -m repro``.

One front door over every operational surface of the library::

    python -m repro release  --dataset mnist --tests 12 --out release/
    python -m repro validate --package release/package.npz \\
        --model release/model.npz --arch mnist
    python -m repro verify   --package release/package.npz \\
        --remote http://127.0.0.1:8420 --model model.npz
    python -m repro campaign run --spec spec.toml --store results.jsonl
    python -m repro serve --port 8420
    python -m repro registry --namespace strategies
    python -m repro version

``campaign`` and ``serve`` delegate to the existing subsystem CLIs
(``python -m repro.campaign`` / ``python -m repro.serve``), which keep
working standalone; ``release`` and ``validate`` drive the
:class:`repro.api.Session` façade; ``registry`` lists the cross-subsystem
plugin registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Functional test generation for DNN IPs: release packages, "
            "validate black-box IPs and run campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    release = sub.add_parser(
        "release", help="vendor side: train a model and release a validation package"
    )
    release.add_argument("--dataset", default="mnist", help="registry dataset name")
    release.add_argument(
        "--tests", type=int, default=20, dest="num_tests", help="functional-test budget"
    )
    release.add_argument("--strategy", default="combined", help="generation strategy")
    release.add_argument("--criterion", default="default", help="coverage criterion")
    release.add_argument("--train-size", type=int, default=300)
    release.add_argument("--test-size", type=int, default=80)
    release.add_argument(
        "--epochs", type=int, default=None, help="default: the dataset recipe's epochs"
    )
    release.add_argument("--width", type=float, default=0.125, dest="width_multiplier")
    release.add_argument(
        "--pool", type=int, default=100, dest="candidate_pool", help="candidate pool size"
    )
    release.add_argument(
        "--updates", type=int, default=30, dest="gradient_updates",
        help="Algorithm 2 gradient updates",
    )
    release.add_argument("--seed", type=int, default=0)
    release.add_argument(
        "--measure-discrimination", action="store_true",
        dest="measure_discrimination",
        help="score each test's discriminative power against the surrogate "
        "attack suite and ship the scores in the package (format v3)",
    )
    release.add_argument(
        "--discrimination-trials", type=int, default=8,
        dest="discrimination_trials",
        help="perturbed copies per attack when measuring discrimination",
    )
    release.add_argument(
        "--out", required=True, help="directory for model.npz + package.npz"
    )
    _add_run_config_flags(release)

    validate = sub.add_parser(
        "validate", help="user side: replay a package against a black-box IP"
    )
    validate.add_argument("--package", required=True, help="package .npz path")
    validate.add_argument(
        "--model", required=True, dest="model_path", help="received model .npz path"
    )
    validate.add_argument(
        "--arch", default="mnist", help="registry model name to rebuild the IP"
    )
    validate.add_argument("--width", type=float, default=0.125, dest="width_multiplier")
    validate.add_argument(
        "--input-size", type=int, default=None,
        help="default: read from the model file's metadata",
    )
    validate.add_argument(
        "--expect-detected", action="store_true",
        help="exit 0 when tampering IS detected (for negative tests)",
    )
    _add_run_config_flags(validate)

    verify = sub.add_parser(
        "verify",
        help="query-budgeted online verification: sequential early-stopping "
        "replay against a local model file or a live serve endpoint",
    )
    verify.add_argument("--package", required=True, help="package .npz path")
    verify.add_argument(
        "--model", default=None, dest="model_path",
        help="model .npz path: local file, or (with --remote) the "
        "server-side path under the serve process's --artifacts-root",
    )
    verify.add_argument(
        "--remote", default=None, dest="remote_url",
        help="base URL of a live `python -m repro serve` endpoint; the IP "
        "is queried over HTTP instead of loaded locally",
    )
    verify.add_argument(
        "--arch", default="mnist", help="registry model name to rebuild the IP"
    )
    verify.add_argument("--width", type=float, default=0.125, dest="width_multiplier")
    verify.add_argument(
        "--input-size", type=int, default=None,
        help="default: read from the model file's metadata",
    )
    verify.add_argument(
        "--mode", default="sequential", choices=("sequential", "full"),
        help="sequential = SPRT early stopping (default); full = replay all",
    )
    verify.add_argument(
        "--budget", type=int, default=None, dest="query_budget",
        help="hard cap on queries before an undecided verdict",
    )
    verify.add_argument(
        "--confidence", type=float, default=0.99,
        help="target decision confidence (alpha = beta = 1 - confidence)",
    )
    verify.add_argument(
        "--transport", default=None,
        help="transports-registry name (default: http when --remote is given)",
    )
    verify.add_argument(
        "--micro-batch", type=int, default=None, dest="micro_batch",
        help="inputs per remote request",
    )
    verify.add_argument(
        "--expect-detected", action="store_true",
        help="exit 0 when tampering IS detected (for negative tests)",
    )
    _add_run_config_flags(verify)

    registry_cmd = sub.add_parser(
        "registry", help="list the cross-subsystem plugin registry"
    )
    registry_cmd.add_argument(
        "--namespace", default=None, help="restrict the listing to one namespace"
    )
    registry_cmd.add_argument(
        "--discover", action="store_true",
        help="load third-party 'repro.plugins' entry points first",
    )

    sub.add_parser("version", help="print the library version")

    for name, doc in (
        ("campaign", "declarative evaluation sweeps (python -m repro.campaign)"),
        ("serve", "validation-as-a-service HTTP endpoint (python -m repro.serve)"),
    ):
        delegate = sub.add_parser(name, help=doc, add_help=False)
        delegate.add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def _add_run_config_flags(cmd: argparse.ArgumentParser) -> None:
    from repro.engine import BACKENDS

    cmd.add_argument(
        "--backend",
        default="numpy",
        help=f"engine backend ({', '.join(BACKENDS)})",
    )


def _session(args: argparse.Namespace):
    from repro.api import RunConfig, Session

    return Session(RunConfig(backend=args.backend))


def _cmd_release(args: argparse.Namespace) -> int:
    from repro.api import ReleaseRequest

    request = ReleaseRequest(
        dataset=args.dataset,
        num_tests=args.num_tests,
        strategy=args.strategy,
        criterion=args.criterion,
        train_size=args.train_size,
        test_size=args.test_size,
        epochs=args.epochs,
        width_multiplier=args.width_multiplier,
        candidate_pool=args.candidate_pool,
        gradient_updates=args.gradient_updates,
        measure_discrimination=args.measure_discrimination,
        discrimination_trials=args.discrimination_trials,
        seed=args.seed,
    )
    with _session(args) as session:
        released = session.release(request)
        paths = released.save(args.out)
    print(released.describe())
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind}: {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.api import ValidateRequest

    request = ValidateRequest(
        package=args.package,
        model_path=args.model_path,
        arch=args.arch,
        width_multiplier=args.width_multiplier,
        input_size=args.input_size,
    )
    with _session(args) as session:
        outcome = session.validate(request)
    print(outcome.summary())
    if args.expect_detected:
        return 0 if outcome.detected else 3
    return 0 if outcome.passed else 3


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.api import ValidateRequest

    request = ValidateRequest(
        package=args.package,
        model_path=args.model_path,
        arch=args.arch,
        width_multiplier=args.width_multiplier,
        input_size=args.input_size,
        mode=args.mode,
        query_budget=args.query_budget,
        confidence=args.confidence,
        remote_url=args.remote_url,
        transport=args.transport,
        micro_batch=args.micro_batch,
    )
    with _session(args) as session:
        outcome = session.validate(request)
    print(outcome.summary())
    if outcome.ledger is not None:
        ledger = outcome.ledger
        print(
            "ledger: {queries_sent} queries in {requests} request(s), "
            "{cache_hits} cache hit(s), {retries} retried".format(
                queries_sent=ledger.get("queries_sent", 0),
                requests=ledger.get("requests", 0),
                cache_hits=ledger.get("cache_hits", 0),
                retries=ledger.get("retries", 0),
            )
        )
    if args.expect_detected:
        return 0 if outcome.detected else 3
    return 0 if outcome.passed else 3


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.registry import discover_entry_points, registry

    if args.discover:
        hooks = discover_entry_points()
        print(f"loaded {hooks} plugin hook(s)")
    namespaces = [args.namespace] if args.namespace else registry.namespaces()
    for namespace in namespaces:
        entries = registry.entries(namespace)
        print(f"[{namespace}] {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
        for entry in entries:
            knobs = (
                "  knobs: " + ", ".join(f"{k}<-{v}" for k, v in entry.knobs.items())
                if entry.knobs
                else ""
            )
            metadata = (
                "  metadata: "
                + ", ".join(f"{k}={v}" for k, v in entry.metadata.items())
                if entry.metadata
                else ""
            )
            summary = f" — {entry.summary}" if entry.summary else ""
            print(f"  {entry.name}{summary}{knobs}{metadata}")
    return 0


def _cmd_version(args: argparse.Namespace) -> int:
    from repro import __version__

    print(__version__)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # delegate before argparse so the sub-CLIs own their --help and flags
    if argv and argv[0] == "campaign":
        from repro.campaign.__main__ import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.__main__ import main as serve_main

        return serve_main(argv[1:])
    args = _parser().parse_args(argv)
    handlers = {
        "release": _cmd_release,
        "validate": _cmd_validate,
        "verify": _cmd_verify,
        "registry": _cmd_registry,
        "version": _cmd_version,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
