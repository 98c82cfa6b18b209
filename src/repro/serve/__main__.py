"""CLI entry point: ``python -m repro.serve`` (also ``python -m repro serve``).

Starts the validation service's HTTP front end and runs until SIGTERM or
SIGINT, then drains gracefully::

    python -m repro.serve --port 8420
    python -m repro.serve --config serve.toml --run-config run.toml
    python -m repro.serve --port 0 --no-coalesce   # kernel-picked port

One ``serving on http://host:port`` line is printed once the socket is
bound — drivers wait for it before sending traffic.  Exit code 0 on a
clean drain.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.serve.config import ServeConfig
from repro.serve.http import run_server


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve release/validate/sweep over HTTP with request coalescing.",
    )
    parser.add_argument("--config", default=None, help="ServeConfig .toml/.json path")
    parser.add_argument("--host", default=None, help="listen address")
    parser.add_argument(
        "--port", type=int, default=None, help="listen port (0 picks a free one)"
    )
    parser.add_argument(
        "--window", type=float, default=None, dest="coalesce_window_s",
        help="seconds a batch waits for co-travellers before it dispatches "
        "(default 0: after one event-loop yield)",
    )
    parser.add_argument(
        "--no-coalesce", action="store_true",
        help="dispatch every validate alone (benchmark baseline mode)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=None, help="global in-flight request cap"
    )
    parser.add_argument(
        "--tenant-rate", type=float, default=None,
        help="per-tenant token-bucket refill rate (requests/second; 0 = off)",
    )
    parser.add_argument(
        "--artifacts-root", default=None,
        help="directory client-supplied request paths are confined to "
        "(without it, path-taking request fields are refused with 400)",
    )
    parser.add_argument(
        "--run-config", default=None, help="session RunConfig .toml/.json path"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    config = ServeConfig.load(args.config) if args.config else ServeConfig()
    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.coalesce_window_s is not None:
        overrides["coalesce_window_s"] = args.coalesce_window_s
    if args.no_coalesce:
        overrides["coalesce"] = False
    if args.max_pending is not None:
        overrides["max_pending"] = args.max_pending
    if args.tenant_rate is not None:
        overrides["tenant_rate"] = args.tenant_rate
    if args.artifacts_root is not None:
        overrides["artifacts_root"] = args.artifacts_root
    if overrides:
        config = config.with_overrides(**overrides)
        config.validate()
    run_config = None
    if args.run_config is not None:
        from repro.api import RunConfig

        run_config = RunConfig.load(args.run_config)
    try:
        asyncio.run(run_server(config, run_config=run_config))
    except KeyboardInterrupt:  # pragma: no cover - signal handlers cover unix
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
