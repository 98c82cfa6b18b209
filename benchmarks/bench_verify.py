"""Query-efficiency gate: sequential verification must beat full replay.

``repro.online`` replays a validation package in discriminative-power order
with SPRT early stopping instead of replaying every test.  This gate runs
the pinned CI-matrix scenarios — every (model, criterion, attack) cell of
``.github/campaign/ci_matrix.toml`` plus one clean cell per package — and
asserts:

* **identical verdicts**: the sequential verdict matches the full-replay
  verdict (detected / clean) on every scenario;
* **query savings**: across all scenarios, sequential verification issues
  at least :data:`QUERY_RATIO_FLOOR`× fewer queries than full replay;
* **remote byte-identity**: an un-budgeted full replay driven through
  :class:`repro.online.RemoteModel` against a loopback serve process
  produces the same mismatch set, bit for bit, as in-process
  :func:`repro.validation.validate_ip`.

Run with::

    PYTHONPATH=src python benchmarks/bench_verify.py

Set ``BENCH_VERIFY_SKIP_REMOTE=1`` to skip the loopback HTTP leg (for
sandboxes without sockets).  A loopback server that fails to start, or does
not bind within :data:`SERVER_START_TIMEOUT_S`, fails the gate.
"""

from __future__ import annotations

import asyncio
import os
import threading

import numpy as np

from repro.api import ReleaseRequest, RunConfig, Session
from repro.online import CallableTransport, RemoteModel, verify_online
from repro.validation import default_attack_factories, validate_ip

#: the pinned CI-matrix axes (.github/campaign/ci_matrix.toml)
MODELS = ("mnist", "cifar")
CRITERIA = ("default", "exact")
ATTACKS = ("sba", "gda", "random", "bitflip")
SEED = 2019
#: tampered copies per (model, criterion, attack) cell
TRIALS = 3
#: total full-replay queries must exceed sequential queries by this factor
QUERY_RATIO_FLOOR = 3.0
#: seconds the loopback server may take to bind before the remote leg fails
SERVER_START_TIMEOUT_S = 30.0

RELEASE_SPEC = dict(
    num_tests=24,
    strategy="combined",
    train_size=80,
    test_size=24,
    epochs=2,
    width_multiplier=0.125,
    candidate_pool=40,
    gradient_updates=8,
    measure_discrimination=True,
    discrimination_trials=4,
    seed=SEED,
)


def _scenarios(session):
    """Yield (label, ip_callable, package, expect_detected) per cell."""
    for model_name in MODELS:
        for criterion in CRITERIA:
            released = session.release(
                ReleaseRequest(
                    dataset=model_name, criterion=criterion, **RELEASE_SPEC
                )
            )
            package = released.package
            yield f"{model_name}/{criterion}/clean", released.model, package, False
            factories = default_attack_factories(package.tests)
            for attack in ATTACKS:
                rng = np.random.default_rng(SEED + ATTACKS.index(attack))
                for trial in range(TRIALS):
                    tampered = factories[attack](rng).apply(released.model).model
                    label = f"{model_name}/{criterion}/{attack}#{trial}"
                    yield label, tampered, package, None  # verdict from replay


def _remote_leg(session, released) -> None:
    """Loopback serve: RemoteModel full replay == in-process validate_ip."""
    import tempfile

    from repro.online import HttpTransport
    from repro.serve.config import ServeConfig
    from repro.serve.http import HttpServer
    from repro.serve.service import ValidationService

    tmp = tempfile.mkdtemp(prefix="bench_verify_")
    released.save(tmp)
    holder: dict = {}
    ready = threading.Event()

    def run_server() -> None:
        async def main() -> None:
            config = ServeConfig(port=0, artifacts_root=tmp)
            service = ValidationService(config)
            server = HttpServer(service, config)
            _, port = await server.start()
            holder["port"] = port
            holder["loop"] = asyncio.get_running_loop()
            stop = asyncio.Event()
            holder["stop"] = stop
            ready.set()
            await stop.wait()
            await server.stop()

        try:
            asyncio.run(main())
        except BaseException as exc:
            holder["error"] = exc
        finally:
            ready.set()

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    if not ready.wait(SERVER_START_TIMEOUT_S):
        raise TimeoutError(
            f"loopback server did not bind within {SERVER_START_TIMEOUT_S:g} s"
        )
    if "error" in holder:
        raise holder["error"]
    url = f"http://127.0.0.1:{holder['port']}"
    try:
        remote = RemoteModel(
            HttpTransport(
                url,
                model_path="model.npz",
                arch=released.request.dataset,
                width_multiplier=released.request.width_multiplier,
            )
        )
        remote_report = validate_ip(remote, released.package)
        local_report = validate_ip(released.model, released.package)
        assert list(remote_report.mismatched_indices) == list(
            local_report.mismatched_indices
        )
        assert np.float64(remote_report.max_output_deviation) == np.float64(
            local_report.max_output_deviation
        ), "remote replay must be bitwise-identical to validate_ip"
        assert np.array_equal(
            remote(released.package.tests),
            released.model.predict(released.package.tests),
        )
        print(
            f"remote byte-identity: OK "
            f"({remote.ledger.queries_sent} queries over HTTP)"
        )
    finally:
        holder["loop"].call_soon_threadsafe(holder["stop"].set)
        thread.join(timeout=10)


def main() -> None:
    session = Session(RunConfig(seed=SEED))
    cells = list(_scenarios(session))
    print(f"workload: {len(cells)} pinned scenarios")

    full_queries = 0
    sequential_queries = 0
    mismatched_verdicts = []
    for label, ip, package, expect_detected in cells:
        full = validate_ip(ip, package)
        full_queries += package.num_tests
        remote = RemoteModel(CallableTransport(ip.predict), cache=False)
        report = verify_online(remote, package)
        sequential_queries += report.queries_used
        if report.detected != full.detected:
            mismatched_verdicts.append(label)
        if expect_detected is not None and full.detected != expect_detected:
            mismatched_verdicts.append(f"{label} (full replay surprise)")

    ratio = full_queries / sequential_queries if sequential_queries else float("inf")
    print(f"full replay:  {full_queries} queries")
    print(f"sequential:   {sequential_queries} queries")
    print(f"query ratio:  {ratio:.2f}x (floor {QUERY_RATIO_FLOOR:.1f}x)")

    assert not mismatched_verdicts, (
        "sequential verdict diverged from full replay on: "
        + ", ".join(mismatched_verdicts)
    )
    assert ratio >= QUERY_RATIO_FLOOR, (
        f"sequential verification saved only {ratio:.2f}x queries; "
        f"the floor is {QUERY_RATIO_FLOOR:.1f}x"
    )

    if os.environ.get("BENCH_VERIFY_SKIP_REMOTE"):
        print("BENCH_VERIFY_SKIP_REMOTE set: loopback HTTP leg skipped")
    else:
        released = session.release(
            ReleaseRequest(dataset="mnist", criterion="default", **RELEASE_SPEC)
        )
        _remote_leg(session, released)

    print("PASS")


if __name__ == "__main__":
    main()
