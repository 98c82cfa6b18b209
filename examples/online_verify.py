"""Online verification: query-budgeted detection of a remote, billed IP.

Releases a validation package with per-fingerprint discrimination scores,
starts the stdlib-only serve endpoint (:mod:`repro.serve`) on an ephemeral
port, and verifies two deployed models over the wire with
:class:`repro.online.RemoteModel`:

* the intact model — the sequential verifier replays fingerprints in
  discriminative-power order and accepts SECURE as soon as the SPRT clean
  threshold is crossed (never before the curtailment floor), spending
  fewer queries than a full replay;
* a tampered copy — one mismatching probe crosses the tampered threshold,
  so TAMPERED is typically declared after a single billed query.

The transport's ledger and the server's ``/stats`` both confirm the
savings: the endpoint billed strictly fewer inputs per verdict than the
fingerprint-set size.

Run with:  python examples/online_verify.py

The same flow runs against any standalone endpoint::

    python -m repro serve --port 8420 --artifacts-root artifacts/
    python -m repro verify --package artifacts/package.npz \
        --remote http://127.0.0.1:8420 --model model.npz
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro import ReleaseRequest, Session
from repro.attacks import SingleBiasAttack
from repro.nn.serialization import save_model
from repro.online import HttpTransport, RemoteModel, verify_online
from repro.serve import HttpClient, HttpServer, ServeConfig, ValidationService
from repro.utils.config import env_int
from repro.validation import clean_floor

WIDTH = 0.125


def release_artifacts(directory: Path) -> dict:
    """Vendor side: train, generate, score discrimination, save + tamper."""
    request = ReleaseRequest(
        dataset="mnist",
        num_tests=env_int("REPRO_EXAMPLE_TESTS", 8),
        train_size=env_int("REPRO_EXAMPLE_TRAIN", 120),
        test_size=env_int("REPRO_EXAMPLE_TEST", 40),
        epochs=env_int("REPRO_EXAMPLE_EPOCHS", 2),
        candidate_pool=env_int("REPRO_EXAMPLE_POOL", 30),
        gradient_updates=env_int("REPRO_EXAMPLE_UPDATES", 10),
        width_multiplier=WIDTH,
        measure_discrimination=True,
        discrimination_trials=env_int("REPRO_EXAMPLE_TRIALS", 4),
    )
    with Session() as session:
        released = session.release(request)
    print(released.describe())
    paths = released.save(directory)
    tampered = SingleBiasAttack(rng=3).apply(released.model).model
    paths["tampered"] = save_model(tampered, directory / "tampered.npz")
    paths["package_obj"] = released.package
    return paths


def verify_over_the_wire(url: str, paths: dict, model_file: str):
    """User side: sequential verification of one deployed model."""
    remote = RemoteModel(
        HttpTransport(
            url,
            model_path=model_file,
            arch="mnist",
            width_multiplier=WIDTH,
        )
    )
    report = verify_online(remote, paths["package_obj"])
    print(f"  {model_file}: {report.summary()}")
    ledger = report.ledger
    print(
        f"    ledger: {ledger['queries_sent']} queries in "
        f"{ledger['requests']} request(s), {ledger['cache_hits']} cache hit(s)"
    )
    return report


async def drive(paths: dict) -> None:
    root = str(Path(paths["package"]).parent)
    service = ValidationService(ServeConfig(port=0, artifacts_root=root))
    server = HttpServer(service)
    host, port = await server.start()
    url = f"http://{host}:{port}"
    print(f"serving on {url}")
    num_tests = paths["package_obj"].num_tests
    try:
        loop = asyncio.get_running_loop()
        clean = await loop.run_in_executor(
            None, verify_over_the_wire, url, paths, "model.npz"
        )
        assert not clean.detected and clean.verdict == "clean"
        floor = clean_floor(num_tests)
        assert clean.queries_used >= floor, "clean verdict before the floor"
        if floor < num_tests:
            # a small fingerprint set can put the floor at the full set, and
            # then no clean verdict can save a query
            assert clean.queries_used < num_tests, "clean verdict must save queries"

        tampered = await loop.run_in_executor(
            None, verify_over_the_wire, url, paths, "tampered.npz"
        )
        assert tampered.detected and tampered.decided
        assert tampered.queries_used <= clean.queries_used

        stats = await HttpClient(host, port).stats()
        billed = stats["queries"]["inputs"]
        print(
            f"endpoint billed {billed} inputs across both verdicts "
            f"(full replay would bill {2 * num_tests})"
        )
        assert billed < 2 * num_tests, "sequential mode must under-bill full replay"
    finally:
        await server.stop()
    print("server drained cleanly")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = release_artifacts(Path(tmp))
        asyncio.run(drive(paths))
    print(
        "expected shape: the intact model is declared SECURE at the clean "
        "curtailment floor, the tampered copy TAMPERED after one probe, and "
        "the endpoint bills fewer inputs than two full replays"
    )


if __name__ == "__main__":
    main()
