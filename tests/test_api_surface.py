"""API-stability snapshot: the public façade surface is pinned.

Walks every ``__all__`` export of ``repro``, ``repro.api``,
``repro.registry``, ``repro.engine``, ``repro.nn`` and ``repro.coverage``
with its signature (see ``repro.api.surface``) and
compares against the committed ``tests/data/api_surface.json``.  Any
accidental breaking change — removed export, changed signature, renamed
dataclass field — fails here (and in the CI lint job's ``api-surface``
step).  Intentional changes re-pin with::

    PYTHONPATH=src python scripts/check_api_surface.py --update
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.surface import SURFACE_MODULES, api_surface

SNAPSHOT = Path(__file__).parent / "data" / "api_surface.json"


@pytest.fixture(scope="module")
def live_surface():
    return api_surface()


def test_snapshot_file_exists():
    assert SNAPSHOT.exists(), (
        "missing tests/data/api_surface.json — pin it with "
        "`PYTHONPATH=src python scripts/check_api_surface.py --update`"
    )


def test_surface_matches_snapshot(live_surface):
    pinned = json.loads(SNAPSHOT.read_text())
    assert live_surface == pinned, (
        "public API surface drifted from tests/data/api_surface.json; if the "
        "change is intentional, re-pin with `PYTHONPATH=src python "
        "scripts/check_api_surface.py --update` and commit the diff"
    )


def test_surface_covers_all_facade_modules(live_surface):
    assert tuple(live_surface) == SURFACE_MODULES


def test_surface_pins_core_names(live_surface):
    # belt-and-braces: the names the README quickstart depends on are present
    assert "Session" in live_surface["repro.api"]
    assert "RunConfig" in live_surface["repro.api"]
    assert "ReleaseRequest" in live_surface["repro.api"]
    assert "ValidationOutcome" in live_surface["repro.api"]
    assert "register" in live_surface["repro.registry"]
    assert "Session" in live_surface["repro"]
    assert "__version__" in live_surface["repro"]


def test_descriptions_record_signatures(live_surface):
    session = live_surface["repro.api"]["Session"]
    assert session["kind"] == "class"
    assert "config" in session["signature"]
    assert "release" in session["members"]
    release = live_surface["repro.api"]["release"]
    assert release["kind"] == "function"
    run_config = live_surface["repro.api"]["RunConfig"]
    assert run_config["kind"] == "dataclass"
    assert "batch_size" in run_config["fields"]
