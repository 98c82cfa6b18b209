#!/usr/bin/env python
"""CI check: the public façade surface matches the committed snapshot.

Usage::

    PYTHONPATH=src python scripts/check_api_surface.py            # verify
    PYTHONPATH=src python scripts/check_api_surface.py --update   # re-pin

Walks the ``__all__`` exports and signatures of the modules in
:data:`repro.api.surface.SURFACE_MODULES` (see
:func:`repro.api.surface.api_surface`) and compares them to
``tests/data/api_surface.json``.  A mismatch means the public API changed
and is printed one ``REMOVED``/``ADDED``/``CHANGED`` line per export or
class member: if intentional, re-run with ``--update`` (which prints the
same lines) and commit the new snapshot; if not, you just caught an
accidental breaking change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parent.parent / "tests" / "data" / "api_surface.json"


def drift(pinned, live):
    """Lines naming every difference between two surfaces.

    A class whose public members changed gets one ``REMOVED``/``ADDED`` line
    per member, so a deletion reads as a list of the names it removed.
    """
    lines = []
    for module in sorted(set(live) | set(pinned)):
        live_mod = live.get(module, {})
        pinned_mod = pinned.get(module, {})
        for name in sorted(set(live_mod) | set(pinned_mod)):
            if name not in live_mod:
                lines.append(f"REMOVED: {module}.{name}")
            elif name not in pinned_mod:
                lines.append(f"ADDED:   {module}.{name}")
            elif live_mod[name] != pinned_mod[name]:
                was, now = pinned_mod[name], live_mod[name]
                old_members = set(filter(None, was.get("members", "").split(", ")))
                new_members = set(filter(None, now.get("members", "").split(", ")))
                for member in sorted(old_members - new_members):
                    lines.append(f"REMOVED: {module}.{name}.{member}")
                for member in sorted(new_members - old_members):
                    lines.append(f"ADDED:   {module}.{name}.{member}")
                rest = {k: v for k, v in was.items() if k != "members"}
                if rest != {k: v for k, v in now.items() if k != "members"}:
                    lines.append(
                        f"CHANGED: {module}.{name}\n  pinned: {was}\n  live:   {now}"
                    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite the snapshot from the live surface"
    )
    args = parser.parse_args(argv)

    from repro.api.surface import api_surface

    live = api_surface()
    pinned = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else None
    if args.update:
        for line in drift(pinned or {}, live):
            print(line)
        SNAPSHOT.parent.mkdir(parents=True, exist_ok=True)
        SNAPSHOT.write_text(json.dumps(live, indent=2, sort_keys=True) + "\n")
        print(f"pinned API surface to {SNAPSHOT}")
        return 0

    if pinned is None:
        print(f"missing snapshot {SNAPSHOT}; run with --update to create it", file=sys.stderr)
        return 1
    if live == pinned:
        total = sum(len(v) for v in live.values())
        print(f"API surface OK ({total} exports across {len(live)} modules)")
        return 0

    for line in drift(pinned, live):
        print(line, file=sys.stderr)
    print(
        "API surface drifted from tests/data/api_surface.json; if intentional, "
        "re-pin with: PYTHONPATH=src python scripts/check_api_surface.py --update",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
