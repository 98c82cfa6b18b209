"""Machine-readable snapshot of the public façade surface.

:func:`api_surface` walks the ``__all__`` exports of the façade modules
(``repro``, ``repro.api``, ``repro.registry``) and of the layers under them
(``repro.engine``, ``repro.nn``, ``repro.coverage``), and records each
name's kind, signature and public members as plain strings.  The committed snapshot
(``tests/data/api_surface.json``) pins that surface: the
``tests/test_api_surface.py`` test and the ``scripts/check_api_surface.py``
CI check both fail on any accidental breaking change — removed exports or
class members, changed signatures, renamed dataclass fields — while intentional changes are
a one-line ``--update`` away.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Dict

#: modules whose public surface is pinned
SURFACE_MODULES = (
    "repro",
    "repro.api",
    "repro.registry",
    "repro.engine",
    "repro.nn",
    "repro.coverage",
)


def _describe(obj: object) -> Dict[str, str]:
    """Kind + signature description of one exported object."""
    if inspect.isclass(obj):
        description = {"kind": "class"}
        if dataclasses.is_dataclass(obj):
            description["kind"] = "dataclass"
            description["fields"] = ", ".join(
                f.name for f in dataclasses.fields(obj)
            )
        try:
            description["signature"] = str(inspect.signature(obj))
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            description["signature"] = "(...)"
        methods = sorted(
            name
            for name, member in inspect.getmembers(obj)
            if not name.startswith("_")
            and (inspect.isroutine(member) or isinstance(member, property))
        )
        description["members"] = ", ".join(methods)
        return description
    if inspect.isroutine(obj):
        try:
            signature = str(inspect.signature(obj))
        except (TypeError, ValueError):  # pragma: no cover - builtins only
            signature = "(...)"
        return {"kind": "function", "signature": signature}
    if isinstance(obj, (str, int, float, tuple)):
        return {"kind": "constant", "signature": repr(obj)}
    return {"kind": type(obj).__name__}


def api_surface() -> Dict[str, Dict[str, Dict[str, str]]]:
    """The full pinned surface: module → export name → description."""
    import importlib

    surface: Dict[str, Dict[str, Dict[str, str]]] = {}
    for module_name in SURFACE_MODULES:
        module = importlib.import_module(module_name)
        exports: Dict[str, Dict[str, str]] = {}
        for name in sorted(getattr(module, "__all__", ())):
            exports[name] = _describe(getattr(module, name))
        surface[module_name] = exports
    return surface


__all__ = ["SURFACE_MODULES", "api_surface"]
