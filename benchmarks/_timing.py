"""Warmed best-of-N wall-clock timing shared by the ``bench_*.py`` gate scripts."""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple


def best_of(fn: Callable[[], Any], repeats: int, warmup: int = 1) -> Tuple[float, Any]:
    """Best seconds over ``repeats`` timed calls of ``fn`` after ``warmup``
    untimed ones; returns ``(best_seconds, last_value)``."""
    value = None
    for _ in range(warmup):
        value = fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value
