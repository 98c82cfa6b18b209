"""Lightweight logging helpers used across the library.

The library deliberately avoids configuring the root logger; it exposes a
namespaced logger factory, a console handler switch and a wall-clock timer
for long-running experiment drivers (training, greedy selection,
detection-rate sweeps).
"""

from __future__ import annotations

import logging
import sys
import time

_LIBRARY_NAMESPACE = "repro"


def get_logger(name: str | None = None) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    ``get_logger("testgen")`` returns the logger ``repro.testgen``.
    """
    if name is None:
        return logging.getLogger(_LIBRARY_NAMESPACE)
    if name.startswith(_LIBRARY_NAMESPACE):
        return logging.getLogger(name)
    return logging.getLogger(f"{_LIBRARY_NAMESPACE}.{name}")


def enable_console_logging(level: int = logging.INFO) -> None:
    """Attach a simple stderr handler to the library logger.

    Safe to call multiple times; only one handler is installed.
    """
    logger = get_logger()
    logger.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s: %(message)s")
        )
        logger.addHandler(handler)


class Timer:
    """Context manager measuring wall-clock time of a block.

    Example
    -------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start: float = 0.0
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self.start


__all__ = ["get_logger", "enable_console_logging", "Timer"]
