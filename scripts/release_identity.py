#!/usr/bin/env python
"""Print the SHA-256 of every array a fixed set of releases writes.

Usage::

    PYTHONPATH=src python scripts/release_identity.py

Runs ``python -m repro release`` for each entry of :data:`RELEASES` (mnist
and cifar at width 0.125 with the ``combined`` strategy, plus one mnist
release each with the ``gradient``, ``selection`` and ``neuron``
strategies, and one cifar release with ``--measure-discrimination``, whose
``discrimination`` scores replay every registered attack), then prints one
line per array of its
``package.npz`` and ``model.npz`` (the releases themselves go to a temporary
directory)::

    <release> <file> <array> <dtype> <shape> <sha256>

The releases run with whatever ``repro`` the ``PYTHONPATH`` points at, so
running the script once against each of two source trees on the same host
and diffing the two outputs shows whether a change moved any released byte.
Only standard-library and NumPy code is used, and the script relies on
nothing but the ``release`` command line, so it runs against older trees too.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

#: name → ``python -m repro release`` arguments (besides ``--out``)
RELEASES = {
    "mnist-combined": ["--dataset", "mnist", "--tests", "12"],
    "cifar-combined": ["--dataset", "cifar", "--tests", "8"],
    "mnist-gradient": ["--dataset", "mnist", "--tests", "6", "--strategy", "gradient"],
    "mnist-selection": ["--dataset", "mnist", "--tests", "8", "--strategy", "selection"],
    "mnist-neuron": ["--dataset", "mnist", "--tests", "8", "--strategy", "neuron"],
    "cifar-discrimination": ["--dataset", "cifar", "--tests", "8", "--measure-discrimination"],
}

FILES = ("package.npz", "model.npz")


def array_lines(name: str, out: Path):
    """One digest line per array of the release written to ``out``."""
    for filename in FILES:
        with np.load(out / filename, allow_pickle=False) as arrays:
            for key in sorted(arrays.files):
                array = np.ascontiguousarray(arrays[key])
                digest = hashlib.sha256(array.tobytes()).hexdigest()
                shape = "x".join(map(str, array.shape)) or "scalar"
                yield f"{name} {filename} {key} {array.dtype.str} {shape} {digest}"


def run_release(args, out: Path) -> None:
    command = [sys.executable, "-m", "repro", "release", *args, "--out", str(out)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)


def main() -> int:
    import repro

    print(f"# repro imported from {Path(repro.__file__).parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as work:
        for name, release_args in RELEASES.items():
            out = Path(work) / name
            run_release(release_args, out)
            for line in array_lines(name, out):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
