"""Reusable ndarray workspaces for the im2col hot path.

The batched engine processes large candidate pools in uniform chunks, so the
convolution (and average-pooling) layers keep requesting patch matrices of
the *same* shapes over and over.  Allocating a fresh ``(N, C*kh*kw, P)`` buffer per
chunk is churn; but naively *pinning* one buffer per layer is worse — it
grows the working set of a pass from the largest single patch matrix to the
sum over all layers, and the measured cache misses cost more than the
allocations saved.

:class:`WorkspacePool` therefore works like a tiny free-list allocator with
explicit hand-back, shared by *all* layers of one model:

* :meth:`acquire` pops a free buffer of the requested ``(shape, dtype)`` or
  allocates one;
* :meth:`release` returns a buffer to the free list once its contents are
  consumed.

Because a released buffer is immediately reusable by the *next* layer that
asks for the same geometry (e.g. the equal-width conv pairs of the Table-I
models), consecutive layers cycle through the same few hot buffers — the
locality of malloc's free list, with deterministic reuse and zero per-chunk
allocation churn once warm.

Ownership contract: whoever acquires a buffer must release it exactly once,
after its last possible read.  A *recording* conv forward holds its patch
matrix from one recording forward until the next one replaces it (not merely
until backward consumes it — backward may legitimately run repeatedly, and
an early release would let backward's own input-gradient gather pop and
overwrite the buffer when the geometries coincide).  Everything else
releases as soon as its single consumer has read the buffer: an inference
forward (``record=False``) and the stacked forward right after the matmul,
average pooling after its mean, the gradient gather after its matmul.

Free buffers do not outlive an inference pass: ``Sequential.forward(x,
record=False)`` (and every inference path built on it) empties its model's
pool on return, so between calls a model holds only the patch matrices its
last recording forward leased, never the free list of a past gradient query.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: free buffers kept per (shape, dtype) geometry; the Table-I architectures
#: never have more than two same-geometry layers in flight
DEFAULT_PER_KEY = 2

#: total free buffers kept across all geometries
DEFAULT_SLOTS = 16

_Key = Tuple[Tuple[int, ...], np.dtype]


class WorkspacePool:
    """A free-list of reusable ndarray buffers keyed by shape and dtype."""

    def __init__(self, max_slots: int = DEFAULT_SLOTS, per_key: int = DEFAULT_PER_KEY) -> None:
        if max_slots <= 0 or per_key <= 0:
            raise ValueError("max_slots and per_key must be positive")
        self.max_slots = int(max_slots)
        self.per_key = int(per_key)
        self._free: Dict[_Key, List[np.ndarray]] = {}
        self._count = 0

    def __len__(self) -> int:
        """Number of free buffers currently held."""
        return self._count

    @property
    def nbytes(self) -> int:
        """Total bytes of the free buffers currently held."""
        return sum(buf.nbytes for bufs in self._free.values() for buf in bufs)

    @staticmethod
    def _key(shape: Tuple[int, ...], dtype: np.dtype) -> _Key:
        return (tuple(int(s) for s in shape), np.dtype(dtype))

    def acquire(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """An uninitialised buffer of the requested geometry.

        Pops a previously released buffer when one matches (contents are
        whatever its last user wrote) and allocates otherwise.
        """
        key = self._key(shape, dtype)
        bufs = self._free.get(key)
        if bufs:
            self._count -= 1
            return bufs.pop()
        return np.empty(key[0], dtype=key[1])

    def release(self, array: np.ndarray) -> None:
        """Hand a buffer back for reuse after its last read.

        Accepts any view of the acquired buffer (the base chain is resolved);
        buffers beyond the per-geometry or total capacity are simply dropped
        for the garbage collector.  ``None`` is ignored so callers can
        release optimistically.
        """
        if array is None:
            return
        base = array
        # the base chain may bottom out in a non-ndarray buffer (unpickled
        # arrays sit on memoryviews); such arrays were never pool-acquired
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        if not isinstance(base, np.ndarray) or not base.flags["C_CONTIGUOUS"]:
            return
        if self._count >= self.max_slots:
            return
        key = self._key(base.shape, base.dtype)
        bufs = self._free.setdefault(key, [])
        if len(bufs) >= self.per_key:
            return
        bufs.append(base)
        self._count += 1

    def clear(self) -> None:
        """Drop every free buffer (frees the memory on next GC)."""
        self._free.clear()
        self._count = 0

    # Buffers are scratch space, not state: models carrying pools are deep-
    # copied by the attacks and pickled across process boundaries by the
    # distributed campaign's model exchange, and shipping megabytes of
    # garbage along would defeat the point.  Copies and pickles therefore start with an empty pool.
    def __deepcopy__(self, memo: dict) -> "WorkspacePool":
        return WorkspacePool(self.max_slots, self.per_key)

    def __reduce__(self):
        return (WorkspacePool, (self.max_slots, self.per_key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkspacePool(free={self._count}, nbytes={self.nbytes})"


__all__ = ["DEFAULT_PER_KEY", "DEFAULT_SLOTS", "WorkspacePool"]
