"""Packed coverage bitsets: the memory representation behind every mask.

The paper's core loop — Algorithm 1's greedy selection maximising VC(X)
(Eq. 4-5, 7) — operates on *boolean* per-parameter activation masks, but a
dense ``(N, num_parameters)`` boolean matrix costs one byte per parameter per
candidate: a 10k-candidate pool over a 1M-parameter model is ~10 GB.  Packing
each mask into 64-bit words cuts that by 8× and turns every coverage
operation the greedy loop needs into a word-wise bit operation:

* union            → ``covered |= candidate``
* marginal gain    → ``popcount(candidate & ~covered)`` (Eq. 7)
* set coverage     → ``popcount(OR over rows) / nbits`` (Eq. 4-5)

This module owns the packed representation end to end:

* :func:`pack_bool` / :func:`unpack_words` — packbits-style conversion
  between dense boolean arrays and little-endian uint64 word arrays;
* :func:`popcount` / :func:`popcount_rows` — vectorised set-bit counting;
* :class:`CoverageMap` — one packed bitset (the "covered parameters" state);
* :class:`MaskMatrix` — a packed ``(N, nbits)`` candidate-pool matrix with
  the greedy loop's marginal-gain and argmax primitives;
* :class:`PackedCoverageTracker` — the shared incremental-union bookkeeping
  that the parameter- and neuron-coverage trackers extend;
* :class:`CoverageCriterion` — the pluggable ``criterion → MaskMatrix``
  protocol implemented by parameter and neuron coverage (and open to new
  criteria; see the README's extension notes).

Exact equivalence with the dense representation is a hard requirement:
packing is lossless, popcounts equal dense ``sum`` counts bit for bit, and
:meth:`MaskMatrix.best_candidate` reproduces dense ``np.argmax`` tie-breaking
(first index wins), so packed greedy selection picks byte-identical test
sequences.

The module is pure NumPy with no dependency on the rest of the library, so
the engine can use the packing primitives without layering cycles.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

#: bits per storage word
WORD_BITS = 64

#: bytes per storage word
WORD_BYTES = 8

#: number of set bits for every uint8 value — the vectorised popcount kernel
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

DenseLike = Union[np.ndarray, Sequence[bool]]


def num_words(nbits: int) -> int:
    """Storage words needed for ``nbits`` bits."""
    if nbits < 0:
        raise ValueError("nbits must be non-negative")
    return (nbits + WORD_BITS - 1) // WORD_BITS


def packed_nbytes(nbits: int, rows: int = 1) -> int:
    """Bytes a packed representation of ``rows × nbits`` masks occupies."""
    return rows * num_words(nbits) * WORD_BYTES


def pack_bool(dense: DenseLike) -> np.ndarray:
    """Pack a boolean array's last axis into little-endian uint64 words.

    ``(..., nbits)`` bool → ``(..., num_words(nbits))`` uint64.  Bit ``i`` of
    the flattened word stream corresponds to dense entry ``i``; tail bits of
    the last word are zero.
    """
    dense = np.asarray(dense, dtype=bool)
    nbits = dense.shape[-1]
    words = num_words(nbits)
    packed8 = np.packbits(dense, axis=-1, bitorder="little")
    pad = words * WORD_BYTES - packed8.shape[-1]
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros((*packed8.shape[:-1], pad), dtype=np.uint8)], axis=-1
        )
    return np.ascontiguousarray(packed8).view(np.uint64)


def unpack_words(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool`: uint64 words → dense boolean array."""
    words = np.asarray(words, dtype=np.uint64)
    if words.shape[-1] != num_words(nbits):
        raise ValueError(
            f"word array has {words.shape[-1]} words on its last axis, "
            f"expected {num_words(nbits)} for {nbits} bits"
        )
    if nbits == 0:
        return np.zeros((*words.shape[:-1], 0), dtype=bool)
    u8 = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(u8, axis=-1, count=nbits, bitorder="little").astype(bool)


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in a word array."""
    u8 = np.ascontiguousarray(np.asarray(words, dtype=np.uint64)).view(np.uint8)
    return int(_POPCOUNT8[u8].sum(dtype=np.int64))


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``(N, W)`` word matrix, shape ``(N,)``."""
    words = np.asarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"expected a 2-D word matrix, got shape {words.shape}")
    if words.shape[1] == 0:
        return np.zeros(words.shape[0], dtype=np.int64)
    u8 = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT8[u8].sum(axis=1, dtype=np.int64)


def _tail_mask(nbits: int) -> Optional[int]:
    """Word-sized mask zeroing the unused tail bits, or None when aligned."""
    rem = nbits % WORD_BITS
    if rem == 0:
        return None
    return (1 << rem) - 1


class CoverageMap:
    """One packed bitset over ``nbits`` coverage targets.

    The mutable "covered so far" state of the greedy algorithms, plus an
    immutable-style value type for single candidate masks.  All binary
    operations require matching ``nbits``.
    """

    __slots__ = ("nbits", "words")

    def __init__(self, nbits: int, words: Optional[np.ndarray] = None) -> None:
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        self.nbits = int(nbits)
        if words is None:
            self.words = np.zeros(num_words(nbits), dtype=np.uint64)
        else:
            words = np.asarray(words, dtype=np.uint64)
            if words.shape != (num_words(nbits),):
                raise ValueError(
                    f"words has shape {words.shape}, expected "
                    f"({num_words(nbits)},) for {nbits} bits"
                )
            self.words = words

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dense(cls, mask: DenseLike) -> "CoverageMap":
        """Pack a dense boolean mask."""
        mask = np.asarray(mask, dtype=bool).ravel()
        return cls(mask.size, pack_bool(mask))

    def copy(self) -> "CoverageMap":
        return CoverageMap(self.nbits, self.words.copy())

    # -- state ---------------------------------------------------------------
    def dense(self) -> np.ndarray:
        """Dense boolean view of this bitset (materialises ``nbits`` bytes)."""
        return unpack_words(self.words, self.nbits)

    def count(self) -> int:
        """Number of set bits (``popcount``)."""
        return popcount(self.words)

    @property
    def fraction(self) -> float:
        """Fraction of bits set — the coverage value VC."""
        if self.nbits == 0:
            raise ValueError("coverage fraction of a 0-bit map is undefined")
        return self.count() / self.nbits

    def any(self) -> bool:
        return bool(self.words.any())

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    # -- mutation ------------------------------------------------------------
    def clear_(self) -> None:
        self.words[:] = 0

    def union_(self, other: "CoverageMap") -> "CoverageMap":
        """In-place union (``self |= other``); returns self."""
        self._check(other)
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    # -- pure binary operations ----------------------------------------------
    def union(self, other: "CoverageMap") -> "CoverageMap":
        self._check(other)
        return CoverageMap(self.nbits, self.words | other.words)

    def intersection(self, other: "CoverageMap") -> "CoverageMap":
        self._check(other)
        return CoverageMap(self.nbits, self.words & other.words)

    def andnot(self, other: "CoverageMap") -> "CoverageMap":
        """Bits set in self but not in other (``self & ~other``)."""
        self._check(other)
        return CoverageMap(self.nbits, self.words & ~other.words)

    def complement(self) -> "CoverageMap":
        """Bits not set in self (tail bits stay zero)."""
        words = ~self.words
        tail = _tail_mask(self.nbits)
        if tail is not None and words.size:
            words[-1] &= np.uint64(tail)
        return CoverageMap(self.nbits, words)

    # -- counting shortcuts (no intermediate map allocation) ------------------
    def intersection_count(self, other: "CoverageMap") -> int:
        self._check(other)
        return popcount(self.words & other.words)

    def andnot_count(self, *others: "CoverageMap") -> int:
        """``popcount(self & ~o1 & ~o2 & ...)`` — the Eq. 7 marginal gain."""
        acc = self.words
        for other in others:
            self._check(other)
            acc = acc & ~other.words
        return popcount(acc)

    # -- comparisons -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageMap):
            return NotImplemented
        return self.nbits == other.nbits and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:  # maps are mutable; identity hashing only
        return id(self)

    def _check(self, other: "CoverageMap") -> None:
        if not isinstance(other, CoverageMap):
            raise TypeError(f"expected a CoverageMap, got {type(other).__name__}")
        if other.nbits != self.nbits:
            raise ValueError(
                f"bitset size mismatch: {other.nbits} bits vs {self.nbits} bits"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CoverageMap(nbits={self.nbits}, count={self.count()})"


def as_coverage_map(mask: Union[CoverageMap, DenseLike], nbits: int) -> CoverageMap:
    """Coerce a dense boolean mask (or pass through a CoverageMap) to packed.

    The single conversion point used by the trackers so every public API
    accepts either representation.
    """
    if isinstance(mask, CoverageMap):
        if mask.nbits != nbits:
            raise ValueError(
                f"mask has {mask.nbits} bits, expected {nbits} "
                "(one per coverage target)"
            )
        return mask
    dense = np.asarray(mask, dtype=bool).ravel()
    if dense.size != nbits:
        raise ValueError(
            f"mask has {dense.size} entries, expected {nbits} "
            "(one per coverage target)"
        )
    return CoverageMap(nbits, pack_bool(dense))


class MaskMatrix:
    """Packed ``(N, nbits)`` candidate-pool mask matrix.

    Stores one packed mask per candidate; 1/8 the bytes of the dense boolean
    matrix.  Provides the greedy loop's primitives: per-candidate marginal
    gain counts against a covered map, deterministic argmax with dense
    tie-breaking, and union over rows.  The primitives iterate row windows
    of :meth:`_window_rows` rows: in RAM that is one window of every row,
    and the disk-backed :class:`MmapMaskMatrix` bounds it by a byte budget.
    Every primitive is an integer popcount or a bitwise OR, so results are
    exact whatever the window size.
    """

    __slots__ = ("nbits", "words")

    def __init__(self, nbits: int, words: np.ndarray) -> None:
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != num_words(nbits):
            raise ValueError(
                f"words has shape {words.shape}, expected "
                f"(N, {num_words(nbits)}) for {nbits} bits"
            )
        self.nbits = int(nbits)
        self.words = words

    # -- construction --------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: DenseLike) -> "MaskMatrix":
        """Pack a dense ``(N, nbits)`` boolean matrix."""
        dense = np.asarray(dense, dtype=bool)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D mask matrix, got shape {dense.shape}")
        return cls(dense.shape[1], pack_bool(dense))

    @classmethod
    def from_chunks(cls, chunks: Iterable[np.ndarray], nbits: int) -> "MaskMatrix":
        """Build from a stream of dense boolean chunks, packing each as it
        arrives so only one chunk is ever dense at a time."""
        packed: List[np.ndarray] = []
        for chunk in chunks:
            chunk = np.asarray(chunk, dtype=bool)
            if chunk.ndim != 2 or chunk.shape[1] != nbits:
                raise ValueError(
                    f"chunk has shape {chunk.shape}, expected (n, {nbits})"
                )
            packed.append(pack_bool(chunk))
        if not packed:
            return cls.empty(nbits)
        return cls(nbits, np.concatenate(packed, axis=0))

    @classmethod
    def empty(cls, nbits: int) -> "MaskMatrix":
        return cls(nbits, np.zeros((0, num_words(nbits)), dtype=np.uint64))

    @classmethod
    def concatenate(cls, matrices: Sequence["MaskMatrix"]) -> "MaskMatrix":
        if not matrices:
            raise ValueError("no matrices to concatenate")
        nbits = matrices[0].nbits
        for m in matrices:
            if m.nbits != nbits:
                raise ValueError("cannot concatenate matrices of different widths")
        return cls(nbits, np.concatenate([m.words for m in matrices], axis=0))

    # -- shape / memory ------------------------------------------------------
    def __len__(self) -> int:
        return int(self.words.shape[0])

    @property
    def shape(self) -> Tuple[int, int]:
        """Logical (dense) shape ``(N, nbits)``."""
        return (len(self), self.nbits)

    @property
    def nbytes(self) -> int:
        """Bytes the packed words occupy (dense would be ``N × nbits``)."""
        return int(self.words.nbytes)

    @property
    def dense_nbytes(self) -> int:
        """Bytes the equivalent dense boolean matrix would occupy."""
        return len(self) * self.nbits

    # -- access ----------------------------------------------------------------
    def row(self, index: int) -> CoverageMap:
        """Candidate ``index``'s mask as an independent :class:`CoverageMap`."""
        return CoverageMap(self.nbits, self.words[index].copy())

    def dense(self) -> np.ndarray:
        """The full dense boolean matrix (materialises ``N × nbits`` bytes)."""
        return unpack_words(self.words, self.nbits)

    def dense_row(self, index: int) -> np.ndarray:
        return unpack_words(self.words[index], self.nbits)

    def take(self, indices: Sequence[int]) -> "MaskMatrix":
        return MaskMatrix(self.nbits, self.words[np.asarray(indices, dtype=np.int64)])

    # -- row windows -----------------------------------------------------------
    def _window_rows(self) -> int:
        """Rows per window of the coverage primitives (≥ 1): every row."""
        return max(1, len(self))

    def _windows(self) -> Iterator[slice]:
        step = self._window_rows()
        for start in range(0, len(self), step):
            yield slice(start, min(start + step, len(self)))

    # -- coverage primitives ---------------------------------------------------
    def counts(self) -> np.ndarray:
        """Per-candidate set-bit counts, shape ``(N,)``."""
        out = np.empty(len(self), dtype=np.int64)
        for s in self._windows():
            out[s] = popcount_rows(self.words[s])
        return out

    def fractions(self) -> np.ndarray:
        """Per-candidate coverage VC(x) — ``counts / nbits``."""
        if self.nbits == 0:
            raise ValueError("coverage fractions of a 0-bit matrix are undefined")
        return self.counts() / self.nbits

    def union(self) -> CoverageMap:
        """OR over all candidate masks (the test set's covered map)."""
        acc = np.zeros(num_words(self.nbits), dtype=np.uint64)
        for s in self._windows():
            np.bitwise_or(acc, np.bitwise_or.reduce(self.words[s], axis=0), out=acc)
        return CoverageMap(self.nbits, acc)

    def marginal_counts(self, covered: CoverageMap) -> np.ndarray:
        """Per-candidate newly-covered-bit counts against ``covered`` (Eq. 7).

        ``counts[i] = popcount(row_i & ~covered)`` — integer counts, so
        equality comparisons (and argmax tie-breaks) are exact.
        """
        if covered.nbits != self.nbits:
            raise ValueError(
                f"covered mask has {covered.nbits} bits, expected {self.nbits}"
            )
        inverted = ~covered.words
        out = np.empty(len(self), dtype=np.int64)
        for s in self._windows():
            out[s] = popcount_rows(self.words[s] & inverted[None, :])
        return out

    def best_candidate(
        self, covered: CoverageMap, available: Optional[np.ndarray] = None
    ) -> Tuple[int, int]:
        """Index and gain count of the best available candidate.

        Reproduces the dense greedy step exactly: the first index attaining
        the maximum marginal count wins (``np.argmax`` tie-breaking).
        Availability is an explicit boolean array — never a sentinel value
        mixed into the gains — so an all-zero-gain pool still deterministically
        yields its first available candidate.
        """
        counts = self.marginal_counts(covered)
        if available is None:
            if len(self) == 0:
                raise ValueError("candidate pool is empty")
            best = int(np.argmax(counts))
            return best, int(counts[best])
        available = np.asarray(available, dtype=bool).ravel()
        if available.shape != (len(self),):
            raise ValueError(
                f"available has shape {available.shape}, expected ({len(self)},)"
            )
        if not available.any():
            raise ValueError("no candidates available")
        candidates = np.flatnonzero(available)
        best = int(candidates[np.argmax(counts[candidates])])
        return best, int(counts[best])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskMatrix):
            return NotImplemented
        return self.nbits == other.nbits and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaskMatrix(candidates={len(self)}, nbits={self.nbits}, "
            f"packed={self.nbytes}B, dense={self.dense_nbytes}B)"
        )


def quarantine_store(path: Union[str, Path]) -> Path:
    """Move a corrupt store file into a ``quarantine/`` sidecar directory.

    The file is preserved for post-mortem inspection (never destroyed) under
    a unique name, and the original path becomes free for a rebuild — the
    self-healing half of the spill store's failure story.
    """
    path = Path(path)
    dest_dir = path.parent / "quarantine"
    dest_dir.mkdir(parents=True, exist_ok=True)
    dest = dest_dir / path.name
    counter = 1
    while dest.exists():
        dest = dest_dir / f"{path.name}.{counter}"
        counter += 1
    os.replace(path, dest)
    return dest


#: magic prefix of the on-disk packed-mask store (versioned: bump the digit
#: when the layout changes)
MMAP_MAGIC = b"RPRMASK1"

#: bytes of the on-disk header: magic + nbits (u64 LE) + rows (u64 LE)
MMAP_HEADER_BYTES = len(MMAP_MAGIC) + 2 * WORD_BYTES


class MmapMaskWriter:
    """Streaming writer for the on-disk packed-mask store.

    Chunks of packed words are appended as they are computed, so building a
    training-set-sized candidate pool never concatenates the full word
    matrix in RAM.  Writes go to a ``.tmp`` sibling and are atomically
    renamed into place on :meth:`close` (which also patches the row count
    into the header), so a crash mid-build can never leave a file that
    :meth:`MmapMaskMatrix.open` would accept — torn stores are detected and
    rejected by the size/header validation.

    The layout is explicitly little-endian (``'<u8'`` words), matching
    :func:`pack_bool`'s bit order, so stores are portable across hosts.
    """

    def __init__(self, path: Union[str, Path], nbits: int) -> None:
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        self.path = Path(path)
        self.nbits = int(nbits)
        self.rows = 0
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self._tmp, "wb")
        self._fh.write(MMAP_MAGIC)
        self._fh.write(np.uint64(self.nbits).astype("<u8").tobytes())
        self._fh.write(np.uint64(0).astype("<u8").tobytes())  # rows, patched on close

    def append(self, words: np.ndarray) -> None:
        """Append a ``(n, num_words(nbits))`` uint64 chunk."""
        if self._fh is None:
            raise ValueError("writer is closed")
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != num_words(self.nbits):
            raise ValueError(
                f"chunk has shape {words.shape}, expected "
                f"(n, {num_words(self.nbits)}) for {self.nbits} bits"
            )
        self._fh.write(np.ascontiguousarray(words).astype("<u8", copy=False).tobytes())
        self.rows += int(words.shape[0])

    def close(
        self, memory_budget_bytes: Optional[int] = None
    ) -> "MmapMaskMatrix":
        """Finalise the store and return it opened for windowed reads."""
        if self._fh is None:
            raise ValueError("writer is closed")
        self._fh.seek(len(MMAP_MAGIC) + WORD_BYTES)
        self._fh.write(np.uint64(self.rows).astype("<u8").tobytes())
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None
        os.replace(self._tmp, self.path)
        return MmapMaskMatrix.open(self.path, memory_budget_bytes=memory_budget_bytes)

    def abort(self) -> None:
        """Discard the partial store (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        if self._tmp.exists():
            self._tmp.unlink()

    def __enter__(self) -> "MmapMaskWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()


class MmapMaskMatrix(MaskMatrix):
    """A :class:`MaskMatrix` whose words live in a memory-mapped file.

    Candidate pools the size of the full training set exceed RAM even
    packed; this store streams Algorithm 1's ``popcount(candidate &
    ~covered)`` from disk instead.  The inherited coverage primitives
    (:meth:`counts`, :meth:`union`, :meth:`marginal_counts` — and therefore
    :meth:`best_candidate`) iterate row windows bounded by
    ``memory_budget_bytes``, so resident memory stays at one window's words
    plus its popcount temporaries while results remain byte-identical to
    the in-RAM matrix.

    Construct via :meth:`open` (existing store) or
    :class:`MmapMaskWriter` (streaming build).  A store truncated while it
    is mapped raises SIGBUS on the next page-in, which no handler in the
    process can catch; a torn store found at :meth:`open` is rejected, and
    the engine quarantines and rebuilds it.
    """

    __slots__ = ("path", "memory_budget_bytes")

    def __init__(
        self,
        nbits: int,
        words: np.ndarray,
        path: Optional[Path] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> None:
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        super().__init__(nbits, words)
        self.path = path
        self.memory_budget_bytes = memory_budget_bytes

    @classmethod
    def open(
        cls, path: Union[str, Path], memory_budget_bytes: Optional[int] = None
    ) -> "MmapMaskMatrix":
        """Map an existing store, validating its header and size.

        Raises :class:`ValueError` for wrong-magic, torn or truncated files
        (e.g. a crash while an old non-atomic writer was mid-append), so a
        corrupt store is rebuilt instead of silently mis-read.
        """
        path = Path(path)
        size = path.stat().st_size
        if size < MMAP_HEADER_BYTES:
            raise ValueError(
                f"torn mask store {path}: {size} bytes is smaller than the "
                f"{MMAP_HEADER_BYTES}-byte header"
            )
        with open(path, "rb") as fh:
            header = fh.read(MMAP_HEADER_BYTES)
        if header[: len(MMAP_MAGIC)] != MMAP_MAGIC:
            raise ValueError(f"{path} is not a packed mask store (bad magic)")
        nbits, rows = np.frombuffer(header, dtype="<u8", offset=len(MMAP_MAGIC))
        nbits, rows = int(nbits), int(rows)
        expected = MMAP_HEADER_BYTES + rows * num_words(nbits) * WORD_BYTES
        if size != expected:
            raise ValueError(
                f"torn mask store {path}: {size} bytes on disk, header "
                f"declares {rows} rows × {num_words(nbits)} words "
                f"({expected} bytes)"
            )
        words = np.memmap(
            path,
            dtype="<u8",
            mode="r",
            offset=MMAP_HEADER_BYTES,
            shape=(rows, num_words(nbits)),
        )
        return cls(nbits, words, path=path, memory_budget_bytes=memory_budget_bytes)

    def _window_rows(self) -> int:
        """Rows per streamed window under the memory budget (≥ 1)."""
        if self.memory_budget_bytes is None:
            return super()._window_rows()
        row_bytes = num_words(self.nbits) * WORD_BYTES
        return max(1, int(self.memory_budget_bytes) // max(1, row_bytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MmapMaskMatrix(candidates={len(self)}, nbits={self.nbits}, "
            f"path={str(self.path)!r}, window={self._window_rows()} rows)"
        )


class PackedCoverageTracker:
    """Incremental union bookkeeping over a packed covered map.

    The shared core of the parameter- and neuron-coverage trackers: both
    repeatedly ask "how much would adding this mask increase coverage?" and
    union chosen masks in.  Subclasses supply how a raw sample becomes a
    mask; this base owns the packed state and the Eq. 7 arithmetic.
    """

    def __init__(self, total: int) -> None:
        if total <= 0:
            raise ValueError("tracker needs at least one coverage target")
        self._total = int(total)
        self._covered = CoverageMap(self._total)
        self._num_tests = 0

    # -- state ---------------------------------------------------------------
    @property
    def covered_map(self) -> CoverageMap:
        """The live packed covered bitset (read-only by convention — mutate
        only through :meth:`add_mask`/:meth:`reset`)."""
        return self._covered

    @property
    def covered_mask(self) -> np.ndarray:
        """Dense boolean copy of the covered set (compatibility surface)."""
        return self._covered.dense()

    @property
    def num_covered(self) -> int:
        return self._covered.count()

    @property
    def coverage(self) -> float:
        """Current coverage fraction of all added tests."""
        return self.num_covered / self._total

    @property
    def num_tests(self) -> int:
        """Number of tests added so far."""
        return self._num_tests

    def reset(self) -> None:
        self._covered.clear_()
        self._num_tests = 0

    # -- queries -----------------------------------------------------------
    def marginal_gain(self, mask: Union[CoverageMap, DenseLike]) -> float:
        """Coverage increase for a candidate mask (Eq. 7); accepts packed or
        dense masks."""
        packed = as_coverage_map(mask, self._total)
        return packed.andnot_count(self._covered) / self._total

    # -- updates -----------------------------------------------------------
    def add_mask(self, mask: Union[CoverageMap, DenseLike]) -> float:
        """Union a candidate mask into the covered set; returns the gain."""
        packed = as_coverage_map(mask, self._total)
        gain = self.marginal_gain(packed)
        self._covered.union_(packed)
        self._num_tests += 1
        return gain

    def uncovered_indices(self) -> np.ndarray:
        """Flat indices of coverage targets not yet activated by any test."""
        return np.flatnonzero(~self._covered.dense())


class CoverageCriterion:
    """Pluggable protocol mapping ``(model, images) → MaskMatrix``.

    A coverage criterion defines *what is covered* (its bit space) and *how a
    sample's mask is computed*.  Two implementations ship — parameter
    (validation) coverage and the neuron-coverage baseline — and new criteria
    plug into the same greedy selection machinery by implementing this
    interface (see the README's "extending coverage" notes).
    """

    #: short registry/report name; subclasses must override
    name: str = "criterion"

    def num_bits(self, model) -> int:
        """Size of this criterion's bit space for ``model``."""
        raise NotImplementedError

    def mask_matrix(self, model, images: np.ndarray, engine=None) -> MaskMatrix:
        """Packed masks of a candidate pool, built with chunked batched
        passes (never materialising the full dense matrix)."""
        raise NotImplementedError

    def tracker(self, model) -> PackedCoverageTracker:
        """A fresh incremental tracker over this criterion's bit space."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}(name={self.name!r})"


__all__ = [
    "MMAP_HEADER_BYTES",
    "MMAP_MAGIC",
    "WORD_BITS",
    "WORD_BYTES",
    "CoverageCriterion",
    "CoverageMap",
    "MaskMatrix",
    "MmapMaskMatrix",
    "MmapMaskWriter",
    "PackedCoverageTracker",
    "as_coverage_map",
    "num_words",
    "pack_bool",
    "packed_nbytes",
    "popcount",
    "popcount_rows",
    "quarantine_store",
    "unpack_words",
]
