"""Data representations for simulated I/O.

Checkpoint experiments move hundreds of gigabytes of *simulated* data; we
cannot (and need not) hold those bytes in host memory.  :class:`SyntheticData`
stands in for a buffer whose content at absolute offset ``i`` is a
deterministic function of a seed — it can be sliced, compared, and (for
test-sized regions) materialized to real bytes, so data-integrity checks
work at any scale while benchmarks stay cheap.

The helpers at the bottom (`piece_len`, `piece_slice`, `piece_bytes`,
`data_equal`) let the extent map treat ``bytes`` and synthetic data
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

__all__ = [
    "SyntheticData",
    "ZeroData",
    "CompositeData",
    "Piece",
    "piece_len",
    "piece_slice",
    "piece_bytes",
    "data_equal",
    "concat_pieces",
]

#: Materializing more than this many bytes in a test helper is a bug.
MATERIALIZE_LIMIT = 64 * 1024 * 1024


@dataclass(frozen=True)
class SyntheticData:
    """A virtual buffer: content[i] = pattern(seed, origin + i).

    ``origin`` anchors the pattern to an absolute coordinate so that slices
    of the same logical buffer compare equal to independently-constructed
    descriptions of the same region.
    """

    nbytes: int
    seed: int = 0
    origin: int = 0

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes cannot be negative")

    def slice(self, start: int, stop: int) -> "SyntheticData":
        if not 0 <= start <= stop <= self.nbytes:
            raise ValueError(f"slice [{start}:{stop}] outside buffer of {self.nbytes}")
        return SyntheticData(nbytes=stop - start, seed=self.seed, origin=self.origin + start)

    def to_bytes(self) -> bytes:
        if self.nbytes > MATERIALIZE_LIMIT:
            raise MemoryError(
                f"refusing to materialize {self.nbytes} bytes of synthetic data"
            )
        # Vectorized pattern: a cheap 8-bit mix of seed and absolute offset.
        # The seed is spread across the high bits so it survives the shift.
        # One uint64 array is updated in place; the cast to uint8 keeps the
        # low byte (the same as ``& 0xFF``).
        vals = np.arange(self.origin, self.origin + self.nbytes, dtype=np.uint64)
        salt = np.uint64((self.seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            vals += salt
            vals *= np.uint64(2654435761)
        vals >>= np.uint64(24)
        return vals.astype(np.uint8).tobytes()


@dataclass(frozen=True)
class ZeroData:
    """A hole: reads of never-written regions return zeros (sparse files)."""

    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes cannot be negative")

    def slice(self, start: int, stop: int) -> "ZeroData":
        if not 0 <= start <= stop <= self.nbytes:
            raise ValueError(f"slice [{start}:{stop}] outside hole of {self.nbytes}")
        return ZeroData(stop - start)

    def to_bytes(self) -> bytes:
        if self.nbytes > MATERIALIZE_LIMIT:
            raise MemoryError(f"refusing to materialize {self.nbytes} zero bytes")
        return bytes(self.nbytes)


Piece = Union[bytes, bytearray, SyntheticData, ZeroData]


class CompositeData:
    """An ordered sequence of pieces forming one logical buffer."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: List[Piece]) -> None:
        self.pieces = [p for p in pieces if piece_len(p) > 0]

    @property
    def nbytes(self) -> int:
        return sum(piece_len(p) for p in self.pieces)

    def to_bytes(self) -> bytes:
        total = self.nbytes
        if total > MATERIALIZE_LIMIT:
            raise MemoryError(f"refusing to materialize {total} bytes")
        return b"".join(piece_bytes(p) for p in self.pieces)

    def slice(self, start: int, stop: int) -> "CompositeData":
        if not 0 <= start <= stop <= self.nbytes:
            raise ValueError(f"slice [{start}:{stop}] outside buffer of {self.nbytes}")
        out: List[Piece] = []
        pos = 0
        for p in self.pieces:
            plen = piece_len(p)
            lo = max(start, pos)
            hi = min(stop, pos + plen)
            if lo < hi:
                out.append(piece_slice(p, lo - pos, hi - pos))
            pos += plen
            if pos >= stop:
                break
        return CompositeData(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CompositeData {self.nbytes}B in {len(self.pieces)} pieces>"


def piece_len(piece) -> int:
    """Length in bytes of any data piece."""
    if isinstance(piece, (bytes, bytearray)):
        return len(piece)
    if isinstance(piece, (SyntheticData, ZeroData, CompositeData)):
        return piece.nbytes
    raise TypeError(f"unsupported data piece {type(piece).__name__}")


def piece_slice(piece, start: int, stop: int):
    """Slice any data piece; bounds are validated by the piece types."""
    if isinstance(piece, (bytes, bytearray)):
        if not 0 <= start <= stop <= len(piece):
            raise ValueError(f"slice [{start}:{stop}] outside buffer of {len(piece)}")
        return bytes(piece[start:stop])
    return piece.slice(start, stop)


def piece_bytes(piece) -> bytes:
    """Materialize any data piece to real bytes (test-sized data only)."""
    if isinstance(piece, (bytes, bytearray)):
        return bytes(piece)
    return piece.to_bytes()


def _coalesce(pieces: List[Piece]) -> List[Piece]:
    """Merge adjacent pieces that describe contiguous content."""
    out: List[Piece] = []
    for p in pieces:
        if piece_len(p) == 0:
            continue
        if out:
            prev = out[-1]
            if (
                isinstance(prev, SyntheticData)
                and isinstance(p, SyntheticData)
                and prev.seed == p.seed
                and p.origin == prev.origin + prev.nbytes
            ):
                out[-1] = SyntheticData(
                    nbytes=prev.nbytes + p.nbytes, seed=prev.seed, origin=prev.origin
                )
                continue
            if isinstance(prev, ZeroData) and isinstance(p, ZeroData):
                out[-1] = ZeroData(prev.nbytes + p.nbytes)
                continue
            if isinstance(prev, (bytes, bytearray)) and isinstance(p, (bytes, bytearray)):
                if len(prev) + len(p) <= MATERIALIZE_LIMIT:
                    out[-1] = bytes(prev) + bytes(p)
                    continue
        out.append(p)
    return out


def concat_pieces(pieces: List[Piece]):
    """Combine pieces into the simplest representation possible."""
    flat: List[Piece] = []
    for p in pieces:
        if isinstance(p, CompositeData):
            flat.extend(p.pieces)
        else:
            flat.append(p)
    flat = _coalesce(flat)
    if not flat:
        return b""
    if len(flat) == 1:
        return flat[0] if not isinstance(flat[0], bytearray) else bytes(flat[0])
    if all(isinstance(p, (bytes, bytearray, ZeroData)) for p in flat):
        total = sum(piece_len(p) for p in flat)
        if total <= MATERIALIZE_LIMIT:
            return b"".join(piece_bytes(p) for p in flat)
    return CompositeData(flat)


def _normalized(data) -> List[Tuple[str, object]]:
    """Structural signature used for large-data equality."""
    pieces = data.pieces if isinstance(data, CompositeData) else [data]
    pieces = _coalesce(list(pieces))
    sig: List[Tuple[str, object]] = []
    for p in pieces:
        if isinstance(p, (bytes, bytearray)):
            sig.append(("b", bytes(p)))
        elif isinstance(p, ZeroData):
            sig.append(("z", p.nbytes))
        elif isinstance(p, SyntheticData):
            sig.append(("s", (p.seed, p.origin, p.nbytes)))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported piece {type(p).__name__}")
    return sig


def data_equal(a, b) -> bool:
    """Compare two data pieces for equal content.

    Small data is compared byte-for-byte; large synthetic data structurally
    (same seed/origin/length describes the same content by construction).
    """
    la, lb = piece_len(a), piece_len(b)
    if la != lb:
        return False
    if la <= 1024 * 1024:
        return piece_bytes(a) == piece_bytes(b)
    return _normalized(a) == _normalized(b)
