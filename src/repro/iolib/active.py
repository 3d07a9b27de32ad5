"""Active storage: remote filtering at the storage servers (§6).

The paper's future work includes "I/O libraries that incorporate remote
processing (e.g., remote filtering)" (citing the active-disk line of
work).  The LWFS architecture makes this a natural extension: the storage
service already enforces capabilities per request, so letting an
authorized client ship a *named reduction* to run next to the data needs
no new trust — the server streams the object range off its RAID, applies
the filter locally, and returns a small digest instead of the bulk bytes.

Filters are drawn from a fixed registry (servers never execute arbitrary
client code): sums, extrema, histograms, and predicate counts over f32/u8
payloads.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ..errors import StorageError
from ..lwfs.storage_svc import StorageService
from ..storage.data import piece_bytes

__all__ = ["FILTER_REGISTRY", "register_filter", "run_filter", "attach_filter_support"]


def _as_f32(raw: bytes) -> np.ndarray:
    usable = len(raw) - (len(raw) % 4)
    return np.frombuffer(raw[:usable], dtype=np.float32)


def _f_sum_f32(raw: bytes, args: dict) -> float:
    return float(_as_f32(raw).sum())


def _f_minmax_f32(raw: bytes, args: dict) -> Tuple[float, float]:
    data = _as_f32(raw)
    if data.size == 0:
        return (0.0, 0.0)
    return (float(data.min()), float(data.max()))


def _f_mean_f32(raw: bytes, args: dict) -> float:
    data = _as_f32(raw)
    return float(data.mean()) if data.size else 0.0


def _f_count_above_f32(raw: bytes, args: dict) -> int:
    threshold = float(args.get("threshold", 0.0))
    return int((_as_f32(raw) > threshold).sum())

def _f_histogram_u8(raw: bytes, args: dict) -> List[int]:
    bins = int(args.get("bins", 16))
    if not 1 <= bins <= 256:
        raise StorageError(f"histogram bins {bins} outside 1..256")
    counts, _edges = np.histogram(
        np.frombuffer(raw, dtype=np.uint8), bins=bins, range=(0, 256)
    )
    return counts.tolist()


def _f_count_byte(raw: bytes, args: dict) -> int:
    needle = int(args.get("byte", 0)) & 0xFF
    return int((np.frombuffer(raw, dtype=np.uint8) == needle).sum())


#: Name -> callable(raw_bytes, args) -> small JSON-able result.
FILTER_REGISTRY: Dict[str, Callable[[bytes, dict], object]] = {
    "sum_f32": _f_sum_f32,
    "minmax_f32": _f_minmax_f32,
    "mean_f32": _f_mean_f32,
    "count_above_f32": _f_count_above_f32,
    "histogram_u8": _f_histogram_u8,
    "count_byte": _f_count_byte,
}


def register_filter(name: str, fn: Callable[[bytes, dict], object]) -> None:
    """Install a deployment-approved filter (e.g. from a site library)."""
    if name in FILTER_REGISTRY:
        raise ValueError(f"filter {name!r} already registered")
    FILTER_REGISTRY[name] = fn


def run_filter(name: str, raw: bytes, args: dict) -> object:
    fn = FILTER_REGISTRY.get(name)
    if fn is None:
        raise StorageError(f"unknown filter {name!r} (servers run only registered filters)")
    return fn(raw, dict(args or {}))


def attach_filter_support(svc: StorageService):
    """Give a functional StorageService a ``filter_object`` method.

    Enforcement is the normal READ path: the filter sees exactly the bytes
    a read would have returned, so a capability that cannot read cannot
    filter.
    """

    def filter_object(cap, oid, offset: int, length: int, name: str, args: dict = None):
        data = svc.read(cap, oid, offset, length)  # enforces OpMask.READ
        return run_filter(name, piece_bytes(data), args or {})

    svc.filter_object = filter_object  # type: ignore[attr-defined]
    return filter_object
