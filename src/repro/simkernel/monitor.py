"""Lightweight instrumentation for simulation runs.

A :class:`Tally` accumulates per-operation samples (latencies) and computes
summary statistics without retaining huge sample arrays unless asked to;
a :class:`Counter` keeps named event counts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

__all__ = ["Tally", "Counter"]


class Tally:
    """Streaming mean/variance/min/max of samples (Welford).

    Samples default to unit weight.  A weighted observation stands for
    ``weight`` identical samples — collapsed tenant representatives
    record one latency on behalf of their whole equivalence class — and
    updates mean/variance with the closed-form batch merge, so the
    statistics equal those of the expanded sample stream.  The
    ``weight == 1`` path is byte-for-byte the historical arithmetic:
    an unweighted caller's floats are bit-identical to before.
    """

    def __init__(self, name: str = "", keep_samples: bool = False) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0
        self.samples: Optional[List[float]] = [] if keep_samples else None
        #: Parallel per-sample weights; materialized lazily on the first
        #: weighted observation so purely-unweighted tallies keep their
        #: original memory footprint and exact percentile path.
        self._weights: Optional[List[float]] = None

    def observe(self, value: float, weight: int = 1) -> None:
        if weight == 1:
            self.count += 1
            self.total += value
            delta = value - self._mean
            self._mean += delta / self.count
            self._m2 += delta * (value - self._mean)
        else:
            if weight <= 0:
                raise ValueError(f"weight {weight!r} must be positive")
            prior = self.count
            self.count = prior + weight
            self.total += weight * value
            delta = value - self._mean
            # Chan et al. batch merge of `weight` copies of one value
            # (batch mean == value, batch m2 == 0).
            self._mean += delta * weight / self.count
            self._m2 += delta * delta * prior * weight / self.count
            if self.samples is not None and self._weights is None:
                self._weights = [1.0] * len(self.samples)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.samples is not None:
            self.samples.append(value)
            if self._weights is not None:
                self._weights.append(float(weight))

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile; needs ``keep_samples=True``.

        *q* is a quantile in ``[0, 1]`` — ``0.999`` for p999.  Values
        outside that range raise :class:`ValueError` (a silent clamp
        would hide a caller passing 99.9 where 0.999 was meant).
        """
        return self.percentiles((q,))[0]

    def percentiles(self, qs) -> List[float]:
        """:meth:`percentile` for several quantiles with a single sort."""
        if self.samples is None:
            raise ValueError(f"Tally {self.name!r} was not keeping samples")
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile {q!r} outside [0, 1]")
        if not self.samples:
            return [math.nan for _ in qs]
        if self._weights is None:
            ordered = sorted(self.samples)
            out: List[float] = []
            for q in qs:
                rank = (len(ordered) - 1) * q
                lo = math.floor(rank)
                hi = math.ceil(rank)
                if lo == hi:
                    out.append(ordered[lo])
                else:
                    frac = rank - lo
                    out.append(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)
            return out
        # Weighted percentiles over the *expanded* stream: a sample of
        # weight w occupies w consecutive positions of the sorted virtual
        # array, so the result equals what observing each copy
        # individually would have produced (and the all-weights-1 case
        # equals the unweighted path above).
        pairs = sorted(zip(self.samples, self._weights))
        cum: List[float] = []
        running = 0.0
        for _, w in pairs:
            running += w
            cum.append(running)
        expanded = running  # == weighted count

        def _at(idx: float) -> float:
            return pairs[bisect_right(cum, idx)][0]

        out = []
        for q in qs:
            rank = (expanded - 1) * q
            lo = math.floor(rank)
            hi = math.ceil(rank)
            if lo == hi:
                out.append(_at(lo))
            else:
                frac = rank - lo
                out.append(_at(lo) * (1.0 - frac) + _at(hi) * frac)
        return out

    def summary(self) -> Dict[str, float]:
        out = {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "total": self.total,
        }
        if self.samples is not None:
            out["p50"], out["p99"], out["p999"] = self.percentiles((0.50, 0.99, 0.999))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Tally {self.name!r} n={self.count} mean={self.mean:.6g}>"


class Counter:
    """Named event counters (messages sent, cache hits, verifies, ...)."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, key: str, amount: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def items(self) -> List[Tuple[str, int]]:
        return sorted(self._counts.items())

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def clear(self) -> None:
        self._counts.clear()
