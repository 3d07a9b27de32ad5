"""Rolling SLO windows over sampled goodput: degraded intervals + recovery.

PR 5's fault injector reports ``degraded_seconds`` (the union of
fault-active windows) and ``goodput_degraded`` (fabric MiB/s inside
them) — counters derived from *injector* state, not from what the
application actually experienced.  This module derives the same story
from the sampled time series instead, with two complementary detectors:

* **Aggregate rolling-rate windows** — the summed goodput signal
  (:data:`GOODPUT_METRICS`) is smoothed over a rolling window sized
  from the signal's own healthy progress cadence, and maximal runs
  below ``floor_frac × baseline`` become degraded intervals.  The
  adaptive width matters: under the chunked fast path bytes land in
  whole-transfer lumps, so a fixed-width window either drowns in
  sampling noise or misses short outages.
* **Per-target stall detection** — a fault that kills ``stor0`` stops
  *that server's* byte series cold while the survivors keep streaming,
  so per-fault time-to-recovery is measured on the target's own series:
  the gap between progress events that brackets the fault window is the
  observed outage, and its trailing edge is ``t_recover``.

The injector counters stay untouched (``tests/faults`` pins them
bit-identically); the health layer is the series-derived view the
acceptance criterion checks against them (±5% on time-to-recovery,
given a retry policy whose detection latency is small against the
outage — recovery observed through a 250 ms RPC timeout is honestly
~250 ms, whatever the injector says).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..simkernel.monitor import Tally

__all__ = ["SloConfig", "HealthReport", "evaluate_health", "goodput_rates"]

#: Instruments summed into the goodput signal, in priority order; a
#: series that is absent or flat contributes nothing.  ``flow.bytes``
#: carries the fluid engine's bulk bytes, ``fabric.bytes`` the chunked
#: path's (plus control traffic) — together they cover both data paths.
GOODPUT_METRICS = ("fabric.bytes", "flow.bytes")


@dataclass(frozen=True)
class SloConfig:
    """The service-level objective evaluated over the sampled series."""

    #: A rolling window is degraded when its goodput falls below this
    #: fraction of the healthy baseline rate.
    floor_frac: float = 0.5
    #: Baseline = this quantile of the positive rolling rates inside the
    #: transfer envelope (median by default: robust to the degraded
    #: windows themselves and to pipeline ramp-up/drain).
    baseline_q: float = 0.5
    #: Degraded runs shorter than this many consecutive windows are
    #: ignored (single-window dips are sampling noise at fine periods).
    min_windows: int = 1
    #: The transfer envelope: the SLO judges only the interval in which
    #: the cumulative goodput climbs from ``envelope_lo`` to
    #: ``envelope_hi`` of its final total.  A checkpoint's control-plane
    #: phases (create, sync, 2PC commit) move almost no bytes by design;
    #: without the envelope they read as "degraded" on every clean run.
    #: A mid-transfer outage stays inside the envelope — the remaining
    #: bytes arrive after recovery, so the envelope spans the stall.
    envelope_lo: float = 0.005
    envelope_hi: float = 0.995
    #: A sample window counts as a *progress event* when it moves at
    #: least ``total_bytes / progress_div`` — control-plane trickle
    #: (requests, acks, retries) must not read as goodput.
    progress_div: float = 512.0
    #: Rolling smoothing width = ``smooth_gaps`` × the median gap
    #: between progress events.  Lumpy signals (whole transfers landing
    #: at completion) get wide windows; smooth signals stay sharp.
    smooth_gaps: float = 4.0
    #: A gap between consecutive progress events longer than
    #: ``stall_gaps`` × the median gap is a stall (per-target detector).
    stall_gaps: float = 8.0


@dataclass
class HealthReport:
    """The SLO verdict for one trial's sampled series."""

    verdict: str  # "ok" | "degraded" | "no-data"
    baseline_rate: float
    floor_rate: float
    p999_rate: float
    #: Maximal degraded intervals [{t_start, t_end, seconds, mean_rate}].
    degraded_windows: List[Dict[str, float]] = field(default_factory=list)
    #: Series-derived total degraded time (sum of window lengths).
    degraded_seconds: float = 0.0
    #: Per-FaultEvent recovery [{kind, target, t_inject, t_recover,
    #: time_to_recovery, source}] — t_recover is when goodput was
    #: *restored*, which may trail the injector's own recover entry;
    #: ``source`` says which detector measured it ("target" when the
    #: fault's own per-server series was available, else "aggregate").
    time_to_recovery: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "baseline_rate": self.baseline_rate,
            "floor_rate": self.floor_rate,
            "p999_rate": self.p999_rate,
            "degraded_windows": self.degraded_windows,
            "degraded_seconds": self.degraded_seconds,
            "time_to_recovery": self.time_to_recovery,
        }


def _deltas(doc: dict, names: Sequence[str]) -> Tuple[List[float], List[float]]:
    """``(window_end_times, per_window_bytes)`` of the summed series.

    Works on the exported metrics document (see
    :mod:`repro.metrics.export`): cumulative byte series are aligned on
    the canonical tick grid and first-differenced per window.
    """
    period = float(doc["period"])
    t0 = float(doc["t0"])
    cumulative: Dict[int, float] = {}
    for inst in doc["instruments"]:
        if inst["name"] not in names:
            continue
        for index, value in zip(inst["series"]["indices"], inst["series"]["values"]):
            cumulative[index] = cumulative.get(index, 0.0) + float(value)
    if len(cumulative) < 2:
        return [], []
    indices = sorted(cumulative)
    times: List[float] = []
    deltas: List[float] = []
    prev = indices[0]
    for index in indices[1:]:
        times.append(t0 + index * period)
        deltas.append(cumulative[index] - cumulative[prev])
        prev = index
    return times, deltas


def _goodput(doc: dict) -> Tuple[List[float], List[float], List[float]]:
    """``(window_end_times, rates, per_window_bytes)`` of summed goodput."""
    period = float(doc["period"])
    times, deltas = _deltas(doc, GOODPUT_METRICS)
    rates = [d / period for d in deltas]
    return times, rates, deltas


def goodput_rates(doc: dict) -> Tuple[List[float], List[float]]:
    """``(window_end_times, rates)`` of the summed goodput signal."""
    times, rates, _deltas = _goodput(doc)
    return times, rates


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _progress_times(
    times: Sequence[float], deltas: Sequence[float], threshold: float
) -> List[float]:
    return [t for t, d in zip(times, deltas) if d >= threshold]


def _stalls(
    times: Sequence[float],
    deltas: Sequence[float],
    slo: SloConfig,
    period: float,
) -> List[Tuple[float, float]]:
    """Maximal gaps between progress events long enough to be outages.

    Ramp-up before the first progress event and drain after the last are
    not stalls — only interior gaps count.  The stall threshold adapts
    to the series' own cadence: ``stall_gaps`` × the median inter-event
    gap (floored at a few sample periods so a fine grid cannot turn the
    healthy cadence itself into "stalls").
    """
    total = sum(deltas)
    if total <= 0.0:
        return []
    progress = _progress_times(times, deltas, total / slo.progress_div)
    if len(progress) < 2:
        return []
    gaps = [b - a for a, b in zip(progress, progress[1:])]
    g = max(_median(gaps), period)
    limit = max(slo.stall_gaps * g, 3.0 * period)
    return [
        (a, b)
        for a, b in zip(progress, progress[1:])
        if b - a > limit
    ]


def _fault_windows(fault_log: Sequence[dict]) -> List[Dict[str, object]]:
    """Pair inject/recover entries: [{kind, target, t_inject, t_clear}].

    ``t_clear`` is the *injector's* recovery time (math.inf for
    permanent faults) — the health layer measures when goodput actually
    came back, which trails it.
    """
    out: List[Dict[str, object]] = []
    for entry in fault_log:
        action = entry.get("action")
        kind = str(entry.get("kind", ""))
        if kind.startswith("rpc_"):
            continue  # per-RPC drops/dups are points, not intervals
        if action == "inject":
            out.append(
                {
                    "kind": kind,
                    "target": str(entry.get("target", "")),
                    "t_inject": float(entry["t"]),
                    "t_clear": math.inf,
                }
            )
        elif action == "recover":
            for fault in reversed(out):
                if (
                    fault["kind"] == kind
                    and fault["target"] == str(entry.get("target", ""))
                    and fault["t_clear"] == math.inf
                ):
                    fault["t_clear"] = float(entry["t"])
                    break
    return out


#: Per-target series consulted for time-to-recovery, in priority order:
#: disk bytes are pure payload (control traffic never touches them).
_TARGET_SERIES = (
    "server.{target}.disk_bytes",
    "server.{target}.requests",
    "{target}.disk_bytes",
    "{target}.requests",
)


def _target_recovery(
    doc: dict, fault: Dict[str, object], slo: SloConfig
) -> Optional[float]:
    """When the fault target's own series resumed progress, or ``None``."""
    period = float(doc["period"])
    names = {inst["name"] for inst in doc["instruments"]}
    t_inject = float(fault["t_inject"])  # type: ignore[arg-type]
    t_clear = float(fault["t_clear"])  # type: ignore[arg-type]
    for pattern in _TARGET_SERIES:
        name = pattern.format(target=fault["target"])
        if name not in names:
            continue
        times, deltas = _deltas(doc, (name,))
        if not times:
            continue
        candidates = [
            b
            for a, b in _stalls(times, deltas, slo, period)
            if b >= t_inject and a <= t_clear
        ]
        if candidates:
            return max(candidates)
    return None


def evaluate_health(
    doc: dict,
    fault_log: Optional[List[dict]] = None,
    slo: Optional[SloConfig] = None,
) -> HealthReport:
    """Evaluate the SLO over one trial's exported metrics document."""
    slo = slo or SloConfig()
    period = float(doc["period"])
    times, rates, deltas = _goodput(doc)
    total = sum(deltas)
    if not rates or total <= 0.0:
        return HealthReport(
            verdict="no-data", baseline_rate=math.nan,
            floor_rate=math.nan, p999_rate=math.nan,
        )
    # The transfer envelope (see SloConfig): scan only the interval in
    # which the payload is actually moving.
    lo = hi = None
    running = 0.0
    for i, delta in enumerate(deltas):
        running += delta
        if lo is None and running >= total * slo.envelope_lo:
            lo = i
        if running >= total * slo.envelope_hi:
            hi = i
            break
    if lo is None:  # pragma: no cover - total > 0 guarantees an lo
        lo = 0
    if hi is None:
        hi = len(rates) - 1

    # Rolling smoothing width from the signal's own cadence: the median
    # gap between progress events inside the envelope.
    progress = _progress_times(
        times[lo:hi + 1], deltas[lo:hi + 1], total / slo.progress_div
    )
    gaps = [b - a for a, b in zip(progress, progress[1:])]
    g = max(_median(gaps), period)
    k = max(1, int(round(slo.smooth_gaps * g / period)))

    # Trailing rolling rate per window.  Inside the envelope the
    # lookback is clamped at the envelope start: the windows just after
    # ``lo`` must be judged on transfer-phase data, not dragged below
    # the floor by the control-plane zeros before it (a clean ramp-up
    # is not an outage).
    rolling: List[float] = []
    cum = 0.0
    cums: List[float] = []
    for d in deltas:
        cum += d
        cums.append(cum)
    for i in range(len(deltas)):
        j = max(lo if i >= lo else 0, i - k + 1)
        moved = cums[i] - (cums[j - 1] if j > 0 else 0.0)
        rolling.append(moved / ((i - j + 1) * period))

    tally = Tally("goodput", keep_samples=True)
    for r in rolling[lo:hi + 1]:
        if r > 0.0:
            tally.observe(r)
    baseline = tally.percentile(slo.baseline_q)
    p999 = tally.percentile(0.999)
    floor = slo.floor_frac * baseline

    windows: List[Dict[str, float]] = []
    run_start: Optional[int] = None
    for i in range(lo, hi + 2):
        degraded = i <= hi and rolling[i] < floor
        if degraded and run_start is None:
            run_start = i
        elif not degraded and run_start is not None:
            if i - run_start >= slo.min_windows:
                seconds = (i - run_start) * period
                mean_rate = sum(rates[run_start:i]) / (i - run_start)
                windows.append(
                    {
                        # A window's rate covers (t_end - period, t_end];
                        # the interval starts where its first window does.
                        "t_start": times[run_start] - period,
                        "t_end": times[i - 1],
                        "seconds": seconds,
                        "mean_rate": mean_rate,
                    }
                )
            run_start = None

    degraded_seconds = sum(w["seconds"] for w in windows)
    ttr: List[Dict[str, object]] = []
    for fault in _fault_windows(fault_log or ()):
        t_inject = float(fault["t_inject"])  # type: ignore[arg-type]
        t_clear = float(fault["t_clear"])  # type: ignore[arg-type]
        t_recover = _target_recovery(doc, fault, slo)
        source = "target"
        if t_recover is None:
            # No per-target series (aggregate-only export, or the fault
            # hit a shared service): fall back to the last aggregate
            # degraded window overlapping the injector's fault window.
            source = "aggregate"
            overlapping = [
                w["t_end"]
                for w in windows
                if w["t_end"] >= t_inject and w["t_start"] <= t_clear + period
            ]
            t_recover = max(overlapping) if overlapping else None
        if t_recover is None:
            # Goodput never faltered for this fault: recovery is
            # immediate at the sampling resolution.
            t_recover = t_inject
            source = "none"
        ttr.append(
            {
                "kind": fault["kind"],
                "target": fault["target"],
                "t_inject": t_inject,
                "t_recover": t_recover,
                "time_to_recovery": max(0.0, t_recover - t_inject),
                "source": source,
            }
        )

    return HealthReport(
        verdict="degraded" if windows else "ok",
        baseline_rate=baseline,
        floor_rate=floor,
        p999_rate=p999,
        degraded_windows=windows,
        degraded_seconds=degraded_seconds,
        time_to_recovery=ttr,
    )
