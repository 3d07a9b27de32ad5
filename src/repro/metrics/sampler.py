"""Simulated-time periodic sampler with fast-forward-aware striding.

The sampler snapshots every registered instrument on a fixed simulated
cadence.  It is a self-rescheduling timeout callback — not a process —
so each sample costs one kernel event plus one probe call per
instrument, and it *reads* state only: a metered run's workload timeline
is bit-identical to an unmetered one (the pinned zero-perturbation
contract; only ``events_processed`` grows, by exactly the tick count).

Fast-forward awareness
----------------------
When the environment's analytic engines skip a steady epoch, a naive
sampler would either miss the epoch entirely or force the kernel to wake
every period, defeating the skip.  This one strides instead: at each
tick it asks :meth:`Environment.peek` for the next scheduled event.  If
the next event is several periods away, the stretch is provably quiet —
no event can occur before ``peek()``, and no new event can be scheduled
without one running — so the sampler sleeps ``k`` periods in one timeout
and, on waking, synthesizes the ``k - 1`` skipped boundary samples in
closed form:

* gauges and histograms hold their value (nothing ran, nothing
  changed — the synthesized sample is *exact*, not interpolated);
* :class:`~repro.metrics.registry.LinearGauge` instruments (fluid flow
  byte totals) drain at a constant rate within the stretch (rates change
  only at events), so ``value(t) = value(now) - slope * (now - t)``
  reconstructs each boundary analytically — within 1e-9 of what a run on
  the global-refill flow oracle samples at the same boundary.

``peek()`` counts tombstoned (cancelled-but-pending) timers, so a stale
timer can only shorten a stride, never corrupt one.

Timestamps live on the canonical grid ``t0 + index * period`` (integer
tick indices in the ring; times materialized at export), so two engines
whose timer events land an ulp apart still produce bit-identical sample
timestamps.
"""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry

__all__ = ["MAX_STRIDE", "MIN_PERIOD", "Sampler", "TARGET_SAMPLES", "default_period"]

#: Samples the default period aims to spread over one run's analytic
#: horizon — fine enough to resolve fault windows, coarse enough that a
#: trial's series stays a few KiB.
TARGET_SAMPLES = 128

#: Floor on the sampling period (seconds): sub-microsecond cadences cost
#: more events than the workloads they would measure.
MIN_PERIOD = 1e-6

#: Longest single stride (periods skipped in one sleep); bounds the
#: synthesis loop on waking and keeps one timer hop from spanning an
#: entire pathological run.
MAX_STRIDE = 512


def default_period(horizon: float) -> float:
    """The deterministic sampling period for an analytic *horizon* estimate.

    A model-derived quantity, never a measured one, so the cadence is
    identical across processes and repeated runs of the same spec.
    """
    return max(float(horizon) / TARGET_SAMPLES, MIN_PERIOD)


class Sampler:
    """Drumbeat sampler over one registry's instruments."""

    def __init__(
        self,
        registry: MetricsRegistry,
        period: float,
        max_stride: int = MAX_STRIDE,
    ) -> None:
        if period <= 0:
            raise ValueError(f"sampling period must be positive, got {period!r}")
        self.registry = registry
        self.env = registry.env
        self.period = float(period)
        self.max_stride = max(1, int(max_stride))
        self.t0 = self.env.now
        #: Timer events actually processed (the kernel-event overhead).
        self.ticks = 0
        #: Boundary samples synthesized in closed form during strides.
        self.synthesized = 0
        #: Total samples recorded per instrument grid slot.
        self.samples = 0
        #: Simulated time of the closing snapshot (None until finish()).
        self.t_end: Optional[float] = None
        self.final_values: dict = {}
        self._last_index = 0
        self._next_index = 0
        self._timer = None
        # Bound-method cache for the hot no-synthesis path; invalidated
        # against registry.version (instruments can appear mid-run).
        self._pairs: list = []
        self._cache_version = -1

    def start(self) -> "Sampler":
        """Arm the first tick one period out and attach to the registry."""
        self.registry.sampler = self
        self._schedule(1)
        return self

    # -- internals -----------------------------------------------------------
    def _schedule(self, index: int) -> None:
        delay = (self.t0 + index * self.period) - self.env._now
        if delay < 0.0:  # pragma: no cover - float guard
            delay = 0.0
        timer = self.env.timeout(delay)
        timer.callbacks.append(self._tick)
        self._timer = timer
        self._next_index = index

    def _tick(self, _event) -> None:
        env = self.env
        now = env._now
        index = self._next_index
        last = self._last_index
        registry = self.registry
        t0, period = self.t0, self.period
        if index == last + 1:
            # Hot path (no stride, nothing to synthesize): one probe and
            # one append per instrument through cached bound methods —
            # this loop dominates the metered run's constant overhead.
            if self._cache_version != registry.version:
                self._pairs = [
                    (inst.sample, inst.series.append)
                    for inst in registry.instruments.values()
                ]
                self._cache_version = registry.version
            for sample, append in self._pairs:
                append(index, sample())
        else:
            for inst in registry.instruments.values():
                value = inst.sample()
                slope = inst.slope()
                series = inst.series
                if slope != 0.0:
                    for j in range(last + 1, index):
                        series.append(j, value - slope * (now - (t0 + j * period)))
                else:
                    for j in range(last + 1, index):
                        series.append(j, value)
                series.append(index, value)
        self.ticks += 1
        self.samples += index - last
        self.synthesized += index - last - 1
        self._last_index = index
        self._timer = None

        # Nothing else pending: the workload is over (no event can ever
        # be scheduled again), so stop rather than keep the clock alive.
        if env._live == 0:
            self.t_end = now
            return

        # Stride: sleep past every boundary provably inside the quiet
        # stretch.  Strict inequality keeps the wake *before* the next
        # event, so probes on waking still see the untouched stretch.
        look = env.peek()
        k = int((look - t0) / period) - index
        if k > self.max_stride:
            k = self.max_stride
        while k > 1 and t0 + (index + k) * period >= look:
            k -= 1
        if k < 1:
            k = 1
        self._schedule(index + k)

    # -- closing -------------------------------------------------------------
    def finish(self) -> None:
        """Take the closing snapshot at the current simulated time.

        The run's ``until`` event may trigger between grid boundaries;
        the final cumulative values (and the end time) are recorded
        off-grid so totals never lose the tail of the last window.
        """
        if self.t_end is None or self.env.now > self.t_end:
            self.t_end = self.env.now
        self.final_values = {
            name: inst.sample() for name, inst in self.registry.instruments.items()
        }

    def stats(self) -> dict:
        """Sampler-side bookkeeping for trial extras / overhead checks."""
        return {
            "metrics_ticks": float(self.ticks),
            "metrics_samples": float(self.samples),
            "metrics_synthesized": float(self.synthesized),
            "metrics_period": self.period,
        }
