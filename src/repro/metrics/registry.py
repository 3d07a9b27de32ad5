"""Typed instruments and the per-environment metrics registry.

``env.metrics`` defaults to ``None``; the harness installs a registry on
metered trials.  Every instrument is a pull probe over state the
simulator already keeps, and no model code writes to the registry: the
sampler reads the probes on its own timer, so a metered run's simulated
timeline is bit-identical to an unmetered one.

Three instrument kinds cover the paper's time-resolved signals:

* :class:`Gauge` — an instantaneous level read through a probe callable
  at sample time (queue depth, cumulative subsystem counters).  Probes
  are pull-based: zero cost between samples, no per-event hooks.
* :class:`LinearGauge` — a gauge whose probe also returns its current
  slope ``(value, dvalue/dt)``.  Within a steady stretch (no scheduled
  events) the value is exactly linear, so the sampler can synthesize
  analytically-exact samples for fast-forwarded epochs in closed form.
* :class:`Histogram` — a view of a :class:`~repro.simkernel.monitor.Tally`
  its owner keeps, snapshotted as the cumulative observation count so
  rates and means are recoverable per window.

Every instrument carries a ``scope``:

* ``"model"`` — a physical quantity (bytes, requests, cache hits) that
  must agree across interchangeable engines (the flow engine and its
  global-refill test oracle within 1e-9, collapse exact at multiplicity
  1);
* ``"kernel"`` — simulator machinery (event counts, live queue depth)
  that legitimately differs between engines and is reported but never
  compared across them.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from ..simkernel.monitor import Tally

__all__ = [
    "Gauge",
    "Histogram",
    "LinearGauge",
    "MetricsRegistry",
    "Series",
]

#: Ring capacity per series: at the default sampling cadence
#: (:data:`repro.metrics.sampler.TARGET_SAMPLES` per run) this never
#: wraps; explicit short periods degrade gracefully by dropping the
#: oldest samples and reporting how many went missing.
SERIES_CAPACITY = 4096


class Series:
    """Ring-buffered time series of (tick index, value) samples.

    Timestamps are stored as integer tick indices and materialized as
    ``t0 + index * period`` at export time: the canonical grid makes
    sample times bit-identical across engines even when the underlying
    timer events land an ulp apart (float accumulation differs between
    stride patterns).
    """

    __slots__ = ("capacity", "_idx", "_val", "_head", "dropped")

    def __init__(self, capacity: int = SERIES_CAPACITY) -> None:
        self.capacity = capacity
        self._idx: List[int] = []
        self._val: List[float] = []
        self._head = 0  # ring start when full
        self.dropped = 0

    def append(self, index: int, value: float) -> None:
        if len(self._idx) < self.capacity:
            self._idx.append(index)
            self._val.append(value)
            return
        self._idx[self._head] = index
        self._val[self._head] = value
        self._head = (self._head + 1) % self.capacity
        self.dropped += 1

    def __len__(self) -> int:
        return len(self._idx)

    def items(self) -> List[Tuple[int, float]]:
        """Samples in chronological order (unrolled ring)."""
        h = self._head
        idx, val = self._idx, self._val
        if h == 0:
            return list(zip(idx, val))
        return list(zip(idx[h:] + idx[:h], val[h:] + val[:h]))

    def last_value(self) -> float:
        if not self._idx:
            return math.nan
        return self._val[self._head - 1] if self._head else self._val[-1]


class _Instrument:
    """Common identity/series plumbing for every instrument kind."""

    kind = "instrument"

    __slots__ = ("name", "unit", "scope", "series")

    def __init__(self, name: str, unit: str, scope: str) -> None:
        if scope not in ("model", "kernel"):
            raise ValueError(f"instrument {name!r}: scope must be 'model' or 'kernel'")
        self.name = name
        self.unit = unit
        self.scope = scope
        self.series = Series()

    # Sampler interface -----------------------------------------------------
    def sample(self) -> float:
        raise NotImplementedError

    def slope(self) -> float:
        """Rate of change inside a steady stretch (0 for step quantities)."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} n={len(self.series)}>"


class Gauge(_Instrument):
    """Pull-based level: the probe is called only at sample time."""

    kind = "gauge"

    __slots__ = ("probe",)

    def __init__(
        self, name: str, probe: Callable[[], float], unit: str = "", scope: str = "model"
    ) -> None:
        super().__init__(name, unit, scope)
        self.probe = probe

    def sample(self) -> float:
        return float(self.probe())


class LinearGauge(_Instrument):
    """Gauge whose probe returns ``(value, slope)`` for closed-form backfill.

    Between two scheduled events every fluid rate is exactly constant
    (rates only change at flow arrivals/departures, which are events), so
    ``value(t) = value(now) - slope * (now - t)`` reconstructs any sample
    inside the stretch analytically — this is what makes fast-forwarded
    epochs synthesizable instead of lost.
    """

    kind = "linear"

    __slots__ = ("probe", "_slope")

    def __init__(
        self,
        name: str,
        probe: Callable[[], Tuple[float, float]],
        unit: str = "",
        scope: str = "model",
    ) -> None:
        super().__init__(name, unit, scope)
        self.probe = probe
        self._slope = 0.0

    def sample(self) -> float:
        value, self._slope = self.probe()
        return float(value)

    def slope(self) -> float:
        return self._slope


class Histogram(_Instrument):
    """View of a :class:`Tally` its owner keeps; sampled as the cumulative count.

    The owner observes into the tally; the sampled series carries the
    cumulative observation count so per-window operation rates fall out
    of first differences, and the export summarizes the tally's
    percentiles at the end of the run.
    """

    kind = "histogram"

    __slots__ = ("tally",)

    def __init__(self, name: str, tally: Tally, unit: str = "", scope: str = "model") -> None:
        super().__init__(name, unit, scope)
        self.tally = tally

    def sample(self) -> float:
        return float(self.tally.count)


class MetricsRegistry:
    """All instruments of one environment, in deterministic order.

    Create with :meth:`install`, mirroring ``Tracer.install``::

        registry = MetricsRegistry.install(env)
        registry.gauge("fabric.bytes", lambda: float(fabric.counters["bytes"]), unit="B")

    Instrument creation is get-or-create by name.  Iteration order is
    insertion order — exports, merges, and float sums over instruments
    are reproducible run-over-run.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.instruments: Dict[str, _Instrument] = {}
        self.sampler = None  # attached by Sampler.start()
        #: Bumped on every instrument creation; the sampler invalidates
        #: its bound-method cache against this (the workload engine
        #: registers its per-class views after the sampler starts).
        self.version = 0

    @classmethod
    def install(cls, env) -> "MetricsRegistry":
        registry = cls(env)
        env.metrics = registry
        return registry

    # -- instrument factories (get-or-create by name) ------------------------
    def _get(self, name: str, kind: type, *args, **kwargs):
        inst = self.instruments.get(name)
        if inst is not None:
            if not isinstance(inst, kind):
                raise ValueError(
                    f"instrument {name!r} already registered as {inst.kind}"
                )
            return inst
        inst = kind(name, *args, **kwargs)
        self.instruments[name] = inst
        self.version += 1
        return inst

    def gauge(
        self, name: str, probe: Callable[[], float], unit: str = "", scope: str = "model"
    ) -> Gauge:
        return self._get(name, Gauge, probe, unit, scope)

    def linear(
        self,
        name: str,
        probe: Callable[[], Tuple[float, float]],
        unit: str = "",
        scope: str = "model",
    ) -> LinearGauge:
        return self._get(name, LinearGauge, probe, unit, scope)

    def histogram(
        self, name: str, tally: Tally, unit: str = "", scope: str = "model"
    ) -> Histogram:
        return self._get(name, Histogram, tally, unit, scope)
