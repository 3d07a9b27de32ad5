"""Typed instruments and the per-environment registry.

Contract under test:

* ``env.metrics`` defaults to ``None`` (the zero-overhead trio);
* instrument creation is get-or-create by name, kind mismatches are
  loud, and the registry version bumps so the sampler's bound-method
  cache invalidates;
* the series ring drops oldest-first and reports how many went missing;
* every instrument is a pull probe: a histogram is a view of a tally its
  owner keeps;
* metrics only observe: outside ``repro.metrics`` the registry is named
  only by the workload engine, which registers views of its own tallies.
"""

import math
import os

import pytest

from repro.metrics import Gauge, MetricsRegistry, Series
from repro.simkernel import Environment, Tally

from ..bench.test_run_options import _package_sources


def _registry():
    return MetricsRegistry.install(Environment())


class TestEnvironmentDefault:
    def test_metrics_defaults_to_none(self):
        assert Environment().metrics is None

    def test_install_attaches(self):
        env = Environment()
        registry = MetricsRegistry.install(env)
        assert env.metrics is registry
        assert registry.env is env


class TestSeriesRing:
    def test_append_and_items_in_order(self):
        s = Series(capacity=8)
        for i in range(1, 6):
            s.append(i, float(i) * 10)
        assert len(s) == 5
        assert s.items() == [(i, float(i) * 10) for i in range(1, 6)]
        assert s.last_value() == 50.0
        assert s.dropped == 0

    def test_wrap_drops_oldest_first(self):
        s = Series(capacity=4)
        for i in range(1, 8):
            s.append(i, float(i))
        assert len(s) == 4
        assert s.dropped == 3
        # Oldest three gone; survivors still chronological.
        assert s.items() == [(4, 4.0), (5, 5.0), (6, 6.0), (7, 7.0)]
        assert s.last_value() == 7.0

    def test_empty_last_value_is_nan(self):
        assert math.isnan(Series().last_value())


class TestFactories:
    def test_get_or_create_returns_same_instrument(self):
        r = _registry()
        a = r.gauge("app.bytes", lambda: 0.0, unit="B")
        b = r.gauge("app.bytes", lambda: 1.0)
        assert a is b

    def test_kind_mismatch_raises(self):
        r = _registry()
        r.gauge("x", lambda: 0.0)
        with pytest.raises(ValueError, match="already registered"):
            r.histogram("x", Tally(keep_samples=True))

    def test_scope_validated(self):
        with pytest.raises(ValueError, match="scope"):
            Gauge("bad", lambda: 0.0, scope="cosmic")

    def test_version_bumps_only_on_creation(self):
        r = _registry()
        v0 = r.version
        r.gauge("a", lambda: 0.0)
        assert r.version == v0 + 1
        r.gauge("a", lambda: 0.0)  # get, not create
        assert r.version == v0 + 1
        r.histogram("b", Tally(keep_samples=True))
        assert r.version == v0 + 2


class TestInstruments:
    def test_gauge_pull_probe(self):
        r = _registry()
        level = {"v": 3.0}
        g = r.gauge("queue.depth", lambda: level["v"], scope="kernel")
        assert g.sample() == 3.0
        level["v"] = 7.0
        assert g.sample() == 7.0

    def test_linear_gauge_reports_slope(self):
        r = _registry()
        g = r.linear("flow.bytes", lambda: (1000.0, 250.0), unit="B")
        assert g.sample() == 1000.0
        assert g.slope() == 250.0

    def test_histogram_samples_cumulative_count(self):
        r = _registry()
        tally = Tally("op.latency", keep_samples=True)
        h = r.histogram("op.latency", tally, unit="s")
        for v in (0.1, 0.2, 0.3):
            tally.observe(v)
        assert h.tally is tally
        assert h.sample() == 3.0
        assert h.tally.mean == pytest.approx(0.2)


class TestMetricsOnlyObserve:
    #: The one model module that names the registry: the workload
    #: engine's constructor registers views of its per-class tally and
    #: byte count.  The harness installs the registry from repro.metrics.
    WHITELIST = {os.path.join("workload", "engine.py")}

    def test_no_model_module_names_the_registry(self):
        offenders = [
            rel for rel, source in _package_sources()
            if "env.metrics" in source
            and not rel.startswith("metrics" + os.sep)
            and rel not in self.WHITELIST
        ]
        assert not offenders, f"modules outside repro.metrics name env.metrics: {offenders}"
