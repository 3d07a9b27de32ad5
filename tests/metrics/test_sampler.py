"""The simulated-time sampler: grid, strides, closed-form synthesis.

Contract under test:

* samples land on the canonical grid ``t0 + index * period`` with
  contiguous integer indices — no gaps even across strides;
* a quiet stretch (next event several periods away) is crossed in one
  timer hop, and the skipped boundaries are synthesized exactly:
  zero-slope instruments hold their value, linear gauges backfill
  ``value - slope * (now - t)`` to within 1e-9;
* the sampler stops itself when the schedule drains (it must never keep
  an otherwise-finished run alive);
* instruments registered mid-run are picked up (bound-method cache
  invalidation against ``registry.version``).
"""

import pytest

from repro.metrics import MetricsRegistry, Sampler, default_period
from repro.metrics.sampler import MIN_PERIOD, TARGET_SAMPLES
from repro.simkernel import Environment


def _metered_env(period):
    env = Environment()
    registry = MetricsRegistry.install(env)
    sampler = Sampler(registry, period).start()
    return env, registry, sampler


class TestDefaultPeriod:
    def test_spreads_target_samples_over_horizon(self):
        assert default_period(128.0) == pytest.approx(128.0 / TARGET_SAMPLES)

    def test_floor(self):
        assert default_period(1e-12) == MIN_PERIOD

    def test_positive_period_required(self):
        env = Environment()
        registry = MetricsRegistry.install(env)
        with pytest.raises(ValueError, match="period"):
            Sampler(registry, 0.0)


class TestGrid:
    def test_contiguous_indices_and_grid_times(self):
        env, registry, sampler = _metered_env(period=0.5)
        done = [0.0]
        counter = registry.gauge("work.items", lambda: done[0])

        def ticker():
            for _ in range(20):
                yield env.timeout(0.3)
                done[0] += 1.0

        env.process(ticker())
        env.run()
        sampler.finish()
        items = counter.series.items()
        indices = [i for i, _ in items]
        assert indices == list(range(1, indices[-1] + 1))
        # 20 x 0.3s of work sampled at 0.5s: the grid covers the run.
        assert indices[-1] == int(6.0 / 0.5)
        values = [v for _, v in items]
        assert values == sorted(values)

    def test_sampler_stops_with_schedule(self):
        env, registry, sampler = _metered_env(period=0.25)
        registry.gauge("noop", lambda: 0.0)

        def one_shot():
            yield env.timeout(1.0)

        env.process(one_shot())
        env.run()
        # The drained schedule stopped the drumbeat; the clock parked at
        # the last tick, not at infinity.
        assert env.now <= 1.0 + 0.25
        assert sampler.t_end is not None


class TestStrideSynthesis:
    def test_quiet_stretch_crossed_in_one_hop(self):
        env, registry, sampler = _metered_env(period=1.0)
        gauge = registry.gauge("level", lambda: 42.0)

        def sparse():
            yield env.timeout(0.5)
            yield env.timeout(100.0)  # provably quiet: nothing else scheduled

        env.process(sparse())
        env.run()
        sampler.finish()
        items = gauge.series.items()
        indices = [i for i, _ in items]
        assert indices == list(range(1, indices[-1] + 1))
        # Work ends at t=100.5; the drumbeat covers it (one trailing tick
        # past the last event closes the run out).
        assert indices[-1] == 101
        # Far fewer timer events than samples: the stretch was strided.
        assert sampler.ticks < sampler.samples
        assert sampler.synthesized == sampler.samples - sampler.ticks
        assert sampler.synthesized > 0
        # Zero-slope synthesis holds the value exactly.
        assert all(v == 42.0 for _, v in items)

    def test_linear_gauge_backfill_is_analytically_exact(self):
        env, registry, sampler = _metered_env(period=1.0)
        rate = 8.0  # bytes per simulated second

        def probe():
            return (rate * env.now, rate)

        gauge = registry.linear("flow.bytes", probe, unit="B")

        def sparse():
            yield env.timeout(0.25)
            yield env.timeout(64.0)

        env.process(sparse())
        env.run()
        sampler.finish()
        assert sampler.synthesized > 0
        for index, value in gauge.series.items():
            t = sampler.t0 + index * sampler.period
            assert value == pytest.approx(rate * t, abs=1e-9)

    def test_midrun_instrument_is_picked_up(self):
        env, registry, sampler = _metered_env(period=0.5)
        registry.gauge("early", lambda: 0.0)
        retries = [0.0]

        def late_registration():
            yield env.timeout(2.2)
            retries[0] += 1.0
            registry.gauge("late.retries", lambda: retries[0])
            yield env.timeout(2.0)
            retries[0] += 1.0
            yield env.timeout(0.1)

        env.process(late_registration())
        env.run()
        sampler.finish()
        late = registry.instruments["late.retries"]
        assert len(late.series) > 0
        assert late.series.last_value() == 2.0
