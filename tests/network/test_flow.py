"""Flow-level engine: max-min fair fluid streams (repro.network.flow)."""

import pytest

from repro.network.flow import (
    Flow,
    FlowNetwork,
    FluidResource,
    fluid_of,
)
from repro.simkernel import Environment


@pytest.fixture(params=["fastforward", "reference"])
def net(env, request):
    """Every flow contract must hold under both interchangeable engines:
    component-local fast-forward (the default) and global progressive
    filling (the reference arithmetic)."""
    env.fastforward = request.param == "fastforward"
    return FlowNetwork.of(env)


def open_and_time(env, net, nbytes, shares, at=0.0, record=None, key=None):
    """Process helper: open a flow at time *at*, record its finish time."""

    def proc():
        if at > 0:
            yield env.timeout(at)
        flow = net.open(nbytes, shares)
        yield flow.done
        if record is not None:
            record[key] = env.now

    return env.process(proc())


class TestSingleFlow:
    def test_completion_time_is_bytes_over_capacity(self, env, net):
        res = FluidResource(100.0, name="link")
        times = {}
        open_and_time(env, net, 1000.0, [(res, 1.0)], record=times, key="a")
        env.run()
        assert times["a"] == pytest.approx(10.0)

    def test_bottleneck_resource_governs(self, env, net):
        tx = FluidResource(100.0, name="tx")
        rx = FluidResource(50.0, name="rx")
        times = {}
        open_and_time(env, net, 1000.0, [(tx, 1.0), (rx, 1.0)], record=times, key="a")
        env.run()
        assert times["a"] == pytest.approx(20.0)

    def test_coefficient_scales_consumption(self, env, net):
        # coeff 2: the flow eats twice its rate from the resource, so a
        # 100 B/s link drains the flow's own bytes at 50 B/s.
        res = FluidResource(100.0, name="link")
        times = {}
        open_and_time(env, net, 500.0, [(res, 2.0)], record=times, key="a")
        env.run()
        assert times["a"] == pytest.approx(10.0)

    def test_done_event_carries_the_flow(self, env, net):
        res = FluidResource(100.0, name="link")
        got = {}

        def proc():
            flow = net.open(100.0, [(res, 1.0)])
            got["flow"] = flow
            got["value"] = yield flow.done

        env.process(proc())
        env.run()
        assert got["value"] is got["flow"]
        assert got["flow"].remaining == 0.0


class TestFairShare:
    def test_equal_split_then_speedup_on_departure(self, env, net):
        # A (1000 B) and B (500 B) share a 100 B/s link: both run at 50,
        # B leaves at t=10, A finishes its last 500 B at full rate.
        res = FluidResource(100.0, name="link")
        times = {}
        open_and_time(env, net, 1000.0, [(res, 1.0)], record=times, key="a")
        open_and_time(env, net, 500.0, [(res, 1.0)], record=times, key="b")
        env.run()
        assert times["b"] == pytest.approx(10.0)
        assert times["a"] == pytest.approx(15.0)

    def test_arrival_mid_flight_reshares(self, env, net):
        # A alone at 100 B/s until t=5 (500 B left), then B arrives and
        # both run at 50: A done at 15; B drained 500 B by then and
        # finishes its last 500 B at full rate at t=20.
        res = FluidResource(100.0, name="link")
        times = {}
        open_and_time(env, net, 1000.0, [(res, 1.0)], record=times, key="a")
        open_and_time(env, net, 1000.0, [(res, 1.0)], at=5.0, record=times, key="b")
        env.run()
        assert times["a"] == pytest.approx(15.0)
        assert times["b"] == pytest.approx(20.0)

    def test_max_min_progressive_filling(self, env, net):
        # f1: L1 only; f2: L1+L2; f3: L2 only, with L1 the tight link.
        # Max-min: f1=f2=15 (saturating L1), f3 mops up L2's slack at 85.
        l1 = FluidResource(30.0, name="l1")
        l2 = FluidResource(100.0, name="l2")
        f1 = net.open(1e6, [(l1, 1.0)])
        f2 = net.open(1e6, [(l1, 1.0), (l2, 1.0)])
        f3 = net.open(1e6, [(l2, 1.0)])
        assert f1.rate == pytest.approx(15.0)
        assert f2.rate == pytest.approx(15.0)
        assert f3.rate == pytest.approx(85.0)

    def test_roundoff_residual_on_saturated_resource(self, env, net):
        # Regression: freezing the flows on a saturated resource subtracts
        # their coefficients from its accumulated load, and float roundoff
        # can leave a tiny positive residual load against a tiny negative
        # residual cap.  The (0.2, 0.9, 0.7) triple does exactly that
        # (residual cap/load = -32.0): if the saturated resource is not
        # dropped from the pool, the next round's min goes hugely negative,
        # every remaining flow ends up with a negative rate, and the
        # completion timer fires forever at a frozen sim time.
        tight = FluidResource(30.0, name="tight")
        slack = FluidResource(1000.0, name="slack")
        opened = [net.open(1e6, [(tight, coeff)]) for coeff in (0.2, 0.9, 0.7)]
        last = net.open(1e6, [(slack, 1.0)])
        opened.append(last)
        assert all(f.rate > 0.0 for f in opened)
        # The slack-only flow must mop up its full link, not inherit a
        # poisoned increment from the tight link's residuals.
        assert last.rate == pytest.approx(1000.0)

    def test_weighted_class_vs_singleton(self, env, net):
        # A collapsed class (coeff 3) and a singleton share one link: the
        # fair share is per-flow, so each flow gets rate r with
        # 3r + r = cap.
        res = FluidResource(100.0, name="link")
        cls = net.open(1e6, [(res, 3.0)])
        one = net.open(1e6, [(res, 1.0)])
        assert cls.rate == pytest.approx(25.0)
        assert one.rate == pytest.approx(25.0)


class TestEngineBookkeeping:
    def test_counters(self, env, net):
        res = FluidResource(100.0, name="link")
        times = {}
        open_and_time(env, net, 1000.0, [(res, 1.0)], record=times, key="a")
        open_and_time(env, net, 500.0, [(res, 1.0)], record=times, key="b")
        env.run()
        assert net.flows_opened == 2
        assert net.flows_peak == 2
        assert net.flows_active == 0
        # No per-byte or per-chunk work in either engine.  The reference
        # engine recomputes on both opens and both completions (even the
        # final one, over an empty network); fast-forward has no component
        # left to re-share after the last departure.
        assert net.rate_recomputes == (3 if net._ff else 4)

    def test_of_returns_the_env_singleton(self, env):
        net = FlowNetwork.of(env)
        assert FlowNetwork.of(env) is net
        assert env._flow_network is net

    def test_xfer_flow_trace_span(self, env, net):
        from repro.trace import Tracer

        tracer = Tracer.install(env)
        res = FluidResource(100.0, name="link")

        def proc():
            flow = net.open(1000.0, [(res, 1.0)], tag="bulk", src=2, dst=0,
                            wire_bytes=3000.0)
            yield flow.done

        env.process(proc())
        env.run()
        spans = [s for s in tracer.spans if s.name == "xfer-flow:bulk"]
        assert len(spans) == 1
        span = spans[0]
        assert span.start == pytest.approx(0.0)
        assert span.end == pytest.approx(10.0)
        assert span.attrs["bytes"] == 3000

    def test_single_pending_timer_however_many_flows(self, env, net):
        # The engine schedules ONE completion timeout regardless of flow
        # count — that is the whole point.  Events processed for N flows
        # opened at once: N completion timer pops at most (rescheduled
        # per departure), not N x chunks.
        res = FluidResource(100.0, name="link")
        done = []

        def proc(nbytes):
            flow = net.open(nbytes, [(res, 1.0)])
            yield flow.done
            done.append(env.now)

        for i in range(8):
            env.process(proc(100.0 * (i + 1)))
        env.run()
        assert len(done) == 8
        assert done == sorted(done)

    def test_validation(self, env, net):
        res = FluidResource(100.0, name="link")
        with pytest.raises(ValueError):
            net.open(0.0, [(res, 1.0)])
        with pytest.raises(ValueError):
            net.open(100.0, [])
        with pytest.raises(ValueError):
            FluidResource(0.0, name="bad")


class TestHelpers:
    def test_fluid_of_caches_per_pipe(self, env, fabric, nodes):
        pipe = nodes[0].nic.tx
        fluid = fluid_of(pipe)
        assert fluid_of(pipe) is fluid
        assert fluid.capacity == pipe.bandwidth
