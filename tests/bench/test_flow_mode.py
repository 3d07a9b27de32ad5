"""Flow-level mode: fluid bulk streams vs the exact chunked path.

Contract under test:

* ``flow=False`` (the default) never touches the flow engine — no flow
  counters, identical figures to a run made before the engine existed;
* an explicit ``flow=False`` beats ``REPRO_FLOW=1``: the trial runs
  the exact path the resolved options report;
* ``flow=True`` approximates the exact run within 1% on the bulk-bound
  workloads it targets, while processing far fewer kernel events;
* flow trials advertise themselves (``flows_active``,
  ``rate_recomputes``) so downstream tooling can tell approximation from
  measurement;
* the weighted stream path composes with symmetric-client collapsing.
"""

import pytest

from repro.bench import run_checkpoint_trial
from repro.machine import red_storm
from repro.sim.config import RunOptions
from repro.units import MiB

#: Bulky enough that every rank's dump rides the stream path (> 2 chunks).
STATE = 32 * MiB

FLOW_IMPLS = ("lwfs", "lustre-fpp")


def _pair(impl, n, m, **kw):
    exact = run_checkpoint_trial(impl, n, m, seed=3, state_bytes=STATE, **kw)
    flow = run_checkpoint_trial(
        impl, n, m, seed=3, state_bytes=STATE,
        options=RunOptions(flow=True), **kw
    )
    return exact, flow


class TestOffPathUntouched:
    def test_exact_trials_carry_no_flow_counters(self):
        exact = run_checkpoint_trial("lwfs", 4, 2, seed=3, state_bytes=STATE)
        assert "flows_active" not in exact.extra
        assert "rate_recomputes" not in exact.extra

    def test_explicit_flow_false_beats_repro_flow_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOW", raising=False)
        exact = run_checkpoint_trial("lwfs", 4, 2, seed=3, state_bytes=STATE)
        monkeypatch.setenv("REPRO_FLOW", "1")
        pinned = run_checkpoint_trial(
            "lwfs", 4, 2, seed=3, state_bytes=STATE,
            options=RunOptions(flow=False),
        )
        assert "flows_active" not in pinned.extra
        assert pinned.extra == exact.extra
        assert pinned.max_elapsed == exact.max_elapsed

    def test_repro_flow_one_forces_the_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW", "1")
        forced = run_checkpoint_trial("lwfs", 4, 2, seed=3, state_bytes=STATE)
        assert forced.extra.get("flows_active", 0) > 0


#: Dev-cluster layouts (clients, servers); the 8x4 cases keep their
#: original bare-impl ids.
DEV_POINTS = [
    pytest.param(impl, n, m, id=impl if (n, m) == (8, 4) else f"{impl}-{n}x{m}")
    for n, m in ((8, 4), (4, 2))
    for impl in FLOW_IMPLS
]


class TestFlowApproximation:
    @pytest.mark.parametrize("impl,n,m", DEV_POINTS)
    def test_devcluster_within_one_percent(self, impl, n, m):
        exact, flow = _pair(impl, n, m)
        rel = abs(flow.max_elapsed - exact.max_elapsed) / exact.max_elapsed
        assert rel <= 0.01, (impl, flow.max_elapsed, exact.max_elapsed)

    @pytest.mark.parametrize("impl", FLOW_IMPLS)
    def test_redstorm_within_one_percent(self, impl):
        exact, flow = _pair(impl, 32, 8, spec=red_storm())
        rel = abs(flow.max_elapsed - exact.max_elapsed) / exact.max_elapsed
        assert rel <= 0.01, (impl, flow.max_elapsed, exact.max_elapsed)

    def test_flow_processes_far_fewer_events(self):
        exact, flow = _pair("lwfs", 8, 4)
        assert flow.extra["events_processed"] < 0.6 * exact.extra["events_processed"]

    def test_flow_counters_present(self):
        _, flow = _pair("lwfs", 8, 4)
        assert flow.extra["flows_active"] >= 1
        assert flow.extra["rate_recomputes"] >= 2

    def test_composes_with_collapsing(self):
        kw = dict(spec=red_storm())
        coll = run_checkpoint_trial(
            "lwfs", 64, 16, seed=3, state_bytes=STATE,
            options=RunOptions(collapse=True), **kw
        )
        both = run_checkpoint_trial(
            "lwfs", 64, 16, seed=3, state_bytes=STATE,
            options=RunOptions(collapse=True, flow=True), **kw
        )
        assert both.extra["max_multiplicity"] > 1
        assert both.extra["flows_active"] >= 1
        rel = abs(both.max_elapsed - coll.max_elapsed) / coll.max_elapsed
        assert rel <= 0.01, (both.max_elapsed, coll.max_elapsed)
        assert both.extra["events_processed"] < coll.extra["events_processed"]

    def test_small_dumps_stay_exact(self):
        """At <= 2 chunks there is no steady-state middle: flow mode must
        leave the run bit-identical to the exact path."""
        exact = run_checkpoint_trial("lwfs", 4, 2, seed=3, state_bytes=8 * MiB)
        flow = run_checkpoint_trial(
            "lwfs", 4, 2, seed=3, state_bytes=8 * MiB,
            options=RunOptions(flow=True),
        )
        assert flow.max_elapsed == exact.max_elapsed
        assert flow.extra["events_processed"] == exact.extra["events_processed"]
