"""Flow-level mode: fluid bulk streams vs the exact chunked path.

Contract under test:

* ``flow=False`` (the default) never touches the flow engine — no flow
  counters, identical figures to a run made before the engine existed;
* ``flow=True`` approximates the exact run within 1% on the bulk-bound
  workloads it targets, while processing far fewer kernel events;
* flow trials advertise themselves (``flows_active``,
  ``rate_recomputes``) so downstream tooling can tell approximation from
  measurement;
* the weighted stream path composes with symmetric-client collapsing;
* a flow-mode dump is one operation: the exact first chunk and then ONE
  ``write`` that carries the other chunks' count.
"""

from collections import defaultdict

import pytest

from repro.bench import run_checkpoint_trial
from repro.machine import red_storm
from repro.network.rpc import RpcClient, RpcService
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


class TestOneWriteForm:
    @pytest.mark.parametrize("impl", FLOW_IMPLS)
    def test_each_rank_dumps_in_two_writes(self, impl, monkeypatch):
        """Each rank's 8-chunk dump reaches its server as two ``write``
        requests, of 1 and 7 chunks; no service has a second write form."""
        writes = defaultdict(list)  # (rank node, service, object) -> ops
        services = []
        call, init = RpcClient.call, RpcService.__init__

        def spy_call(self, target_node, service, op, *args, **kwargs):
            if "write" in op:
                key = (self.node.node_id, service, kwargs.get("oid", kwargs.get("ino")))
                writes[key].append((op, kwargs.get("n_chunks", 1), kwargs["length"]))
            return call(self, target_node, service, op, *args, **kwargs)

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            services.append(self)

        monkeypatch.setattr(RpcClient, "call", spy_call)
        monkeypatch.setattr(RpcService, "__init__", spy_init)
        run_checkpoint_trial(impl, 8, 4, seed=3, state_bytes=STATE,
                             options=RunOptions(flow=True))

        # A rank's dump is the object its writes fill with STATE bytes
        # (LWFS also writes the checkpoint's small metadata object).
        dumps = {key: ops for key, ops in writes.items()
                 if sum(length for _, _, length in ops) == STATE}
        assert len({node for node, _, _ in dumps}) == len(dumps) == 8
        for ops in dumps.values():
            assert [(op, n_chunks) for op, n_chunks, _ in ops] == [("write", 1), ("write", 7)]
        assert services
        assert not [svc.name for svc in services if "write_stream" in svc.handlers]
