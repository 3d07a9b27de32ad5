"""The flow engine against its global-refill oracle.

Contract under test:

* **chaos equivalence** — under every chaos scenario, flow-mode dumps big
  enough to open flows log the same faults on the shipping engine and on
  :func:`~tests.reference.reference_flows`, agree on the elapsed times to
  1e-9, and the shipping engine retires flow steps in closed form
  (except mds-failover, whose shared-file stack opens no flow);
* **flow-grid equivalence** — on flow-mode dumps big enough to keep many
  concurrent flows live, the two engines agree on the figure of merit to
  1e-9 (floating-point reassociation, not model error), and the shipping
  engine actually retires completions analytically.
"""

import pytest

from repro.bench import run_checkpoint_trial
from repro.sim.config import RunOptions
from repro.units import MiB

from ..faults.test_injection import SCENARIOS
from ..reference import reference_flows

#: Shipping vs reference flow arithmetic: floating-point noise only.
FF_REL_TOL = 1e-9

#: Above 2 x chunk_bytes (8 MiB), so every lwfs and file-per-process
#: client writes its steady-state middle as a flow.
FLOW_STATE = 32 * MiB


def _rel(a, b):
    return abs(a - b) / b


class TestChaosFlowEquivalence:
    """Fault injection never changes a fluid capacity, so every chaos
    scenario runs the shipping engine and must match the oracle."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_reference_flows(self, name):
        impl, mk = SCENARIOS[name]

        def run():
            return run_checkpoint_trial(
                impl, 8, 4, state_bytes=FLOW_STATE, seed=42,
                options=RunOptions(flow=True, faults=mk()),
            )

        fast = run()
        with reference_flows():
            ref = run()
        assert fast.fault_log == ref.fault_log
        assert _rel(fast.max_elapsed, ref.max_elapsed) <= FF_REL_TOL
        assert _rel(fast.mean_elapsed, ref.mean_elapsed) <= FF_REL_TOL
        fast_forwarded = fast.extra.get("events_fast_forwarded", 0)
        if name == "mds-failover":
            assert fast_forwarded == 0
        else:
            assert fast_forwarded > 0
        assert ref.extra.get("events_fast_forwarded", 0) == 0


class TestFlowGridEquivalence:
    @pytest.mark.parametrize("n,m", [(8, 4), (16, 8)])
    @pytest.mark.parametrize("impl", ["lwfs", "lustre-fpp"])
    def test_within_1e9_and_fast_forwards(self, impl, n, m):
        def run():
            return run_checkpoint_trial(
                impl, n, m, state_bytes=FLOW_STATE, seed=400,
                options=RunOptions(flow=True),
            )

        fast = run()
        with reference_flows():
            ref = run()
        assert fast.extra["events_fast_forwarded"] > 0
        rel = _rel(fast.throughput_mb_s, ref.throughput_mb_s)
        assert rel <= FF_REL_TOL, (fast.throughput_mb_s, ref.throughput_mb_s)
