"""Exact work budgets: what five small fixed trials cost the kernel.

Work counts, unlike wall time, are exact and host independent: a trial
dispatches the same events on every machine and in every process.  One
trial per workload shape pins the kernel counters its record carries:

* ``events_processed`` — events dispatched;
* ``events_skipped_cancelled`` — cancelled timers dropped at pop or by
  heap compaction;
* ``peak_event_queue`` — the deepest live schedule;
* ``events_fast_forwarded`` — flow-engine steps retired in closed form.

The exact checkpoint runs on both stacks: LWFS, and the Lustre-like
baseline in its file-per-process and shared-file patterns.  The pins
catch what a wall-clock floor could only guess at: holds that queue for
free slots (:func:`tests.reference.queued_holds`) raise every event
count, a kernel that stops compacting cancelled timers loses its skips,
and tenant arrivals issued one by one instead of in batches raise the
traffic trial's events.  A change that adds or removes work re-pins
here, in its own diff.
"""

import pytest

from repro.bench import run_checkpoint_trial
from repro.sim.config import RunOptions
from repro.units import MiB
from repro.workload import diurnal_mixed, run_workload_trial

COUNTERS = (
    "events_processed", "events_skipped_cancelled", "peak_event_queue",
    "events_fast_forwarded",
)


def _exact_checkpoint(impl="lwfs"):
    return run_checkpoint_trial(impl, 16, 4, state_bytes=16 * MiB, seed=3)


def _collapse_flow_checkpoint():
    return run_checkpoint_trial(
        "lwfs", 256, 8, state_bytes=16 * MiB, seed=3,
        options=RunOptions(collapse=True, flow=True),
    )


def _tenant_traffic():
    return run_workload_trial(
        workload=diurnal_mixed(tenants=10_000, rate=300, horizon=4),
        n_servers=4, seed=5,
    )


#: Trial -> pinned (events, skipped-cancelled, peak queue, fast-forwarded).
BUDGETS = {
    "exact-checkpoint": (_exact_checkpoint, (4104, 128, 44, 0)),
    # The Lustre stack moves data through the same server movers; its
    # sole-writer and extent-lock paths each get their own budget.
    "exact-lustre-fpp": (lambda: _exact_checkpoint("lustre-fpp"), (3867, 128, 43, 0)),
    "exact-lustre-shared": (lambda: _exact_checkpoint("lustre-shared"), (4759, 128, 39, 0)),
    "collapse-flow-checkpoint": (_collapse_flow_checkpoint, (1950, 65, 21, 18)),
    "tenant-traffic": (_tenant_traffic, (9855, 329, 97, 0)),
}


@pytest.mark.parametrize("name", list(BUDGETS))
def test_work_budget(name):
    trial, budget = BUDGETS[name]
    extra = trial().extra
    assert {key: int(extra[key]) for key in COUNTERS} == dict(zip(COUNTERS, budget))
