"""Seeded, deterministic fault injection for the simulator.

See :mod:`repro.faults.plan` for the schedule format and
:mod:`repro.faults.inject` for the runtime. Quickstart::

    from repro.faults import FaultEvent, FaultPlan
    from repro.sim.config import RunOptions

    plan = FaultPlan(events=(
        FaultEvent(kind="server_crash", at=0.05, target="stor0", duration=0.5),
    ))
    run_checkpoint_trial("lwfs", 8, 4, options=RunOptions(faults=plan))
"""

from .inject import FaultInjector
from .plan import FAULT_KINDS, FaultEvent, FaultPlan, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
]
