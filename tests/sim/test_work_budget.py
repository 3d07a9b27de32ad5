"""Exact work budgets: what single operations and small fixed trials cost.

Work counts, unlike wall time, are exact and host independent: a trial
dispatches the same events on every machine and in every process.  One
trial per workload shape pins the kernel counters its record carries:

* ``events_processed`` — events dispatched;
* ``events_skipped_cancelled`` — cancelled timers dropped at pop or by
  heap compaction;
* ``peak_event_queue`` — the deepest live schedule;
* ``events_fast_forwarded`` — flow-engine steps retired in closed form.

Each trial also pins its figure of merit and its simulated seconds as
exact floats, so a cut in kernel work shows that it moved no timestamp.

The exact checkpoint runs on both stacks: LWFS, and the Lustre-like
baseline in its file-per-process and shared-file patterns.  The pins
catch what a wall-clock floor could only guess at: holds that queue for
free slots (:func:`tests.reference.queued_holds`) raise every event
count, a kernel that stops compacting cancelled timers loses its skips,
and tenant arrivals issued one by one instead of in batches raise the
traffic trial's events.  Below the trials, two single operations pin
the per-message and per-RPC costs the trials are made of.  A change
that adds or removes work re-pins here, in its own diff.
"""

import pytest

from repro.bench import run_checkpoint_trial
from repro.bench.harness import _build
from repro.machine import Node, dev_cluster
from repro.network import Fabric, Message, RpcClient, RpcService
from repro.sim.config import RunOptions
from repro.simkernel import Environment
from repro.storage import SyntheticData, data_equal
from repro.trace.stats import kernel_stats
from repro.units import MiB
from repro.workload import diurnal_mixed, run_workload_trial

COUNTERS = (
    "events_processed", "events_skipped_cancelled", "peak_event_queue",
    "events_fast_forwarded",
)


def _trial_record(trial):
    return trial.extra, trial.value


def _exact_checkpoint(impl="lwfs"):
    return _trial_record(run_checkpoint_trial(impl, 16, 4, state_bytes=16 * MiB, seed=3))


def _collapse_flow_checkpoint():
    return _trial_record(run_checkpoint_trial(
        "lwfs", 256, 8, state_bytes=16 * MiB, seed=3,
        options=RunOptions(collapse=True, flow=True),
    ))


def _collapse_flow_restart():
    """The dump above, then every rank restarts: exact chunk-read RPCs."""
    n, state_bytes = 256, 16 * MiB
    cluster, _, checkpointer, app, _ = _build(
        "lwfs", n, 8, seed=3, opts=RunOptions(collapse=True, flow=True).resolved(),
        collapse_state_bytes=state_bytes,
    )

    def main(ctx):
        yield from checkpointer.setup(ctx)
        state = SyntheticData(state_bytes, seed=ctx.rank, origin=ctx.rank * state_bytes)
        yield from checkpointer.checkpoint(ctx, state, path="/ckpt/budget")
        yield from ctx.barrier()
        recovered, restart = yield from checkpointer.restart(ctx, "/ckpt/budget")
        assert data_equal(recovered, state)
        return restart.elapsed

    restart_s = max(app.run(main))
    return kernel_stats(cluster.env), n * state_bytes / MiB / restart_s


def _tenant_traffic():
    return _trial_record(run_workload_trial(
        workload=diurnal_mixed(tenants=10_000, rate=300, horizon=4),
        n_servers=4, seed=5,
    ))


#: Trial -> pinned ((events, skipped-cancelled, peak queue,
#: fast-forwarded), figure of merit, simulated seconds).
BUDGETS = {
    "exact-checkpoint": (
        _exact_checkpoint, (3159, 128, 44, 0), 347.3002917118312, 0.7380423381014273,
    ),
    # The Lustre stack moves data through the same server movers; its
    # sole-writer and extent-lock paths each get their own budget.
    "exact-lustre-fpp": (
        lambda: _exact_checkpoint("lustre-fpp"), (2989, 128, 43, 0),
        346.93956466075355, 0.7381895644533077,
    ),
    "exact-lustre-shared": (
        lambda: _exact_checkpoint("lustre-shared"), (3611, 128, 39, 0),
        192.14323040847273, 1.3326483090738588,
    ),
    "collapse-flow-checkpoint": (
        _collapse_flow_checkpoint, (1428, 65, 20, 18), 644.0966313832217, 6.360205920944549,
    ),
    "collapse-flow-restart": (
        _collapse_flow_restart, (2376, 65, 59, 18), 615.9420376020087, 13.01012017554335,
    ),
    "tenant-traffic": (
        _tenant_traffic, (7875, 329, 97, 0), 129.74111492088795, 4.104179308992498,
    ),
}


@pytest.mark.parametrize("name", list(BUDGETS))
def test_work_budget(name):
    trial, budget, value, sim_seconds = BUDGETS[name]
    extra, measured = trial()
    assert {key: int(extra[key]) for key in COUNTERS} == dict(zip(COUNTERS, budget))
    assert (measured, extra["sim_seconds"]) == (value, sim_seconds)


# -- single operations --------------------------------------------------------


def _dev_fabric():
    """A dev-cluster fabric: nodes 0-1 are I/O nodes, 2-3 compute nodes."""
    env = Environment()
    spec = dev_cluster()
    fabric = Fabric(env, topology=spec.topology, hop_latency=spec.hop_latency)
    nodes = [Node(env, i, spec.io_spec if i < 2 else spec.compute_spec) for i in range(4)]
    for node in nodes:
        fabric.attach(node)
    return env, fabric, nodes


def _events_of(env, operation):
    """Run *operation* (a generator) in a process of its own to the end of
    the schedule; returns the events it cost and the instant it ended,
    not counting that process's own start and finish events."""
    done = []

    def runner():
        yield from operation
        done.append(env.now)

    before = env.events_processed
    env.process(runner())
    env.run()
    return env.events_processed - before - 2, done[0]


def test_uncontended_transfer_budget():
    """Send overhead, the pipe hold, and wire latency plus receive
    overhead as one wait: three events."""
    env, fabric, _ = _dev_fabric()
    message = Message(src=2, dst=3, size=256)
    assert _events_of(env, fabric.transfer(message)) == (3, 1.606148097826087e-05)


def test_uncontended_timed_rpc_budget():
    """Request transfer (3), the handler's first step (1), reply transfer
    (3), the reply waking its caller (1) and the handler's finish (1):
    nine events; the cancelled timer is skipped, not dispatched."""
    env, fabric, nodes = _dev_fabric()
    service = RpcService(env, fabric, nodes[0], "null")
    service.register("null", lambda ctx: iter(()))
    client = RpcClient(env, fabric, nodes[2])
    call = client.call(0, "null", "null", timeout=1.0)
    assert _events_of(env, call) == (9, 3.265370244565217e-05)
    assert env.events_skipped_cancelled == 1
