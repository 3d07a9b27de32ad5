"""Rank-to-rank messages run inside the sending rank's process.

A message is a generator the sender runs with ``yield from``, not a
process of its own, so it dies with its sender: an interrupted rank gives
both NIC pipes back at once, and the next message between the same two
nodes does not queue behind an orphaned transfer.
"""

from repro.machine import dev_cluster
from repro.parallel.comm import Communicator
from repro.sim import SimCluster
from repro.simkernel import Interrupt
from repro.units import MiB


def _pair():
    cluster = SimCluster(dev_cluster(), compute_nodes=2, io_nodes=1, service_nodes=1)
    comm = Communicator(cluster.env, cluster.fabric)
    for rank, node in enumerate(cluster.compute_nodes):
        comm.register(rank, node)
    return cluster.env, comm, cluster.compute_nodes


def _follow_up(env, comm, arrived, before=None):
    """At 1 ms, (interrupt *before*, then) send 1 MiB from rank 0 to 1."""
    yield env.timeout(1e-3)
    if before is not None:
        before.interrupt("crash")
    yield from comm.send(0, 1, "small", nbytes=1 * MiB)
    arrived.append(env.now)


class TestInterruptedSend:
    def test_sender_death_frees_the_pipes_for_the_next_send(self):
        env, comm, (a, b) = _pair()
        held = []

        def doomed():
            try:
                yield from comm.send(0, 1, "big", nbytes=32 * MiB)
            except Interrupt:
                held.append((a.nic.tx._slot.count, b.nic.rx._slot.count))

        arrived = []
        env.process(_follow_up(env, comm, arrived, before=env.process(doomed())))
        env.run()
        # Both pipes are free the moment the sender dies...
        assert held == [(0, 0)]
        # ...so the follow-up lands exactly when it would on an idle
        # fabric (0.00536 s), not after the 32 MiB transfer (0.1435 s).
        idle_env, idle_comm, _ = _pair()
        idle = []
        idle_env.process(_follow_up(idle_env, idle_comm, idle))
        idle_env.run()
        assert arrived == idle
        assert 0.0053 < arrived[0] < 0.0054
        assert comm.messages == 1
