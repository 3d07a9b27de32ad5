"""Simulator state stays proportional to what a run touches.

The paper's "no O(n) system state" rule (DESIGN.md §6) applied to the
simulator itself: per-node NICs and CPUs are built on first use, and the
hot path leaves no reference cycles behind for the cyclic collector.
"""

import gc

from repro.bench import run_checkpoint_trial
from repro.machine import red_storm
from repro.network import Message
from repro.sim import SimCluster, SimConfig
from repro.simkernel import Request
from repro.units import MiB


def _built(nodes, attr):
    return [n.node_id for n in nodes if attr in vars(n)]


class TestFirstTouch:
    def test_full_red_storm_builds_state_only_where_used(self):
        cluster = SimCluster(red_storm(), SimConfig(seed=1), compute_nodes=10368, service_nodes=1)
        nodes = cluster.service_nodes + cluster.io_nodes + cluster.compute_nodes
        assert len(nodes) == 10625
        assert _built(nodes, "nic") == [] and _built(nodes, "cpu") == []

        src, dst = cluster.compute_nodes[-1], cluster.io_nodes[0]
        msg = Message(src=src.node_id, dst=dst.node_id, size=1 * MiB, tag="one")
        cluster.run(cluster.fabric.transfer(msg))
        assert _built(nodes, "nic") == sorted([src.node_id, dst.node_id])
        assert _built(nodes, "cpu") == []

        def work(env):
            yield from src.compute(1e-3)

        cluster.run(cluster.env.process(work(cluster.env)))
        assert _built(nodes, "cpu") == [src.node_id]
        assert src.cpu.count == 0 and src.cpu.capacity == src.spec.cpu.cores


class TestNoGarbageCycles:
    def test_checkpoint_trial_leaves_no_request_in_garbage(self):
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            del gc.garbage[:]
            result = run_checkpoint_trial("lwfs", 4, 2, state_bytes=2 * MiB, seed=3)
            gc.collect()
            requests = sum(1 for obj in gc.garbage if isinstance(obj, Request))
        finally:
            gc.set_debug(debug)
            del gc.garbage[:]
            if enabled:
                gc.enable()
        assert result.throughput_mb_s > 0
        assert requests == 0
