"""Simulator state stays proportional to what a run touches.

The paper's "no O(n) system state" rule (DESIGN.md §6) applied to the
simulator itself: per-node NICs and CPUs are built on first use, the hot
path leaves no reference cycles behind for the cyclic collector, and idle
wait queues allocate nothing.
"""

import gc
import sys
import tracemalloc

from repro.bench import run_checkpoint_trial
from repro.iolib import LWFSCheckpointer
from repro.machine import red_storm
from repro.network import (
    MatchEntry, MemoryDescriptor, Message, PtlEvent, PtlEventKind, RpcContext, RpcReply,
    RpcRequest,
)
from repro.parallel import ParallelApp
from repro.sim import LWFSDeployment, SimCluster, SimConfig
from repro.sim.collapse import collapse_plan
from repro.sim.config import RunOptions
from repro.simkernel import Environment, Request, Resource, Store
from repro.storage import SyntheticData, data_equal
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
        cluster.run(cluster.env.process(cluster.fabric.transfer(msg)))
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


def _traced(fn):
    """``(fn(), bytes still held, peak bytes)`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


class TestFootprint:
    """Wait queues and per-message records cost memory only when used.

    A 10,368-rank restart keeps thousands of reply and data event queues
    alive at once, almost all of them empty or one deep.  Each bound sits
    between the lazy layout and the eager one (CPython 3.11): an idle
    Store takes 72 B against ~115 B without slots and ~2.4 KB with three
    deques, an idle Resource ~320 B against ~1.1 KB with its wait deque.
    """

    N = 1000

    def _bytes_each(self, factory):
        env = Environment()
        objs, held, _ = _traced(lambda: [factory(env) for _ in range(self.N)])
        return (held - sys.getsizeof(objs)) / self.N

    def test_idle_store_is_small(self):
        assert self._bytes_each(Store) < 96

    def test_idle_resource_is_small(self):
        assert self._bytes_each(Resource) < 640

    def test_message_records_carry_no_instance_dict(self):
        env = Environment()
        md = MemoryDescriptor(length=8)
        request = RpcRequest(op="op", args={}, reply_node=0, req_id=1)
        records = [
            Message(src=0, dst=1, size=8),
            md,
            MatchEntry(match_bits=1, md=md),
            PtlEvent(kind=PtlEventKind.PUT_END, initiator=0, match_bits=1, length=8),
            request,
            RpcReply(ok=True),
            RpcContext(env=env, service=None, request=request, initiator=0),
        ]
        assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []

    def test_collapsed_dump_restart_peak(self):
        n, m, state_bytes = 2048, 64, 4 * MiB
        spec = red_storm()

        def dump_restart():
            cluster = SimCluster(
                spec, SimConfig(seed=5, flow=True), compute_nodes=n,
                io_nodes=spec.io_nodes, service_nodes=1,
                options=RunOptions(collapse=True, flow=True, metrics=False).resolved(),
            )
            checkpointer = LWFSCheckpointer(LWFSDeployment(cluster, n_storage_servers=m))
            plan = collapse_plan(n, lambda r: checkpointer.collapse_key(r, state_bytes))
            app = ParallelApp(cluster.env, cluster.fabric, cluster.compute_nodes,
                              n_ranks=n, collapse=plan)

            def main(ctx):
                yield from checkpointer.setup(ctx)
                state = SyntheticData(state_bytes, seed=ctx.rank, origin=ctx.rank * state_bytes)
                yield from checkpointer.checkpoint(ctx, state, path="/ckpt/lean")
                yield from ctx.barrier()
                recovered, _ = yield from checkpointer.restart(ctx, "/ckpt/lean")
                return data_equal(recovered, state)

            return app.run(main)

        restored, _, peak = _traced(dump_restart)
        assert all(restored)
        # Eager deques peak at ~5.8 MiB here, lazy containers at ~3.3 MiB.
        assert peak < 4.5 * MiB
