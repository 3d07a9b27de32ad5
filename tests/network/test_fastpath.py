"""Hold equivalence: holds that claim free slots at once match the queued path.

Every scenario runs the same workload twice — once on the shipping code
(:meth:`Resource.hold` claims free slots without a grant event) and once
forced onto the reference request path by
:func:`tests.reference.queued_holds` — and asserts identical simulated
completion times and pipe accounting.
"""

import contextlib
from dataclasses import replace

import pytest

from repro.machine import Node, dev_cluster
from repro.network import Fabric, MemoryDescriptor, install_portals
from repro.simkernel import Environment
from repro.storage import RaidDevice
from repro.units import KiB, MiB

from ..reference import queued_holds
from .helpers import send

SIZES = (0, 2 * KiB, 64 * KiB, 1 * MiB, 8 * MiB)


def build():
    """Fresh env + four-node fabric (0-1 I/O, 2-3 compute)."""
    env = Environment()
    spec = dev_cluster()
    fabric = Fabric(env, topology=spec.topology, hop_latency=spec.hop_latency)
    nodes = []
    for i in range(2):
        node = Node(env, i, spec.io_spec)
        fabric.attach(node)
        nodes.append(node)
    for i in range(2, 4):
        node = Node(env, i, spec.compute_spec)
        fabric.attach(node)
        nodes.append(node)
    return env, fabric, nodes


def run_both(workload):
    """Run *workload(env, fabric)* on the queued path, then the shipping one."""
    results = []
    for mode in (queued_holds, contextlib.nullcontext):
        with mode():
            env, fabric, nodes = build()
            value = workload(env, fabric)
            results.append((env, fabric, value))
    return results


def assert_equivalent(results):
    (env_ref, fab_ref, v_ref), (env_fast, fab_fast, v_fast) = results
    assert env_fast.now == env_ref.now
    assert v_fast == v_ref
    assert fab_fast.counters["messages"] == fab_ref.counters["messages"]
    assert fab_fast.counters["bytes"] == fab_ref.counters["bytes"]


def pipe_stats(fabric, node_id):
    nic = fabric.node(node_id).nic
    return {
        name: (pipe.bytes_moved, pytest.approx(pipe.busy_time))
        for name, pipe in (("tx", nic.tx), ("rx", nic.rx),
                           ("ctl_tx", nic.ctl_tx), ("ctl_rx", nic.ctl_rx))
    }


class TestUncontended:
    @pytest.mark.parametrize("size", SIZES)
    def test_single_transfer_time(self, size):
        def workload(env, fabric):
            env.run(send(fabric, 2, 0, size, tag="solo"))
            return env.now

        assert_equivalent(run_both(workload))

    def test_pipe_accounting_matches(self):
        def workload(env, fabric):
            env.run(send(fabric, 2, 0, 4 * MiB))
            return env.now

        results = run_both(workload)
        assert_equivalent(results)
        (_, fab_ref, _), (_, fab_fast, _) = results
        for node_id in (0, 2):
            assert pipe_stats(fab_fast, node_id) == pipe_stats(fab_ref, node_id)

    def test_disjoint_pairs_in_parallel(self):
        # 2->0 and 3->1 share nothing; both should finish at the
        # single-transfer time under either path.
        def workload(env, fabric):
            done = []

            def xfer(src, dst):
                yield send(fabric, src, dst, 2 * MiB)
                done.append((src, dst, env.now))

            env.process(xfer(2, 0))
            env.process(xfer(3, 1))
            env.run()
            return sorted(done)

        assert_equivalent(run_both(workload))

    def test_back_to_back_stream(self):
        # Sequential sends re-enter the fast path each time; the pipes
        # must be free again at each send (release-at-serialization-end).
        def workload(env, fabric):
            times = []

            def stream():
                for _ in range(5):
                    yield send(fabric, 2, 0, 1 * MiB)
                    times.append(env.now)

            env.process(stream())
            env.run()
            return times

        assert_equivalent(run_both(workload))


class TestContended:
    def test_many_to_one_rx_contention(self):
        # Three senders target node 0: its rx pipe serializes them.  The
        # fast path must queue identically once try_acquire fails.
        def workload(env, fabric):
            done = []

            def xfer(src, size):
                yield send(fabric, src, 0, size)
                done.append((src, env.now))

            env.process(xfer(1, 4 * MiB))
            env.process(xfer(2, 4 * MiB))
            env.process(xfer(3, 4 * MiB))
            env.run()
            return sorted(done)

        assert_equivalent(run_both(workload))

    def test_one_to_many_tx_contention(self):
        def workload(env, fabric):
            done = []

            def xfer(dst):
                yield send(fabric, 2, dst, 4 * MiB)
                done.append((dst, env.now))

            for dst in (0, 1, 3):
                env.process(xfer(dst))
            env.run()
            return sorted(done)

        assert_equivalent(run_both(workload))

    def test_staggered_arrivals_mix_paths(self):
        # First transfer takes the fast path; the second arrives mid-flight
        # (queued path); the third arrives after both drain (fast again).
        def workload(env, fabric):
            done = []

            def xfer(delay, tag):
                yield env.timeout(delay)
                yield send(fabric, 2, 0, 4 * MiB, tag=tag)
                done.append((tag, env.now))

            env.process(xfer(0.0, "a"))
            env.process(xfer(1e-4, "b"))
            env.process(xfer(1.0, "c"))
            env.run()
            return sorted(done)

        assert_equivalent(run_both(workload))

    def test_control_lane_unaffected_by_bulk(self):
        # Small messages ride the control pipes and must not queue behind
        # a bulk transfer under either path.
        def workload(env, fabric):
            done = []

            def bulk():
                yield send(fabric, 2, 0, 32 * MiB, tag="bulk")
                done.append(("bulk", env.now))

            def ctl():
                yield send(fabric, 2, 0, 256, tag="ctl")
                done.append(("ctl", env.now))

            env.process(bulk())
            env.process(ctl())
            env.run()
            return sorted(done)

        results = run_both(workload)
        assert_equivalent(results)
        (_, _, order), _ = results
        assert order[1][0] == "ctl" and order[1][1] < order[0][1]


class TestFailureEquivalence:
    """Dead endpoints must fail at the same simulated instant whichever
    path the transfer takes — the fast path may not skip (or reorder)
    the liveness checks."""

    @staticmethod
    def _failure_time(kill_src):
        def workload(env, fabric):
            victim = fabric.node(2) if kill_src else fabric.node(0)
            victim.kill()
            ev = send(fabric, 2, 0, 4 * MiB, tag="doomed")
            from repro.errors import NodeFailure

            with pytest.raises(NodeFailure):
                env.run(ev)
            return env.now

        return workload

    def test_dead_source_fails_at_identical_time(self):
        results = run_both(self._failure_time(kill_src=True))
        assert_equivalent(results)
        (_, _, t_ref), (_, _, t_fast) = results
        # A dead source is caught before any simulated work happens.
        assert t_fast == t_ref == 0.0

    def test_dead_destination_fails_at_identical_time(self):
        results = run_both(self._failure_time(kill_src=False))
        (_, _, t_ref), (_, _, t_fast) = results
        assert t_fast == t_ref
        # The wire was crossed before delivery failed: send overhead,
        # serialization, and latency all elapsed first.
        assert t_fast > 0.0

    def test_mid_flight_destination_death_identical(self):
        # Destination dies while the bytes are on the wire: both paths
        # must observe the death at delivery time, not earlier.
        def workload(env, fabric):
            from repro.errors import NodeFailure

            ev = send(fabric, 2, 0, 32 * MiB, tag="doomed")

            def killer():
                yield env.timeout(1e-4)
                fabric.node(0).kill()

            env.process(killer())
            with pytest.raises(NodeFailure):
                env.run(ev)
            return env.now

        results = run_both(workload)
        (_, _, t_ref), (_, _, t_fast) = results
        assert t_fast == t_ref > 1e-4

    def test_interrupted_transfer_gives_both_pipes_back(self):
        # A crash interrupt that lands mid-serialization must release the
        # sender's tx and the receiver's rx pipe, or every later transfer
        # between the pair waits forever.
        def workload(env, fabric):
            doomed = send(fabric, 2, 0, 32 * MiB, tag="doomed")
            doomed.defuse()
            done = []

            def crash_then_resend():
                yield env.timeout(1e-3)
                doomed.interrupt("crash")
                yield send(fabric, 2, 0, 1 * MiB, tag="after")
                done.append(env.now)

            env.process(crash_then_resend())
            env.run()
            assert fabric.node(2).nic.tx._slot.count == 0
            assert fabric.node(0).nic.rx._slot.count == 0
            # The interrupted serialization timeout is cancelled, so the
            # run ends when the follow-up send completes.
            assert env.now == done[0]
            return done

        results = run_both(workload)
        assert_equivalent(results)
        (_, _, done), _ = results
        assert len(done) == 1


class TestCpuAndRaidHolds:
    def test_contended_cores_and_controller(self):
        # Three jobs on a one-core CPU and three back-to-back RAID writes:
        # the first of each claims its slot at once, the rest queue.
        def workload(env, fabric):
            spec = dev_cluster().io_spec
            node = Node(env, 9, replace(spec, cpu=replace(spec.cpu, cores=1)))
            raid = RaidDevice(env, spec.storage)
            done = []

            def job(tag, hold):
                yield from hold
                done.append((env.now, tag))

            for i in range(3):
                env.process(job(f"cpu{i}", node.compute(1e-3)))
                env.process(job(f"raid{i}", raid.write(1 * MiB)))
            env.run()
            assert node.cpu.count == raid._controller.count == 0
            return sorted(done), raid.busy_time

        results = run_both(workload)
        assert_equivalent(results)
        (_, _, (done, _)), _ = results
        assert [tag for _, tag in done if tag.startswith("cpu")] == ["cpu0", "cpu1", "cpu2"]


class TestPortalsEquivalence:
    @pytest.mark.parametrize("size", (4 * KiB, 1 * MiB))
    def test_put_completion_time(self, size):
        def workload(env, fabric):
            nodes = [fabric.node(i) for i in (0, 2)]
            server = install_portals(env, fabric, nodes[0])
            client = install_portals(env, fabric, nodes[1])
            eq = server.new_eq()
            server.attach(5, 0xC0, MemoryDescriptor(length=size, eq=eq))
            md = MemoryDescriptor(length=size, payload=b"x")
            env.run(env.process(client.put(md, 0, 5, 0xC0)))
            return env.now

        assert_equivalent(run_both(workload))

    @pytest.mark.parametrize("size", (4 * KiB, 1 * MiB))
    def test_get_completion_time(self, size):
        def workload(env, fabric):
            nodes = [fabric.node(i) for i in (0, 2)]
            server = install_portals(env, fabric, nodes[0])
            client = install_portals(env, fabric, nodes[1])
            client.attach(9, 0x11, MemoryDescriptor(length=size, payload=b"d"))
            md = MemoryDescriptor(length=size)
            env.run(env.process(server.get(md, 2, 9, 0x11)))
            return env.now

        assert_equivalent(run_both(workload))
