"""Fabric message delivery: timing, serialization, contention, failures."""

import pytest

from repro.errors import NodeFailure
from repro.network import Fabric
from repro.units import MiB

from .helpers import send


def run_transfer(env, fabric, src, dst, size, tag="t"):
    ev = send(fabric, src, dst, size, tag=tag)
    env.run(ev)
    return env.now


class TestDelivery:
    def test_payload_rides_through(self, env, fabric, nodes):
        ev = send(fabric, 2, 0, 128, payload={"op": "hello"})
        msg = env.run(ev)
        assert msg.payload == {"op": "hello"}

    def test_transfer_time_scales_with_size(self, env, fabric, nodes):
        t_small = run_transfer(env, fabric, 2, 0, 1 * MiB)
        env2_start = env.now
        ev = send(fabric, 2, 0, 8 * MiB)
        env.run(ev)
        t_big = env.now - env2_start
        # 8x the bytes ≈ 8x the serialization (latency/overhead constant).
        assert t_big > 6 * t_small

    def test_minimum_wire_size_charged(self, env, fabric, nodes):
        # Zero-byte messages still cost headers + latency.
        t = run_transfer(env, fabric, 2, 0, 0)
        assert t > 0

    def test_latency_floor(self, env, fabric, nodes, spec):
        t = run_transfer(env, fabric, 2, 0, 0)
        assert t >= spec.compute_spec.nic.latency

    def test_same_node_delivery_is_cheap(self, env, fabric, nodes):
        t_local = run_transfer(env, fabric, 2, 2, 1 * MiB)
        env2 = env.now
        env.run(send(fabric, 2, 0, 1 * MiB))
        t_remote = env.now - env2
        assert t_local < t_remote

    def test_unknown_node_rejected(self, env, fabric, nodes):
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            fabric.node(99)

    def test_counters_accumulate(self, env, fabric, nodes):
        run_transfer(env, fabric, 2, 0, 1024)
        run_transfer(env, fabric, 3, 1, 2048)
        assert fabric.counters["messages"] == 2
        assert fabric.counters["bytes"] >= 3072


class TestContention:
    def test_receiver_serializes_bulk_senders(self, env, fabric, nodes):
        """Two senders into one receiver take ~2x one sender's time."""
        size = 8 * MiB
        solo_ev = send(fabric, 2, 0, size)
        env.run(solo_ev)
        solo = env.now

        start = env.now
        both = [send(fabric, 2, 1, size), send(fabric, 3, 1, size)]
        env.run(env.all_of(both))
        contended = env.now - start
        assert contended > 1.8 * solo

    def test_distinct_pairs_proceed_in_parallel(self, env, fabric, nodes):
        size = 8 * MiB
        start = env.now
        env.run(send(fabric, 2, 0, size))
        solo = env.now - start

        start = env.now
        pair = [send(fabric, 2, 0, size), send(fabric, 3, 1, size)]
        env.run(env.all_of(pair))
        parallel = env.now - start
        assert parallel < 1.2 * solo

    def test_control_messages_bypass_bulk_queue(self, env, fabric, nodes):
        """A small RPC must not wait behind a multi-MiB transfer."""
        bulk = send(fabric, 2, 0, 64 * MiB)
        ctl = send(fabric, 3, 0, 256, tag="rpc")
        env.run(ctl)
        ctl_done = env.now
        env.run(bulk)
        assert ctl_done < env.now / 10

    def test_control_lane_boundary_4096_vs_4097(self, env, fabric, nodes):
        """CONTROL_LANE_MAX is inclusive: exactly 4096 B rides the control
        virtual channel and never queues behind a saturating bulk
        transfer; one byte more shares the bulk pipes and must wait."""
        assert Fabric.CONTROL_LANE_MAX == 4096
        bulk = send(fabric, 2, 0, 64 * MiB, tag="bulk")
        at_max = send(fabric, 3, 0, 4096, tag="at-max")
        env.run(at_max)
        at_max_done = env.now
        env.run(bulk)
        bulk_done = env.now
        assert at_max_done < bulk_done / 10

        # Fresh run: 4097 B is bulk traffic and queues behind saturation.
        from repro.machine import Node, dev_cluster
        from repro.simkernel import Environment

        env2 = Environment()
        spec = dev_cluster()
        fabric2 = Fabric(env2, topology=spec.topology, hop_latency=spec.hop_latency)
        for i in range(2):
            fabric2.attach(Node(env2, i, spec.io_spec))
        for i in range(2, 4):
            fabric2.attach(Node(env2, i, spec.compute_spec))
        bulk = send(fabric2, 2, 0, 64 * MiB, tag="bulk")
        over = send(fabric2, 3, 0, 4097, tag="over-max")
        env2.run(over)
        over_done = env2.now
        env2.run(bulk)
        # The 4097 B message sat in the rx queue for the bulk transfer's
        # whole serialization, so it lands near the bulk's own finish —
        # not ahead of it like the control-lane message did.
        assert over_done > bulk_done / 2


class TestFailures:
    def test_send_from_dead_node_fails(self, env, fabric, nodes):
        nodes[2].kill()
        ev = send(fabric, 2, 0, 128)
        with pytest.raises(NodeFailure):
            env.run(ev)

    def test_send_to_node_that_dies_in_flight(self, env, fabric, nodes):
        ev = send(fabric, 2, 0, 64 * MiB)

        def killer(env):
            yield env.timeout(1e-4)
            nodes[0].kill()

        env.process(killer(env))
        with pytest.raises(NodeFailure):
            env.run(ev)

    def _doomed_delivery(self, env, fabric, nodes, kill_after):
        """Time a quiet 256 B delivery from node 2 to node 0, send it again
        and kill node 0 *kill_after* seconds after the second message's
        wire latency began.  Returns that transfer and its due instant."""
        env.run(send(fabric, 2, 0, 256))
        took = env.now
        latency, recv = fabric.wire_latency(2, 0), nodes[0].msg_overhead_time()
        assert recv > 0
        ev = send(fabric, 2, 0, 256)

        def killer(env):
            yield env.timeout(took - recv - latency + kill_after)
            nodes[0].kill()

        env.process(killer(env))
        return ev, 2 * took

    def test_destination_down_on_arrival_loses_the_message(self, env, fabric, nodes):
        # Killed halfway through the wire latency: down when it arrives.
        # The loss surfaces once the receive overhead would have ended.
        latency = fabric.wire_latency(2, 0)
        ev, due = self._doomed_delivery(env, fabric, nodes, latency / 2)
        with pytest.raises(NodeFailure):
            env.run(ev)
        assert env.now == pytest.approx(due)

    def test_destination_dying_while_receiving_still_gets_it(self, env, fabric, nodes):
        latency, recv = fabric.wire_latency(2, 0), nodes[0].msg_overhead_time()
        ev, due = self._doomed_delivery(env, fabric, nodes, latency + recv / 2)
        assert env.run(ev).size == 256
        assert env.now == pytest.approx(due) and not nodes[0].alive


class TestLatencyModel:
    def test_mesh_hop_latency(self):
        from repro.machine import Node, red_storm
        from repro.simkernel import Environment

        spec = red_storm()
        env = Environment()
        fabric = Fabric(env, topology="mesh3d", hop_latency=spec.hop_latency, n_nodes_hint=64)
        for i in range(64):
            fabric.attach(Node(env, i, spec.compute_spec))
        near = fabric.wire_latency(0, 1)
        far = fabric.wire_latency(0, 63)
        assert near == pytest.approx(spec.compute_spec.nic.latency)
        assert far > near

    def test_wire_latency_unattached_ids_raise_network_error(self, env, fabric, nodes):
        """Both endpoint lookups route through node(): an unattached id on
        either side, or on both, is a NetworkError, never a bare KeyError
        or a zero latency."""
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            fabric.wire_latency(99, 0)
        with pytest.raises(NetworkError):
            fabric.wire_latency(0, 99)
        with pytest.raises(NetworkError):
            fabric.wire_latency(99, 99)
        # An attached node's local hop is still free.
        assert fabric.wire_latency(0, 0) == 0.0

    def test_duplicate_attach_rejected(self, env, fabric, nodes, spec):
        from repro.machine import Node

        with pytest.raises(ValueError):
            fabric.attach(Node(env, 0, spec.compute_spec))
