"""Network accounting invariants (property-based)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Node, dev_cluster
from repro.network import Fabric
from repro.simkernel import Environment

from .helpers import send


def build(n_nodes=4):
    spec = dev_cluster()
    env = Environment()
    fabric = Fabric(env, topology="crossbar")
    nodes = []
    for i in range(n_nodes):
        node = Node(env, i, spec.compute_spec)
        fabric.attach(node)
        nodes.append(node)
    return env, fabric, nodes


@given(
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # src
            st.integers(min_value=0, max_value=3),  # dst
            st.integers(min_value=0, max_value=1 << 20),  # size
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_byte_and_message_accounting(transfers):
    """Counters equal the sum of what was sent (with the header floor)."""
    env, fabric, nodes = build()
    events = [
        send(fabric, src, dst, size, tag=f"t{i}", payload=("payload", i))
        for i, (src, dst, size) in enumerate(transfers)
    ]
    env.run(env.all_of(events))
    expected_bytes = sum(max(size, Fabric.MIN_WIRE_BYTES) for _, _, size in transfers)
    assert fabric.counters["messages"] == len(transfers)
    assert fabric.counters["bytes"] == expected_bytes
    # Payloads arrive intact and unswapped.
    for i, ev in enumerate(events):
        assert ev.value.payload == ("payload", i)


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 22), min_size=2, max_size=8)
)
@settings(max_examples=40, deadline=None)
def test_shared_receiver_time_is_superadditive(sizes):
    """Bulk transfers into one node cannot beat the serialization bound."""
    env, fabric, nodes = build()
    bw = nodes[0].nic.rx.bandwidth
    bulk = [s for s in sizes if s > Fabric.CONTROL_LANE_MAX]
    events = [send(fabric, 1 + (i % 3), 0, s, tag=f"b{i}") for i, s in enumerate(sizes)]
    env.run(env.all_of(events))
    lower_bound = sum(b / bw for b in bulk)
    assert env.now >= lower_bound * 0.999


def test_wire_latency_symmetric_same_spec():
    env, fabric, nodes = build()
    assert fabric.wire_latency(0, 3) == fabric.wire_latency(3, 0)
    assert fabric.wire_latency(2, 2) == 0.0
