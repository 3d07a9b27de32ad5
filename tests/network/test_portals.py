"""Portals one-sided semantics: matching, put, get, event queues."""

import pytest

from repro.errors import NetworkError
from repro.network import MemoryDescriptor, PtlEventKind, install_portals
from repro.units import MiB


@pytest.fixture
def endpoints(env, fabric, nodes):
    return [install_portals(env, fabric, n) for n in nodes]


class TestMatching:
    def test_exact_match(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        eq = server.new_eq()
        server.attach(5, 0xAB, MemoryDescriptor(length=64, eq=eq))
        md = MemoryDescriptor(length=64, payload=b"ping")
        env.run(env.process(client.put(md, 0, 5, 0xAB)))
        ok, event = eq.try_get()
        assert ok
        assert event.kind is PtlEventKind.PUT_END
        assert event.payload == b"ping"
        assert event.initiator == 2

    def test_no_match_is_error(self, env, endpoints):
        client = endpoints[2]
        md = MemoryDescriptor(length=64, payload=b"x")
        with pytest.raises(NetworkError, match="no match entry"):
            env.run(env.process(client.put(md, 0, 5, 0xDEAD)))

    def test_ignore_bits(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        eq = server.new_eq()
        # Accept any low byte.
        server.attach(5, 0x100, MemoryDescriptor(length=64, eq=eq), ignore_bits=0xFF)
        env.run(env.process(client.put(MemoryDescriptor(length=8, payload=b"a"), 0, 5, 0x1AB)))
        assert len(eq) == 1

    def test_use_once_unlinks(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        eq = server.new_eq()
        server.attach(5, 1, MemoryDescriptor(length=8, eq=eq), use_once=True)
        env.run(env.process(client.put(MemoryDescriptor(length=8, payload=b"1"), 0, 5, 1)))
        with pytest.raises(NetworkError):
            env.run(env.process(client.put(MemoryDescriptor(length=8, payload=b"2"), 0, 5, 1)))

    def test_first_matching_entry_wins(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        eq1, eq2 = server.new_eq(), server.new_eq()
        server.attach(5, 7, MemoryDescriptor(length=8, eq=eq1))
        server.attach(5, 7, MemoryDescriptor(length=8, eq=eq2))
        env.run(env.process(client.put(MemoryDescriptor(length=8, payload=b"x"), 0, 5, 7)))
        assert len(eq1) == 1 and len(eq2) == 0

    def test_detach(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        me = server.attach(5, 9, MemoryDescriptor(length=8))
        server.detach(5, me)
        with pytest.raises(NetworkError):
            env.run(env.process(client.put(MemoryDescriptor(length=8, payload=b"x"), 0, 5, 9)))

    def test_detach_leaves_an_equal_twin_attached(self, env, endpoints):
        """Entries are compared by identity: detaching one of two entries
        with identical fields leaves the other one matching."""
        server, client = endpoints[0], endpoints[2]
        eq = server.new_eq()
        md = MemoryDescriptor(length=8, eq=eq)
        first = server.attach(5, 9, md)
        second = server.attach(5, 9, md)
        assert first != second
        server.detach(5, second)
        assert len(server.tables[5].entries) == 1
        assert server.tables[5].entries[0] is first
        env.run(env.process(client.put(MemoryDescriptor(length=8, payload=b"x"), 0, 5, 9)))
        assert len(eq) == 1


class TestGet:
    def test_get_pulls_payload(self, env, endpoints):
        """The server-directed write path: target exposes, initiator pulls."""
        server, client = endpoints[0], endpoints[2]
        # Client exposes its buffer; server pulls (as in Fig. 6).
        client.attach(3, 0x77, MemoryDescriptor(length=1 * MiB, payload=b"bulk-data"))
        eq = server.new_eq()
        md = MemoryDescriptor(length=1 * MiB, eq=eq)
        result = env.run(env.process(server.get(md, 2, 3, 0x77)))
        assert result == b"bulk-data"
        assert md.payload == b"bulk-data"
        ok, event = eq.try_get()
        assert ok and event.kind is PtlEventKind.REPLY_END

    def test_get_posts_target_event(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        client_eq = client.new_eq()
        client.attach(3, 1, MemoryDescriptor(length=64, payload=b"d", eq=client_eq))
        env.run(env.process(server.get(MemoryDescriptor(length=64), 2, 3, 1)))
        ok, event = client_eq.try_get()
        assert ok and event.kind is PtlEventKind.GET_END
        assert event.initiator == 0

    def test_get_timing_includes_bulk_transfer(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        client.attach(3, 1, MemoryDescriptor(length=16 * MiB, payload=b""))
        env.run(env.process(server.get(MemoryDescriptor(length=16 * MiB), 2, 3, 1)))
        # 16 MiB at 230 MB/s is ~70ms; request phase is microseconds.
        assert env.now > 0.05

    def test_get_missing_entry_is_error(self, env, endpoints):
        server = endpoints[0]
        with pytest.raises(NetworkError):
            env.run(env.process(server.get(MemoryDescriptor(length=8), 2, 3, 0xBEEF)))


class TestPortalTables:
    def test_tables_built_only_for_used_indices(self, env, endpoints):
        server, client = endpoints[0], endpoints[2]
        assert len(server.tables) == 0
        server.attach(5, 0xAB, MemoryDescriptor(length=64))
        env.run(env.process(client.put(MemoryDescriptor(length=8, payload=b"x"), 0, 5, 0xAB)))
        assert sorted(server.tables) == [5]

    def test_out_of_range_index_raises_key_error(self, endpoints):
        ep = endpoints[0]
        for index in (-1, 64, "5"):
            with pytest.raises(KeyError):
                ep.attach(index, 1, MemoryDescriptor(length=8))
        ep.attach(63, 1, MemoryDescriptor(length=8))
        assert sorted(ep.tables) == [63]


class TestValidation:
    def test_negative_md_length_rejected(self):
        with pytest.raises(ValueError):
            MemoryDescriptor(length=-1)

    def test_endpoint_required(self, env, fabric, spec):
        from repro.machine import Node

        loner = Node(env, 50, spec.compute_spec)
        fabric.attach(loner)
        # loner has no portals endpoint; targeting it must fail.
        sender = Node(env, 51, spec.compute_spec)
        fabric.attach(sender)
        ep = install_portals(env, fabric, sender)
        with pytest.raises(NetworkError, match="no portals endpoint"):
            env.run(env.process(ep.put(MemoryDescriptor(length=8, payload=b"x"), 50, 0, 1)))
