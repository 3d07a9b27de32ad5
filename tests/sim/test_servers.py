"""Simulated LWFS servers: security protocol over real (simulated) RPC."""

import pytest

from repro.errors import CapabilityRevoked, PermissionDenied
from repro.lwfs import OpMask
from repro.storage import SyntheticData, data_equal
from repro.units import MiB


def drive(cluster, gen):
    return cluster.env.run(cluster.env.process(gen))


def bootstrap(cluster, deployment, node):
    """get_cred + container + full cap, as one generator."""
    client = deployment.client(node)

    def flow():
        cred = yield from client.get_cred("alice", "alice-password")
        cid = yield from client.create_container(cred)
        cap = yield from client.get_caps(cred, cid, OpMask.ALL)
        return client, cred, cid, cap

    return drive(cluster, flow())


class TestSecurityProtocol:
    def test_fig4a_acquire_caps(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])
        assert cap.cid == cid
        assert cap.grants(OpMask.ALL)
        assert cluster.env.now > 0  # real wire time elapsed

    def test_fig4b_verify_on_first_use_then_cached(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def creates():
            for _ in range(5):
                yield from client.create_object(cap, 0)
            return deployment.storage[0].verify_rpcs

        verify_rpcs = drive(cluster, creates())
        assert verify_rpcs == 1  # one wire verify, four cache hits
        cache = deployment.storage[0].svc.cache
        assert (cache.hits, cache.misses) == (4, 1)  # one lookup per request

    def test_weighted_request_counts_its_weight_once(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])
        cache = deployment.storage[0].svc.cache

        def flow():
            oid = yield from client.create_object(cap, 0)
            hits = cache.hits
            yield from client.get_attrs(cap, oid, weight=5, defer=True, cap_weight=5)
            return cache.hits - hits

        assert drive(cluster, flow()) == 5

    def test_each_server_verifies_independently(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def spread():
            yield from client.create_object(cap, 0)
            yield from client.create_object(cap, 1)

        drive(cluster, spread())
        assert deployment.storage[0].verify_rpcs == 1
        assert deployment.storage[1].verify_rpcs == 1

    def test_revocation_fans_out_to_caches(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def flow():
            oid = yield from client.create_object(cap, 0)
            # Cap now cached on server 0; revoke everything on the container.
            victims, notified = yield from client.revoke(cid, OpMask.ALL)
            assert victims  # our cap died
            # Next use must fail: the cache entry is gone and re-verify fails.
            try:
                yield from client.create_object(cap, 0)
            except CapabilityRevoked:
                return "revoked"
            return "not-revoked"

        assert drive(cluster, flow()) == "revoked"
        assert deployment.storage[0].svc.cache.invalidations >= 1

    def test_insufficient_cap_rejected_remotely(self, cluster, deployment):
        node = cluster.compute_nodes[0]
        client = deployment.client(node)

        def flow():
            cred = yield from client.get_cred("alice", "alice-password")
            cid = yield from client.create_container(cred)
            read_cap = yield from client.get_caps(cred, cid, OpMask.READ)
            try:
                yield from client.create_object(read_cap, 0)
            except PermissionDenied:
                return "denied"
            return "allowed"

        assert drive(cluster, flow()) == "denied"


class TestDataPath:
    def test_write_read_integrity(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])
        data = SyntheticData(8 * MiB, seed=11)

        def flow():
            oid = yield from client.create_object(cap, 1)
            yield from client.write(cap, oid, data)
            yield from client.sync(1)
            back = yield from client.read(cap, oid, 0, 8 * MiB)
            return back

        assert data_equal(drive(cluster, flow()), data)

    def test_write_offset_and_partial_read(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def flow():
            oid = yield from client.create_object(cap, 0)
            yield from client.write(cap, oid, b"0123456789", offset=100)
            piece = yield from client.read(cap, oid, 102, 5)
            attrs = yield from client.get_attrs(cap, oid)
            return piece, attrs["size"]

        piece, size = drive(cluster, flow())
        from repro.storage import piece_bytes

        assert piece_bytes(piece) == b"23456"
        assert size == 110

    def test_write_time_tracks_disk_bandwidth(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])
        size = 16 * MiB

        def flow():
            oid = yield from client.create_object(cap, 0)
            start = cluster.env.now
            yield from client.write(cap, oid, SyntheticData(size, seed=0))
            return cluster.env.now - start

        elapsed = drive(cluster, flow())
        disk_bw = deployment.storage[0].device.spec.bandwidth
        ideal = size / disk_bw
        assert ideal <= elapsed < 1.7 * ideal  # pipelined, disk-bound

    def test_buffer_pool_never_overdrawn(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def flow():
            oid = yield from client.create_object(cap, 0)
            yield from client.write(cap, oid, SyntheticData(8 * MiB, seed=1))

        drive(cluster, flow())
        pool = deployment.storage[0].buffers
        assert pool.level == pool.capacity  # all buffers returned


class TestSimTransactions:
    def test_txn_commit_over_rpc(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def flow():
            txn = yield from client.begin_txn()
            yield from client.txn_join_storage(txn, 0)
            oid = yield from client.create_object(cap, 0, txnid=txn)
            yield from client.write(cap, oid, b"committed", txnid=txn)
            yield from client.end_txn(txn)
            return oid

        oid = drive(cluster, flow())
        assert deployment.storage[0].svc.store.exists(oid)

    def test_txn_abort_over_rpc(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def flow():
            txn = yield from client.begin_txn()
            yield from client.txn_join_storage(txn, 0)
            yield from client.txn_join_storage(txn, 1)
            o0 = yield from client.create_object(cap, 0, txnid=txn)
            o1 = yield from client.create_object(cap, 1, txnid=txn)
            yield from client.abort_txn(txn)
            return o0, o1

        o0, o1 = drive(cluster, flow())
        assert not deployment.storage[0].svc.store.exists(o0)
        assert not deployment.storage[1].svc.store.exists(o1)

    def test_dead_server_vetoes_2pc(self, cluster, deployment):
        """Failure injection: a participant dies before prepare; the whole
        transaction must roll back on the surviving servers."""
        from repro.errors import TransactionAborted
        import dataclasses

        # Shorten the RPC timeout so failure detection is quick.
        cluster.config = dataclasses.replace(cluster.config, rpc_timeout=0.5)
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])
        client.config = cluster.config

        def flow():
            txn = yield from client.begin_txn()
            yield from client.txn_join_storage(txn, 0)
            yield from client.txn_join_storage(txn, 1)
            o0 = yield from client.create_object(cap, 0, txnid=txn)
            o1 = yield from client.create_object(cap, 1, txnid=txn)
            deployment.storage[1].node.kill()
            try:
                yield from client.end_txn(txn)
            except TransactionAborted:
                return "aborted", o0
            return "committed", o0

        outcome, o0 = drive(cluster, flow())
        assert outcome == "aborted"
        # Survivor rolled back; the object is gone.
        assert not deployment.storage[0].svc.store.exists(o0)


class TestNamingAndLocks:
    def test_bind_lookup_over_rpc(self, cluster, deployment):
        client, cred, cid, cap = bootstrap(cluster, deployment, cluster.compute_nodes[0])

        def flow():
            oid = yield from client.create_object(cap, 0)
            yield from client.bind("/sim/obj", oid)
            found = yield from client.lookup("/sim/obj")
            return oid, found

        oid, found = drive(cluster, flow())
        assert found == oid

    def test_lock_server_blocks_and_wakes(self, cluster, deployment):
        from repro.lwfs import LockMode
        from repro.network import RpcClient

        env = cluster.env
        n0, n1 = cluster.compute_nodes[0], cluster.compute_nodes[1]
        c0 = RpcClient(env, cluster.fabric, n0)
        c1 = RpcClient(env, cluster.fabric, n1)
        lock_node = deployment.locks_node_id
        order = []

        def holder():
            lock = yield from c0.call(lock_node, "locks", "acquire",
                                      resource="r", mode="exclusive", owner="h")
            order.append(("h-acquired", env.now))
            yield env.timeout(1.0)
            yield from c0.call(lock_node, "locks", "release", lock=lock)

        def waiter():
            yield env.timeout(0.1)
            lock = yield from c1.call(lock_node, "locks", "acquire",
                                      resource="r", mode="exclusive", owner="w")
            order.append(("w-acquired", env.now))
            yield from c1.call(lock_node, "locks", "release", lock=lock)

        env.run(env.all_of([env.process(holder()), env.process(waiter())]))
        assert order[0][0] == "h-acquired"
        assert order[1][0] == "w-acquired"
        assert order[1][1] >= 1.0  # waited for the holder's release
