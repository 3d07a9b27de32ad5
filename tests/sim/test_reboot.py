"""Server reboot: presumed-abort recovery and service restart."""

import dataclasses

import pytest

from repro.errors import RPCTimeout
from repro.lwfs import OpMask
from repro.storage import SyntheticData, data_equal, piece_bytes
from repro.units import MiB


def drive(cluster, gen):
    return cluster.env.run(cluster.env.process(gen))


@pytest.fixture
def fast_timeout(cluster):
    cluster.config = dataclasses.replace(cluster.config, rpc_timeout=0.3)
    return cluster.config


def bootstrap(cluster, deployment):
    client = deployment.client(cluster.compute_nodes[0])
    client.config = cluster.config

    def flow():
        cred = yield from client.get_cred("alice", "alice-password")
        cid = yield from client.create_container(cred)
        cap = yield from client.get_caps(cred, cid, OpMask.ALL)
        return client, cid, cap

    return drive(cluster, flow())


def test_objects_survive_reboot(cluster, deployment, fast_timeout):
    client, cid, cap = bootstrap(cluster, deployment)
    server = deployment.storage[0]

    def flow():
        oid = yield from client.create_object(cap, 0)
        yield from client.write(cap, oid, b"durable bytes")
        server.node.kill()
        try:
            yield from client.read(cap, oid, 0, 13)
            return "read-while-dead", None
        except Exception:
            pass
        server.reboot()
        back = yield from client.read(cap, oid, 0, 13)
        return "recovered", back

    status, back = drive(cluster, flow())
    assert status == "recovered"
    assert piece_bytes(back) == b"durable bytes"


def test_reboot_aborts_inflight_transactions(cluster, deployment, fast_timeout):
    client, cid, cap = bootstrap(cluster, deployment)
    server = deployment.storage[0]

    def flow():
        txn = yield from client.begin_txn()
        yield from client.txn_join_storage(txn, 0)
        oid = yield from client.create_object(cap, 0, txnid=txn)
        server.node.kill()
        server.reboot()  # presumed abort: the txn state must be gone
        return oid

    oid = drive(cluster, flow())
    assert not server.svc.store.exists(oid)
    assert not server.svc._txns  # no residual txn state


def test_reboot_clears_verify_cache(cluster, deployment, fast_timeout):
    client, cid, cap = bootstrap(cluster, deployment)
    server = deployment.storage[0]

    def flow():
        yield from client.create_object(cap, 0)
        assert len(server.svc.cache) == 1
        server.node.kill()
        server.reboot()
        assert len(server.svc.cache) == 0  # volatile cache lost
        # Next use re-verifies (and re-registers the back pointer).
        before = server.verify_rpcs
        yield from client.create_object(cap, 0)
        return server.verify_rpcs - before

    assert drive(cluster, flow()) == 1


def test_rpc_service_serves_after_reboot(cluster, deployment, fast_timeout):
    client, cid, cap = bootstrap(cluster, deployment)
    server = deployment.storage[1]

    def flow():
        # Kill, then poke the dead server (the request is lost on the
        # wire); then reboot and use it again.
        server.node.kill()
        try:
            yield from client.create_object(cap, 1)
        except Exception:
            pass
        server.reboot()
        oid = yield from client.create_object(cap, 1)
        yield from client.write(cap, oid, SyntheticData(1 * MiB, seed=3))
        back = yield from client.read(cap, oid, 0, 1 * MiB)
        return data_equal(back, SyntheticData(1 * MiB, seed=3))

    assert drive(cluster, flow())
