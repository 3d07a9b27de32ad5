"""RPC layer: dispatch, replies, remote exceptions, timeouts, concurrency."""

import pytest

from repro.errors import NetworkError, NodeFailure, RPCTimeout
from repro.network import RpcClient, RpcService
from repro.network.rpc import REPLY_PORTAL


@pytest.fixture
def service(env, fabric, nodes):
    svc = RpcService(env, fabric, nodes[0], "test-svc")

    def echo(ctx, text):
        yield from ctx.cpu(10e-6)
        return text.upper()

    def slow(ctx, duration):
        yield ctx.env.timeout(duration)
        return "done"

    def boom(ctx):
        yield ctx.env.timeout(0)
        raise ValueError("remote kaboom")

    svc.register("echo", echo)
    svc.register("slow", slow)
    svc.register("boom", boom)
    return svc


@pytest.fixture
def client(env, fabric, nodes):
    return RpcClient(env, fabric, nodes[2])


def call(env, client, *args, **kwargs):
    def runner():
        result = yield from client.call(*args, **kwargs)
        return result

    return env.run(env.process(runner()))


class TestBasics:
    def test_roundtrip(self, env, service, client):
        assert call(env, client, 0, "test-svc", "echo", text="hi") == "HI"

    def test_remote_exception_reraised(self, env, service, client):
        with pytest.raises(ValueError, match="remote kaboom"):
            call(env, client, 0, "test-svc", "boom")

    def test_unknown_op(self, env, service, client):
        with pytest.raises(NetworkError, match="no op"):
            call(env, client, 0, "test-svc", "nope")

    def test_duplicate_registration_rejected(self, service):
        with pytest.raises(ValueError):
            service.register("echo", lambda ctx: None)

    def test_decorator_registration(self, env, fabric, nodes, client):
        """A handler registered on a second service answers its calls."""
        svc = RpcService(env, fabric, nodes[1], "second")

        def double(ctx, x):
            yield ctx.env.timeout(0)
            return x * 2

        svc.register("double", double)
        assert call(env, client, 1, "second", "double", x=21) == 42

    def test_requests_served_counter(self, env, service, client):
        call(env, client, 0, "test-svc", "echo", text="a")
        call(env, client, 0, "test-svc", "echo", text="b")
        assert service.requests_served == 2

    def test_rpc_has_latency(self, env, service, client):
        call(env, client, 0, "test-svc", "echo", text="x")
        assert env.now > 10e-6  # at least two wire latencies + cpu


class TestConcurrency:
    def test_handlers_run_concurrently(self, env, service, client):
        """Two slow calls from different processes overlap."""

        def caller():
            result = yield from client.call(0, "test-svc", "slow", duration=1.0)
            return env.now

        p1 = env.process(caller())
        p2 = env.process(caller())
        env.run(env.all_of([p1, p2]))
        assert env.now < 1.5  # not serialized (2.0 would mean serial)

    def test_replies_routed_by_request_id(self, env, service, client):
        """Out-of-order completion must not cross replies."""

        def caller(duration, tag):
            result = yield from client.call(0, "test-svc", "slow", duration=duration)
            return (tag, env.now)

        slow_p = env.process(caller(2.0, "slow"))
        fast_p = env.process(caller(0.5, "fast"))
        env.run(env.all_of([slow_p, fast_p]))
        assert fast_p.value[0] == "fast" and fast_p.value[1] < 1.0
        assert slow_p.value[0] == "slow" and slow_p.value[1] >= 2.0


class TestTimeouts:
    def test_timeout_raises(self, env, service, client):
        with pytest.raises(RPCTimeout):
            call(env, client, 0, "test-svc", "slow", duration=10.0, timeout=0.5)

    def test_expired_timer_raises_at_deadline_and_late_reply_drops(self, env, service, client):
        delivered = []

        def late(ctx):
            delivered.append(ctx.env.now)
            yield ctx.env.timeout(1.0)
            return "late"

        service.register("late", late)
        with pytest.raises(RPCTimeout, match="timed out after 0.5s"):
            call(env, client, 0, "test-svc", "late", timeout=0.5)
        assert env.now == delivered[0] + 0.5
        # The reply finds no match entry at the caller and is dropped.
        env.run()
        assert service.requests_served == 1
        assert client.endpoint.tables[REPLY_PORTAL].entries == []

    def test_fast_call_beats_timeout(self, env, service, client):
        assert call(env, client, 0, "test-svc", "echo", text="ok", timeout=5.0) == "OK"


class TestFailures:
    def test_call_to_dead_node(self, env, service, client, nodes):
        nodes[0].kill()
        with pytest.raises(NodeFailure):
            call(env, client, 0, "test-svc", "echo", text="x")

    def test_server_dies_mid_handler(self, env, service, client, nodes):
        """Server death after accepting the request => client times out."""

        def killer():
            yield env.timeout(0.2)
            nodes[0].kill()

        env.process(killer())
        with pytest.raises(RPCTimeout):
            call(env, client, 0, "test-svc", "slow", duration=1.0, timeout=2.0)
