"""Resource, Store, and Container semantics."""

import pytest

from repro.simkernel import Container, Environment, Interrupt, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_grant_within_capacity_is_immediate(self, env):
        res = Resource(env, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        assert res.count == 2

    def test_grants_succeed_with_none(self, env):
        # A request holding itself as its value would be a reference
        # cycle per grant; like SimPy, a grant carries no value.
        res = Resource(env, capacity=1)
        first, queued = res.request(), res.request()
        res.release(first)
        env.run()
        assert first.value is None and queued.value is None
        res.release(queued)

    def test_excess_requests_queue_fifo(self, env):
        res = Resource(env, capacity=1)
        order = []

        def worker(env, i):
            with res.request() as req:
                yield req
                order.append(i)
                yield env.timeout(1)

        for i in range(4):
            env.process(worker(env, i))
        env.run()
        assert order == [0, 1, 2, 3]
        assert env.now == 4.0

    def test_release_without_hold_raises(self, env):
        res = Resource(env)
        granted = res.request()
        stranger = res.request()  # queued, not granted
        with pytest.raises(RuntimeError):
            res.release(stranger)
        res.release(granted)

    def test_cancel_queued_request(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        queued = res.request()
        queued.cancel()
        res.release(held)
        env.run()
        assert not queued.triggered
        assert res.count == 0

    def test_context_manager_releases_on_exception(self, env):
        res = Resource(env, capacity=1)

        def worker(env):
            with res.request() as req:
                yield req
                raise RuntimeError("inside")

        env.process(worker(env))
        with pytest.raises(RuntimeError):
            env.run()
        assert res.count == 0


class TestHold:
    def test_free_hold_schedules_one_event(self, env):
        res, other = Resource(env), Resource(env)

        def holder(env):
            start = yield from res.hold(2.0, other)
            return start, res.count, other.count

        proc = env.process(holder(env))
        before = env.events_processed
        env.run()
        # Process start, the hold's one timeout, process finish: the
        # slots are claimed without a grant event.
        assert env.events_processed - before == 3
        assert proc.value == (0.0, 0, 0)
        assert env.now == 2.0

    def test_held_slot_queues_later_holds_fifo(self, env):
        res = Resource(env, capacity=1)
        starts = {}

        def holder(env, name):
            starts[name] = yield from res.hold(1.0)

        for name in "abc":
            env.process(holder(env, name))
        env.run(until=0.5)
        assert res.count == 1 and res.queue_len == 2
        env.run()
        assert starts == {"a": 0.0, "b": 1.0, "c": 2.0}
        assert res.count == 0

    def test_interrupt_during_free_hold_gives_back_both(self, env):
        res, other = Resource(env), Resource(env)

        def holder(env):
            yield from res.hold(1.0, other)

        proc = env.process(holder(env))
        env.run(until=0.25)
        assert (res.count, other.count) == (1, 1)
        waiter = other.request()  # queues behind the claim
        proc.interrupt("crash")
        with pytest.raises(Interrupt):
            env.run(until=0.5)
        assert res.count == 0 and other.count == 1 and waiter.triggered

    def test_interrupt_while_queued_for_also_gives_back_both(self, env):
        res, other = Resource(env), Resource(env)
        blocker = other.request()

        def holder(env):
            yield from res.hold(1.0, other)

        proc = env.process(holder(env))

        def interrupter(env):
            yield env.timeout(0.5)
            proc.interrupt("crash")

        env.process(interrupter(env))
        env.run(until=0.25)
        assert res.count == 1 and other.queue_len == 1
        with pytest.raises(Interrupt):
            env.run()
        assert res.count == 0 and other.queue_len == 0
        other.release(blocker)
        assert other.count == 0


class TestStore:
    def test_put_get_roundtrip(self, env):
        store = Store(env)

        def producer(env):
            for i in range(3):
                yield store.put(i)
                yield env.timeout(1)

        def consumer(env):
            out = []
            for _ in range(3):
                item = yield store.get()
                out.append(item)
            return out

        env.process(producer(env))
        proc = env.process(consumer(env))
        assert env.run(proc) == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return (item, env.now)

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        proc = env.process(consumer(env))
        env.process(producer(env))
        assert env.run(proc) == ("late", 5.0)

    def test_bounded_store_blocks_put(self, env):
        store = Store(env, capacity=1)

        def producer(env):
            yield store.put("a")
            yield store.put("b")  # blocks until 'a' is taken
            return env.now

        def consumer(env):
            yield env.timeout(4)
            yield store.get()

        proc = env.process(producer(env))
        env.process(consumer(env))
        assert env.run(proc) == 4.0

    def test_try_put_rejects_when_full(self, env):
        store = Store(env, capacity=1)
        assert store.try_put("x")
        assert not store.try_put("y")

    def test_try_get(self, env):
        store = Store(env)
        assert store.try_get() == (False, None)
        store.try_put("item")
        assert store.try_get() == (True, "item")

    def test_fifo_ordering(self, env):
        store = Store(env)
        for i in range(5):
            store.try_put(i)
        got = [store.try_get()[1] for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]


class TestContainer:
    def test_level_tracking(self, env):
        c = Container(env, capacity=100, init=50)
        assert c.level == 50

    def test_get_blocks_until_put(self, env):
        c = Container(env, capacity=100, init=0)

        def getter(env):
            yield c.get(30)
            return env.now

        def putter(env):
            yield env.timeout(2)
            yield c.put(30)

        proc = env.process(getter(env))
        env.process(putter(env))
        assert env.run(proc) == 2.0
        assert c.level == 0

    def test_put_blocks_at_capacity(self, env):
        c = Container(env, capacity=10, init=10)

        def putter(env):
            yield c.put(5)
            return env.now

        def getter(env):
            yield env.timeout(3)
            yield c.get(5)

        proc = env.process(putter(env))
        env.process(getter(env))
        assert env.run(proc) == 3.0

    def test_invalid_amounts_rejected(self, env):
        c = Container(env, capacity=10)
        with pytest.raises(ValueError):
            c.put(0)
        with pytest.raises(ValueError):
            c.get(-1)
        with pytest.raises(ValueError):
            c.put(11)
        with pytest.raises(ValueError):
            c.get(11)

    def test_oversized_get_does_not_starve_later_getters(self, env):
        """A get over capacity could never be served; it is rejected, so a
        getter behind it is served from the full pool at once."""
        pool = Container(env, capacity=10, init=10)
        served = []

        def greedy(env):
            try:
                yield pool.get(11)
            except ValueError:
                pass

        def modest(env):
            yield pool.get(1)
            served.append(env.now)

        env.process(greedy(env))
        env.process(modest(env))
        env.run(until=5)
        assert served == [0.0]
        assert pool.level == 9

    def test_buffer_pool_conservation(self, env):
        """Model of the pinned-buffer pool: total never exceeds capacity."""
        pool = Container(env, capacity=100, init=100)
        max_outstanding = []

        def worker(env, amount):
            yield pool.get(amount)
            max_outstanding.append(100 - pool.level)
            yield env.timeout(1)
            pool.put(amount)

        for _ in range(10):
            env.process(worker(env, 30))
        env.run()
        assert max(max_outstanding) <= 100
        assert pool.level == 100
