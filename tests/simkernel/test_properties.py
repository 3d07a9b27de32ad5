"""Property-based tests of kernel invariants (hypothesis)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import NORMAL, Container, Environment, RandomStreams, Resource, Store
from repro.simkernel.core import EmptySchedule

from ..reference import HeapEnvironment


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_clock_is_monotonic_and_events_ordered(delays):
    """Whatever the schedule, observed event times never decrease."""
    env = Environment()
    observed = []
    for d in delays:
        ev = env.timeout(d, value=d)
        ev.callbacks.append(lambda e: observed.append((env.now, e.value)))
    env.run()
    times = [t for t, _ in observed]
    assert times == sorted(times)
    assert sorted(v for _, v in observed) == sorted(delays)
    assert env.now == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=8),
    holds=st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    """Concurrent holders never exceed capacity; all work completes."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    in_use = [0]
    peak = [0]
    done = [0]

    def worker(env, hold):
        with res.request() as req:
            yield req
            in_use[0] += 1
            peak[0] = max(peak[0], in_use[0])
            yield env.timeout(hold)
            in_use[0] -= 1
        done[0] += 1

    for h in holds:
        env.process(worker(env, h))
    env.run()
    assert peak[0] <= capacity
    assert done[0] == len(holds)
    assert res.count == 0


@given(items=st.lists(st.integers(), min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_store_preserves_order_and_content(items):
    """A Store is an exact FIFO: everything out, in order."""
    env = Environment()
    store = Store(env)

    def producer(env):
        for item in items:
            yield store.put(item)

    def consumer(env):
        out = []
        for _ in items:
            out.append((yield store.get()))
        return out

    env.process(producer(env))
    proc = env.process(consumer(env))
    result = env.run(proc) if items else env.run(proc)
    assert result == items


#: Value of a waiter that something else triggered while it was queued:
#: the primitive must skip it, as if it had withdrawn.
_WITHDRAWN = object()


def _withdraw(waiting, k):
    """Trigger the *k*-th (mod size) queued waiter from outside."""
    if waiting:
        entry = waiting.pop(k % len(waiting))
        (entry[0] if isinstance(entry, tuple) else entry).succeed(_WITHDRAWN)


_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers()),
        st.tuples(st.just("try_put"), st.integers()),
        st.tuples(st.just("get"), st.just(0)),
        st.tuples(st.just("try_get"), st.just(0)),
        st.tuples(st.just("withdraw_getter"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("withdraw_putter"), st.integers(min_value=0, max_value=20)),
    ),
    max_size=60,
)


@given(capacity=st.sampled_from([1, 2, 3, float("inf")]), ops=_store_ops)
@settings(max_examples=150, deadline=None)
def test_store_matches_fifo_model(capacity, ops):
    """A Store against a plain FIFO model, with getters blocked on an empty
    store, putters blocked on a full one, and waiters withdrawn while
    queued: items leave in the order they were accepted, each to the
    oldest live getter, blocked putters are admitted in order, and the
    store never holds more than its capacity."""
    env = Environment()
    store = Store(env, capacity=capacity)
    items, getters, putters = [], [], []  # the model's queues
    expected = {}  # served waiter -> the value it must have received

    def settle():
        while True:
            if getters and items:
                expected[getters.pop(0)] = items.pop(0)
            elif putters and len(items) < capacity:
                putter, item = putters.pop(0)
                items.append(item)
                expected[putter] = None
            else:
                return

    for op, arg in ops:
        if op == "put":
            event = store.put(arg)
            if len(items) < capacity:
                items.append(arg)
                expected[event] = None
            else:
                putters.append((event, arg))
        elif op == "try_put":
            assert store.try_put(arg) == (len(items) < capacity)
            if len(items) < capacity:
                items.append(arg)
        elif op == "get":
            event = store.get()
            if items:
                expected[event] = items.pop(0)
            else:
                getters.append(event)
        elif op == "try_get":
            assert store.try_get() == ((True, items.pop(0)) if items else (False, None))
        elif op == "withdraw_getter":
            _withdraw(getters, arg)
        else:
            _withdraw(putters, arg)
        settle()
        assert list(store.items) == items and len(store) == len(items) <= capacity
        assert all(ev.triggered and ev.value == v for ev, v in expected.items())
        assert not any(ev.triggered for ev in getters)
        assert not any(ev.triggered for ev, _ in putters)
    env.run()


_container_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["put", "get"]), st.integers(min_value=1, max_value=10)),
        st.tuples(
            st.sampled_from(["withdraw_getter", "withdraw_putter"]),
            st.integers(min_value=0, max_value=20),
        ),
    ),
    max_size=60,
)


@given(init=st.integers(min_value=0, max_value=10), ops=_container_ops)
@settings(max_examples=150, deadline=None)
def test_container_matches_head_of_line_model(init, ops):
    """A Container against a model of two FIFO queues served head of line,
    with requests withdrawn while queued: the level is conserved and stays
    within [0, capacity], and exactly the model's requests are served."""
    capacity = 10
    env = Environment()
    pool = Container(env, capacity=capacity, init=init)
    level = [init]
    getters, putters = [], []  # the model's queues of (event, amount)
    served = set()

    def settle():
        progressed = True
        while progressed:
            progressed = False
            if putters and level[0] + putters[0][1] <= capacity:
                event, amount = putters.pop(0)
                level[0] += amount
                served.add(event)
                progressed = True
            if getters and level[0] >= getters[0][1]:
                event, amount = getters.pop(0)
                level[0] -= amount
                served.add(event)
                progressed = True

    events = []
    for op, arg in ops:
        if op == "put":
            events.append(pool.put(arg))
            putters.append((events[-1], arg))
            settle()
        elif op == "get":
            events.append(pool.get(arg))
            getters.append((events[-1], arg))
            settle()
        elif op == "withdraw_getter":
            _withdraw(getters, arg)
        else:
            _withdraw(putters, arg)
        assert pool.level == level[0] and 0 <= pool.level <= capacity
        assert {ev for ev in events if ev.triggered and ev.value is not _WITHDRAWN} == served
    env.run()


@given(
    capacity=st.integers(min_value=1, max_value=4),
    workers=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # arrival
            st.sampled_from([0.5, 1.0, 3.0]),  # hold
            st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 4.0])),  # patience
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=100, deadline=None)
def test_resource_conserves_slots_when_waiters_cancel(capacity, workers):
    """Workers queue for a Resource and some cancel after a patience
    timeout: slots are never over-granted or left idle while someone
    waits, grants follow request order, and every slot comes back."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    requested, granted, gave_up = [], [], []

    def worker(env, i, arrival, hold, patience):
        yield env.timeout(arrival)
        with res.request() as req:
            requested.append(i)
            req.callbacks.append(lambda _ev: granted.append(i))
            assert req.triggered or res.count == capacity
            if patience is None:
                yield req
            else:
                yield req | env.timeout(patience)
                if not req.triggered:
                    gave_up.append(i)
                    return
            assert res.count <= capacity
            yield env.timeout(hold)

    for i, (arrival, hold, patience) in enumerate(workers):
        env.process(worker(env, i, arrival, hold, patience))
    env.run()
    assert sorted(granted + gave_up) == list(range(len(workers)))
    assert granted == [i for i in requested if i in set(granted)]
    assert res.count == 0 and res.queue_len == 0


@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_random_streams_deterministic(seed, name):
    """Same seed + stream name => identical draws; independent of others."""
    a = RandomStreams(seed)
    b = RandomStreams(seed)
    # Interleave another stream on `b` only: must not perturb `name`.
    b.stream("other").random()
    draws_a = [a.stream(name).random() for _ in range(5)]
    draws_b = [b.stream(name).random() for _ in range(5)]
    assert draws_a == draws_b


@given(
    mean=st.floats(min_value=1e-9, max_value=1e3),
    sigma=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_jitter_always_positive(mean, sigma):
    rng = RandomStreams(7)
    for _ in range(20):
        assert rng.jitter("s", mean, sigma) > 0


def _recount_live(env):
    """Live entries by inspection: every queued entry not tombstoned."""
    queued = itertools.chain(env._queue, env._imm_urgent, env._imm_normal)
    return sum(1 for entry in queued if not entry[3]._cancelled)


class _Recounting:
    """Tracks the peak of the recount at every schedule, as the kernel's
    ``peak_queue_len`` contract defines it."""

    recount_peak = 0

    def _note(self):
        self.recount_peak = max(self.recount_peak, _recount_live(self))

    def _schedule(self, event, priority=NORMAL, delay=0.0):
        super()._schedule(event, priority, delay)
        self._note()

    def timeout(self, delay, value=None):
        event = super().timeout(delay, value)
        self._note()
        return event


class _RecountingEnvironment(_Recounting, Environment):
    pass


class _RecountingHeapEnvironment(_Recounting, HeapEnvironment):
    pass


_kernel_ops = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), st.sampled_from([0.0, 0.5, 1.0, 2.5, 40.0])),
        st.tuples(st.just("succeed"), st.just(0)),
        st.tuples(st.just("process"), st.sampled_from([0.0, 1.0, 3.0])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("cancel_burst"), st.integers(min_value=1, max_value=90)),
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.7, 2.0, 50.0])),
    ),
    max_size=40,
)


@given(lazy=st.booleans(), ops=_kernel_ops)
@settings(max_examples=80, deadline=None)
def test_live_counter_matches_recount(lazy, ops):
    """The O(1) live-entry counter equals a full recount of the schedule
    after any mix of schedules, cancels and runs, and the queue peak is
    the recount's peak over every schedule."""
    env = _RecountingEnvironment() if lazy else _RecountingHeapEnvironment()
    pending = []  # events we scheduled and have not cancelled

    def sleeper(env, delay):
        yield env.timeout(delay)

    for op, arg in ops:
        if op == "timeout":
            pending.append(env.timeout(arg))
        elif op == "succeed":
            pending.append(env.event().succeed())
        elif op == "process":
            env.process(sleeper(env, arg))
        elif op == "cancel":
            live = [ev for ev in pending if ev.callbacks is not None]
            if live:
                victim = live[arg % len(live)]
                pending.remove(victim)
                assert victim.cancel()
        elif op == "cancel_burst":
            for timer in [env.timeout(100.0 + i) for i in range(arg)]:
                timer.cancel()
        elif op == "step":
            try:
                for _ in range(arg):
                    env.step()
            except EmptySchedule:
                pass
        else:
            env.run(until=env.now + arg)
        pending = [ev for ev in pending if ev.callbacks is not None]
        assert env._live == _recount_live(env)
        assert env.peak_queue_len == max(env.recount_peak, _recount_live(env))
