"""Event and condition semantics of the simulation kernel."""

import weakref

import pytest

from repro.simkernel import AllOf, AnyOf, Environment, Event, Timeout


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_fresh_event_is_untriggered(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(RuntimeError):
            _ = ev.value
        with pytest.raises(RuntimeError):
            _ = ev.ok

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_trigger_raises(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_failed_event_raises_out_of_run(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_does_not_raise(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        env.run()  # no exception

    def test_callbacks_fire_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert ev.processed

    def test_cancel_releases_what_waited_on_the_event(self, env):
        # The losing timer of an RPC race sits in the queue for its whole
        # delay; once cancelled it must not keep the race condition (and
        # the reply in its value) alive until then.
        reply = env.event()
        timer = env.timeout(30.0)
        race = AnyOf(env, [reply, timer])
        reply.succeed("reply")
        env.run(race)
        watch = weakref.ref(race)
        del race, reply
        assert watch() is not None  # still held by the timer's callbacks
        assert timer.cancel()
        assert watch() is None
        assert timer.cancelled and not timer.processed


class TestTimeout:
    def test_timeout_advances_clock(self, env):
        env.run(env.timeout(2.5))
        assert env.now == 2.5

    def test_timeout_value(self, env):
        assert env.run(env.timeout(1.0, value="done")) == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_zero_delay_fires_now(self, env):
        env.run(env.timeout(0))
        assert env.now == 0.0

    def test_timeouts_fire_in_order(self, env):
        order = []
        for delay in (3.0, 1.0, 2.0):
            ev = env.timeout(delay, value=delay)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [1.0, 2.0, 3.0]

    def test_same_time_fifo(self, env):
        order = []
        for i in range(5):
            ev = env.timeout(1.0, value=i)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        t1, t2, t3 = env.timeout(1), env.timeout(3), env.timeout(2)
        env.run(AllOf(env, [t1, t2, t3]))
        assert env.now == 3.0

    def test_any_of_fires_on_first(self, env):
        t1, t2 = env.timeout(5), env.timeout(1)
        env.run(AnyOf(env, [t1, t2]))
        assert env.now == 1.0

    def test_empty_all_of_fires_immediately(self, env):
        env.run(AllOf(env, []))
        assert env.now == 0.0

    def test_condition_value_contains_triggered(self, env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(2, value="b")
        result = env.run(env.all_of([t1, t2]))
        assert result[t1] == "a"
        assert result[t2] == "b"
        assert len(result) == 2

    def test_and_operator(self, env):
        t1, t2 = env.timeout(1), env.timeout(2)
        env.run(t1 & t2)
        assert env.now == 2.0

    def test_or_operator(self, env):
        t1, t2 = env.timeout(1), env.timeout(2)
        env.run(t1 | t2)
        assert env.now == 1.0

    def test_failed_member_fails_condition(self, env):
        ev = env.event()
        cond = env.all_of([ev, env.timeout(1)])
        ev.fail(RuntimeError("member failed"))
        with pytest.raises(RuntimeError, match="member failed"):
            env.run(cond)

    def test_condition_of_mixed_environments_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            env.all_of([env.timeout(1), other.timeout(1)])

    def test_condition_value_dict_equality(self, env):
        t1 = env.timeout(1, value=10)
        result = env.run(env.all_of([t1]))
        assert result == {t1: 10}
