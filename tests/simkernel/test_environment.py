"""Environment run semantics: until-times, until-events, step, peek."""

import pytest

from repro.simkernel import EmptySchedule, Environment


@pytest.fixture
def env():
    return Environment()


def test_run_until_time_stops_clock(env):
    env.timeout(10)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_past_time_rejected(env):
    env.run(env.timeout(5))
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_drains_queue(env):
    env.timeout(1)
    env.timeout(2)
    env.run()
    assert env.now == 2.0


def test_run_empty_returns_none(env):
    assert env.run() is None
    assert env.now == 0.0


def test_run_until_unreachable_event_raises(env):
    ev = env.event()  # never triggered
    env.timeout(1)
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(ev)


def test_run_until_already_processed_event(env):
    ev = env.timeout(1, value="x")
    env.run()
    assert env.run(ev) == "x"


def test_peek_reports_next_event_time(env):
    env.timeout(3)
    env.timeout(7)
    assert env.peek() == 3.0


def test_peek_empty_is_inf(env):
    assert env.peek() == float("inf")


def test_step_processes_one_event(env):
    env.timeout(1)
    env.timeout(2)
    env.step()
    assert env.now == 1.0
    env.step()
    assert env.now == 2.0
    with pytest.raises(EmptySchedule):
        env.step()


def test_initial_time(capsys):
    env = Environment(initial_time=100.0)
    env.run(env.timeout(1))
    assert env.now == 101.0


def test_until_time_preempts_same_time_events(env):
    fired = []
    ev = env.timeout(2.0)
    ev.callbacks.append(lambda e: fired.append(True))
    env.run(until=2.0)
    # The stop event runs first at t=2.0; the timeout remains queued.
    assert env.now == 2.0
    assert fired == []
    env.run()
    assert fired == [True]


def test_active_process_visible_inside_process(env):
    observed = []

    def worker(env):
        observed.append(env.active_process)
        yield env.timeout(1)

    proc = env.process(worker(env))
    env.run()
    assert observed == [proc]
    assert env.active_process is None


def test_timeout_at_ends_where_chained_timeouts_do(env):
    t, a, b = 0.1, 0.2, 0.3
    assert t + (a + b) != (t + a) + b  # one relative delay would not do
    ends = []

    def chained(env):
        yield env.timeout(a)
        yield env.timeout(b)
        ends.append(env.now)

    def fused(env):
        yield env.timeout_at((env.now + a) + b)
        ends.append(env.now)

    env.run(env.timeout(t))
    env.process(chained(env))
    env.process(fused(env))
    env.run()
    assert ends == [(t + a) + b] * 2


def test_timeout_at_now_is_fifo_with_zero_delays(env):
    log = []
    env.timeout(0).callbacks.append(lambda e: log.append("first"))
    env.timeout_at(env.now).callbacks.append(lambda e: log.append("at now"))
    env.timeout(0).callbacks.append(lambda e: log.append("last"))
    env.run()
    assert log == ["first", "at now", "last"]


def test_timeout_at_in_the_past_rejected(env):
    env.run(env.timeout(1.0))
    with pytest.raises(ValueError, match="past"):
        env.timeout_at(0.5)
