"""Process lifecycle, error propagation, and interrupts."""

import pytest

from repro.simkernel import NORMAL, Environment, Interrupt, Process


@pytest.fixture
def env():
    return Environment()


class TestLifecycle:
    def test_return_value(self, env):
        def worker(env):
            yield env.timeout(1)
            return "result"

        assert env.run(env.process(worker(env))) == "result"

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_is_alive_until_done(self, env):
        def worker(env):
            yield env.timeout(5)

        proc = env.process(worker(env))
        assert proc.is_alive
        env.run()
        assert not proc.is_alive

    def test_join_another_process(self, env):
        def child(env):
            yield env.timeout(2)
            return 99

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        assert env.run(env.process(parent(env))) == 100
        assert env.now == 2.0

    def test_yield_non_event_fails_process(self, env):
        def worker(env):
            yield "not an event"

        with pytest.raises(RuntimeError, match="non-event"):
            env.run(env.process(worker(env)))

    def test_exception_propagates_to_joiner(self, env):
        def child(env):
            yield env.timeout(1)
            raise ValueError("child blew up")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as exc:
                return f"caught: {exc}"

        assert env.run(env.process(parent(env))) == "caught: child blew up"

    def test_unhandled_exception_crashes_run(self, env):
        def worker(env):
            yield env.timeout(1)
            raise KeyError("unhandled")

        env.process(worker(env))
        with pytest.raises(KeyError):
            env.run()

    def test_immediate_return(self, env):
        def worker(env):
            return 7
            yield  # pragma: no cover

        assert env.run(env.process(worker(env))) == 7

    def test_processes_interleave_deterministically(self, env):
        log = []

        def worker(env, name, delay):
            for i in range(3):
                yield env.timeout(delay)
                log.append((name, env.now))

        env.process(worker(env, "a", 1.0))
        env.process(worker(env, "b", 1.5))
        env.run()
        # At t=3.0 'b' resumes before 'a': its timeout was scheduled at
        # t=1.5, earlier than a's (t=2.0) — same-time ties break FIFO by
        # scheduling order.
        assert log == [
            ("a", 1.0),
            ("b", 1.5),
            ("a", 2.0),
            ("b", 3.0),
            ("a", 3.0),
            ("b", 4.5),
        ]

    def test_normal_first_step_runs_fifo_in_its_instant(self, env):
        log = []

        def step(env, name):
            log.append(name)
            yield env.timeout(0)

        def spawner(env):
            yield env.timeout(1.0)
            env.timeout(0).callbacks.append(lambda _: log.append("timeout"))
            Process(env, step(env, "normal"), priority=NORMAL)
            env.timeout(0).callbacks.append(lambda _: log.append("later timeout"))
            env.process(step(env, "urgent"))

        env.process(spawner(env))
        env.run()
        # The default URGENT first step overtakes the instant's NORMAL
        # events; a NORMAL one waits its turn among them, in FIFO order.
        assert log == ["urgent", "timeout", "normal", "later timeout"]


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as exc:
                return ("interrupted", exc.cause, env.now)

        def attacker(env, target):
            yield env.timeout(3)
            target.interrupt(cause="failure-injection")

        victim_proc = env.process(victim(env))
        env.process(attacker(env, victim_proc))
        assert env.run(victim_proc) == ("interrupted", "failure-injection", 3.0)

    def test_interrupted_process_can_continue(self, env):
        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            return env.now

        def attacker(env, target):
            yield env.timeout(2)
            target.interrupt()

        victim_proc = env.process(victim(env))
        env.process(attacker(env, victim_proc))
        assert env.run(victim_proc) == 3.0

    def test_interrupt_dead_process_rejected(self, env):
        def worker(env):
            yield env.timeout(1)

        proc = env.process(worker(env))
        env.run()
        with pytest.raises(RuntimeError):
            proc.interrupt()

    def test_self_interrupt_rejected(self, env):
        def worker(env, me):
            me[0].interrupt()
            yield env.timeout(1)

        holder = []
        proc = env.process(worker(env, holder))
        holder.append(proc)
        with pytest.raises(RuntimeError, match="interrupt itself"):
            env.run()

    def test_uncaught_interrupt_fails_process(self, env):
        def victim(env):
            yield env.timeout(100)

        def attacker(env, target):
            yield env.timeout(1)
            target.interrupt()

        victim_proc = env.process(victim(env))
        env.process(attacker(env, victim_proc))
        with pytest.raises(Interrupt):
            env.run(victim_proc)
