"""The chunk window both clients share: :func:`repro.sim.client.pipelined`."""

import pytest

from repro.sim.client import pipelined
from repro.simkernel import Environment


class Boom(Exception):
    pass


def _drive(env, depth, jobs):
    """Run ``pipelined`` in a process; return (values or exception, finish time)."""
    outcome = {}

    def caller():
        try:
            outcome["value"] = yield from pipelined(env, depth, jobs)
        except Boom as exc:
            outcome["value"] = exc
        outcome["at"] = env.now

    env.process(caller())
    env.run()
    return outcome["value"], outcome["at"]


def test_values_come_back_in_input_order():
    env = Environment()
    finished = []

    def job(i, duration):
        yield env.timeout(duration)
        finished.append(i)
        return i * 10

    # Later jobs are shorter, so they finish first.
    values, _ = _drive(env, 4, (job(i, 4.0 - i) for i in range(4)))
    assert finished == [3, 2, 1, 0]
    assert values == [0, 10, 20, 30]


@pytest.mark.parametrize("depth", (1, 2, 3))
def test_no_more_than_depth_jobs_in_flight(depth):
    env = Environment()
    active = [0]
    peak = [0]
    started = []

    def job(i):
        started.append(i)
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield env.timeout(1.0 + (i % 3))
        active[0] -= 1
        return i

    values, _ = _drive(env, depth, (job(i) for i in range(8)))
    assert values == list(range(8))
    assert started == list(range(8))
    assert peak[0] == depth


def test_failure_raises_first_in_input_order_after_all_jobs_finish():
    env = Environment()
    finished = []

    def job(i):
        if i == 1:
            yield env.timeout(2.0)
            raise Boom("job 1")
        if i == 2:
            # Fails earlier in time than job 1, but later in input order.
            yield env.timeout(0.1)
            raise Boom("job 2")
        yield env.timeout(1.0)
        finished.append(i)
        return i

    # Depth 2 with six jobs: the jobs after the failures still need the
    # failed jobs' slots to start at all.
    error, at = _drive(env, 2, (job(i) for i in range(6)))
    assert isinstance(error, Boom) and str(error) == "job 1"
    assert finished == [0, 3, 4, 5]
    # The raise waits for the last job.  Jobs 0 and 1 start at 0; 2 takes
    # 0's slot at 1.0 and fails at 1.1; 3 takes 2's slot (done 2.1); 4
    # takes 1's slot at 2.0 (done 3.0); 5 takes 3's slot at 2.1 and
    # finishes at 3.1.
    assert at == pytest.approx(3.1)
