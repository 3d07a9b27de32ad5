"""A from-scratch discrete-event simulation kernel.

This package is the substrate every timed component of the reproduction
runs on: the network fabric, storage devices, LWFS servers, the Lustre-like
baseline, and the simulated SPMD application ranks.

Quick tour::

    from repro.simkernel import Environment

    env = Environment()

    def worker(env, n):
        for i in range(n):
            yield env.timeout(1.0)
        return n

    proc = env.process(worker(env, 3))
    result = env.run(proc)        # -> 3, env.now == 3.0
"""

from .core import EmptySchedule, Environment, StopSimulation
from .events import NORMAL, PENDING, URGENT, AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from .monitor import Counter, Tally
from .process import Interrupt, InterruptException, Process
from .rand import RandomStreams
from .resources import Container, Request, Resource, Store

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Process",
    "Interrupt",
    "InterruptException",
    "Resource",
    "Request",
    "Store",
    "Container",
    "Tally",
    "Counter",
    "RandomStreams",
    "PENDING",
    "URGENT",
    "NORMAL",
]
