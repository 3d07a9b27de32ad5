"""One benchmark iteration in a fresh process: ``run.py`` starts this.

Runs one workload once and prints one JSON line: the host time spent
inside ``Environment.run`` (summed over forked sweep workers), the
monotonic instant the first run began, the peak resident set, and the
simulated outputs of every trial.  With ``--trace`` the layer wrappers
of :mod:`layers` are installed first, the sweep runs in-process, and
the line also carries the tracer's per-layer totals.  Untraced sweeps
run on ``min(2, CPUs)`` workers.

    python3 perfbench/child.py --workload scale_restart --seed 1 [--trace] [--tiny]
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


class RunClock:
    """Host time inside ``Environment.run``, shared with forked workers.

    The sweep executor forks its workers, so values in shared memory
    created before the pool carry every worker's runs back here.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._lock = ctx.Lock()
        self._first = ctx.RawValue("d", math.inf)
        self._total = ctx.RawValue("d", 0.0)

    def install(self, env_cls) -> None:
        run = env_cls.run
        clock = self

        def timed_run(env, until=None):
            start = time.monotonic()
            try:
                return run(env, until)
            finally:
                elapsed = time.monotonic() - start
                with clock._lock:
                    clock._first.value = min(clock._first.value, start)
                    clock._total.value += elapsed

        env_cls.run = timed_run

    @property
    def first_run(self) -> float:
        return self._first.value

    @property
    def total(self) -> float:
        return self._total.value


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    from repro.simkernel.core import Environment

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    clock = RunClock()
    clock.install(Environment)

    inputs = workloads.make_inputs(args.workload, args.seed, tiny=args.tiny)
    # The traced run keeps the sweep in-process, where the wrappers are.
    jobs = 1 if args.trace else min(2, os.cpu_count() or 1)
    trials, stats = workloads.run_workload(args.workload, inputs, jobs=jobs)
    doc = {
        "first_run": clock.first_run,
        "run_s": clock.total,
        "peak_rss_mb": peak_rss_mb(),
        "trials": trials,
        "stats": stats,
    }
    if tracer is not None:
        doc["layers"] = tracer.report()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
