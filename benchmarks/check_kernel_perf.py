"""Perf smoke guard: fail if kernel event throughput regresses >30%.

Re-measures the :mod:`bench_simkernel_events` workloads (best-of-N to
shave scheduler noise) and compares the shipping configuration
(``lazy=True``) against the committed baselines in ``BENCH_kernel.json``.
A run below ``--threshold`` (default 0.7×) of its baseline fails.  The
event-loop workloads guard events/s; the fast-forward workload guards
ranks per wall-second (fixed work per second — see
``bench_simkernel_events.FIGURE_OF_MERIT``).

Usage::

    PYTHONPATH=src python benchmarks/check_kernel_perf.py [--best-of 3]
    PYTHONPATH=src python benchmarks/check_kernel_perf.py --update   # reseed baseline

The 30% margin is deliberately loose: this is a smoke guard against
order-of-magnitude regressions (an accidentally disabled fast path, an
O(n) cancellation sneaking back in), not a micro-benchmark gate.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_simkernel_events import (  # noqa: E402
    KERNEL_JSON,
    KERNEL_SCHEMA,
    WORKLOADS,
    _with_lazy,
    fom_key,
    record_kernel_baseline,
)


def _measure(fn, best_of, key):
    best = None
    for _ in range(best_of):
        stats = _with_lazy(True, fn)
        if best is None or stats[key] > best[key]:
            best = stats
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--best-of", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=0.7,
                        help="fail below this fraction of baseline (default 0.7)")
    parser.add_argument("--update", action="store_true",
                        help="reseed BENCH_kernel.json instead of checking")
    args = parser.parse_args(argv)

    if args.update:
        record_kernel_baseline(best_of=args.best_of)
        print(f"baseline reseeded -> {os.path.normpath(KERNEL_JSON)}")
        return 0

    try:
        with open(KERNEL_JSON, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        print(f"no readable baseline at {os.path.normpath(KERNEL_JSON)}; "
              "run with --update to seed one", file=sys.stderr)
        return 1
    if doc.get("schema") != KERNEL_SCHEMA:
        print(f"unexpected baseline schema {doc.get('schema')!r}", file=sys.stderr)
        return 1
    baselines = {e["workload"]: e for e in doc.get("entries", []) if e.get("lazy")}

    failed = False
    for name, fn in WORKLOADS.items():
        base = baselines.get(name)
        key = fom_key(name)
        if base is None or key not in base:
            print(f"{name:12s} SKIP (no lazy baseline entry)")
            continue
        stats = _measure(fn, args.best_of, key)
        ratio = stats[key] / base[key]
        ok = ratio >= args.threshold
        print(
            f"{name:12s} {stats[key]:12,.1f} {key} "
            f"vs baseline {base[key]:12,.1f} "
            f"({ratio:.2f}x) {'ok' if ok else 'FAIL'}"
        )
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
