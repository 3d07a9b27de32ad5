"""Command-line interface: ``python -m repro <command>``.

Runs the paper's experiments from a shell without writing any code:

* ``table1`` / ``table2``          — regenerate the tables,
* ``checkpoint`` / ``create``      — a single Fig. 9 / Fig. 10 point,
* ``fig9`` / ``fig10``             — a full panel, charted in ASCII,
* ``trace``                        — one traced trial: phase report,
  timeline, and Chrome trace-event JSON for ``chrome://tracing``,
* ``metrics``                      — inspect a saved metrics export:
  series table with sparklines, SLO verdict, optional HTML dashboard,
* ``traffic``                      — one open-loop multi-tenant trial:
  a workload JSON (or the built-in diurnal mix) driven over shared
  servers with tenant-class collapsing, per-class latency rows printed,
* ``petaflop``                     — the §4 closing extrapolation,
* ``examples``                     — list the runnable example scripts.

``checkpoint --metrics [EXPORT.json]`` meters a trial with the
time-series sampler (:mod:`repro.metrics`) and prints the series
report; with a path it also writes the JSON export that the
``metrics`` subcommand and the dashboard read back.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from .bench import (
    FIG9_CLIENTS,
    FIG9_SERVERS,
    fig9_panel,
    fig10_panel,
    format_rows,
    format_series_table,
    petaflop_extrapolation,
    run_checkpoint_trial,
    run_create_trial,
)
from .bench.plot import chart_sweep
from .errors import ConfigError
from .sim.config import RunOptions
from .units import MiB

__all__ = ["main", "build_parser"]


def _period_seconds(raw: str) -> float:
    """``--metrics-period``: a positive, finite number of seconds."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive, finite number of seconds, got {raw!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Lightweight I/O for Scientific Applications' (LWFS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: MPP compute/I-O node counts")
    sub.add_parser("table2", help="Table 2: Red Storm performance (measured)")

    point = sub.add_parser("checkpoint", help="one Fig. 9 point (dump throughput)")
    point.add_argument("--impl", default="lwfs",
                       choices=["lwfs", "lustre-fpp", "lustre-shared"])
    point.add_argument("--clients", type=int, default=16)
    point.add_argument("--servers", type=int, default=8)
    point.add_argument("--state-mb", type=int, default=32)
    point.add_argument("--seed", type=int, default=1)
    point.add_argument("--trace", default=None, metavar="PATH",
                       help="record a span trace and write Chrome trace JSON here")
    point.add_argument("--collapse", action="store_true",
                       help="simulate one representative per symmetric client class "
                            "(weighted resources; far fewer processes)")
    point.add_argument("--flow", action="store_true",
                       help="flow-level bulk transfers: fluid fair-share streams for "
                            "the steady-state middle of each dump")
    point.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="inject the faults scheduled in this JSON plan "
                            "(see repro.faults) and print the fault/recovery "
                            "summary")
    point.add_argument("--tiers", default=None, metavar="TIERS.json",
                       help="checkpoint through the burst-buffer tier described "
                            "by this JSON spec (see repro.storage.buffer and "
                            "examples/tiers/) and print the absorb/drain summary")
    point.add_argument("--metrics", nargs="?", const="-", default=None,
                       metavar="EXPORT.json",
                       help="sample time-series metrics during the run and "
                            "print the series report; with a path, also "
                            "write the JSON export")
    point.add_argument("--metrics-period", type=_period_seconds, default=None,
                       metavar="SECONDS",
                       help="sampling period in simulated seconds (default: "
                            "derived from the analytic horizon)")

    create = sub.add_parser("create", help="one Fig. 10 point (creates/s)")
    create.add_argument("--impl", default="lwfs", choices=["lwfs", "lustre-fpp"])
    create.add_argument("--clients", type=int, default=16)
    create.add_argument("--servers", type=int, default=8)
    create.add_argument("--per-client", type=int, default=32)
    create.add_argument("--seed", type=int, default=1)
    create.add_argument("--collapse", action="store_true",
                        help="simulate one representative per symmetric client class")

    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    def add_jobs_flag(p):
        p.add_argument(
            "-j", "--jobs", type=positive_int, default=None, metavar="N",
            help="worker processes for the sweep (default: one per CPU; "
                 "1 = serial in-process)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="bypass the persistent trial cache (results/.trial-cache)",
        )

    fig9 = sub.add_parser("fig9", help="one Fig. 9 panel, charted")
    fig9.add_argument("--impl", default="lwfs",
                      choices=["lwfs", "lustre-fpp", "lustre-shared"])
    fig9.add_argument("--state-mb", type=int, default=32)
    fig9.add_argument("--trials", type=int, default=1)
    fig9.add_argument("--clients", type=int, nargs="+", default=list(FIG9_CLIENTS))
    fig9.add_argument("--servers", type=int, nargs="+", default=list(FIG9_SERVERS))
    fig9.add_argument("--trace", default=None, metavar="PATH",
                      help="additionally run one traced trial at the largest "
                           "(clients, servers) point and write Chrome trace JSON here")
    add_jobs_flag(fig9)

    fig10 = sub.add_parser("fig10", help="one Fig. 10 panel, charted (log y)")
    fig10.add_argument("--impl", default="lwfs", choices=["lwfs", "lustre-fpp"])
    fig10.add_argument("--trials", type=int, default=1)
    fig10.add_argument("--clients", type=int, nargs="+", default=list(FIG9_CLIENTS))
    fig10.add_argument("--servers", type=int, nargs="+", default=list(FIG9_SERVERS))
    add_jobs_flag(fig10)

    trace = sub.add_parser(
        "trace", help="one traced checkpoint trial: phase report + timeline + JSON"
    )
    trace.add_argument("--impl", default="lwfs",
                       choices=["lwfs", "lustre-fpp", "lustre-shared"])
    trace.add_argument("--clients", type=int, default=8)
    trace.add_argument("--servers", type=int, default=4)
    trace.add_argument("--state-mb", type=int, default=8)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write Chrome trace-event JSON here (chrome://tracing)")
    trace.add_argument("--timeline-lines", type=int, default=40,
                       help="max lines of the text timeline to print (0 = skip)")

    traffic = sub.add_parser(
        "traffic", help="one open-loop multi-tenant traffic trial"
    )
    traffic.add_argument("--workload", default=None, metavar="SPEC.json",
                         help="workload spec JSON (see repro.workload; default: "
                              "the built-in diurnal mix scaled by --tenants)")
    traffic.add_argument("--tenants", type=int, default=100_000,
                         help="total tenant population for the built-in mix "
                              "(ignored with --workload)")
    traffic.add_argument("--rate", type=float, default=1500.0,
                         help="aggregate offered rate in ops/s for the "
                              "built-in mix (ignored with --workload)")
    traffic.add_argument("--horizon", type=float, default=600.0,
                         help="simulated seconds for the built-in mix "
                              "(ignored with --workload)")
    traffic.add_argument("--servers", type=int, default=8)
    traffic.add_argument("--seed", type=int, default=1)
    traffic.add_argument("--no-collapse", dest="collapse", action="store_false",
                         help="one session per tenant (the reference path)")
    traffic.add_argument("--faults", default=None, metavar="PLAN.json",
                         help="inject the faults scheduled in this JSON plan "
                              "and print the fault/recovery summary")

    metrics = sub.add_parser(
        "metrics", help="inspect a saved metrics export (series, SLO verdict)"
    )
    metrics.add_argument("export", metavar="EXPORT.json",
                         help="metrics export written by `checkpoint --metrics PATH`")
    metrics.add_argument("--rows", type=int, default=40,
                         help="max instrument rows to print (0 = all)")
    metrics.add_argument("--csv", default=None, metavar="PATH",
                         help="also dump the series in long-format CSV")
    metrics.add_argument("--dashboard", default=None, metavar="PATH",
                         help="also render a single-trial HTML dashboard")

    sub.add_parser("petaflop", help="§4 extrapolation to a petaflop machine")
    sub.add_parser("examples", help="list the runnable examples")

    figures = sub.add_parser(
        "figures", help="render every saved results/*.json sweep as ASCII charts"
    )
    figures.add_argument("--out", default=None,
                         help="also write the charts to this file")
    return parser


def _print_fault_summary(result) -> None:
    """Print the injected-fault/recovery summary of a fault-injected trial."""
    e = result.extra
    print(
        f"faults: {e['faults_injected']:.0f} injected, "
        f"{e['retries']:.0f} retries, {e['recovered_ops']:.0f} ops recovered, "
        f"{e['rpc_dropped']:.0f} dropped, {e['rpc_duplicated']:.0f} duplicated, "
        f"{e['ckpt_restarts']:.0f} checkpoint restarts; "
        f"degraded {e['degraded_seconds']:.3f} s @ "
        f"{e['goodput_degraded']:.1f} MiB/s goodput"
    )
    for entry in result.fault_log:
        detail = {k: v for k, v in entry.items()
                  if k not in ("t", "kind", "target", "action")}
        extras = (" " + " ".join(f"{k}={v}" for k, v in detail.items())) if detail else ""
        print(f"  t={entry['t']:.4f} {entry['kind']:13s} {entry['action']:8s} "
              f"{entry['target']}{extras}")


def _export_trace(result, path: str) -> None:
    """Write a traced trial's Chrome JSON and print the phase report."""
    from .trace import PhaseReport, summarize, write_chrome_trace

    meta = {
        "impl": result.impl,
        "n_clients": result.n_clients,
        "n_servers": result.n_servers,
        "state_bytes": result.state_bytes,
        **{k: v for k, v in result.extra.items()},
    }
    write_chrome_trace(result.trace, path, meta=meta)
    info = summarize(result.trace)
    print(f"\ntrace: {info['spans']} spans -> {path} (open in chrome://tracing)")
    print(PhaseReport.from_trace(result.trace).format())


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        parser.error(str(exc))


def _run(args: argparse.Namespace) -> int:
    if args.command == "table1":
        from .machine import table1_rows

        print(format_rows("Table 1 — Compute and I/O nodes (paper vs model)", table1_rows()))

    elif args.command == "table2":
        # Reuse the benchmark's measurement routine without pytest.
        import importlib.util
        import os

        bench_dir = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
        spec = importlib.util.spec_from_file_location(
            "bench_table2", os.path.join(bench_dir, "bench_table2_redstorm.py")
        )
        module = importlib.util.module_from_spec(spec)
        sys.path.insert(0, bench_dir)
        try:
            spec.loader.exec_module(module)
            rows = module._measure()
        finally:
            sys.path.remove(bench_dir)
        print(format_rows("Table 2 — Red Storm performance (paper vs measured)", rows))

    elif args.command == "checkpoint":
        options = RunOptions(
            trace=args.trace is not None,
            collapse=args.collapse,
            flow=args.flow,
            faults=args.faults,
            tiers=args.tiers,
            metrics=args.metrics is not None,
            metrics_period=args.metrics_period,
        )
        result = run_checkpoint_trial(
            args.impl, args.clients, args.servers,
            state_bytes=args.state_mb * MiB, seed=args.seed, options=options,
        )
        collapsed = ""
        if args.collapse:
            collapsed = (
                f" [{result.extra['ranks_simulated']:.0f} representatives, "
                f"max class {result.extra['max_multiplicity']:.0f}]"
            )
        print(
            f"{args.impl}: {args.clients} clients x {args.state_mb} MB over "
            f"{args.servers} servers -> {result.throughput_mb_s:.1f} MB/s "
            f"(max rank time {result.max_elapsed:.3f} s, "
            f"create phase {result.create_max_elapsed * 1e3:.2f} ms)"
            + collapsed
        )
        if "buffer_nodes" in result.extra:
            e = result.extra
            regime = "drain-limited" if e["buffer_drain_limited"] else "absorb-limited"
            print(
                f"buffer tier: {e['buffer_nodes']:.0f} nodes absorbed "
                f"{e['buffer_absorbed_mb']:.0f} MB ({regime}), drained "
                f"{e['buffer_drained_mb']:.0f} MB at "
                f"{e['buffer_drain_goodput_mb_s']:.1f} MB/s "
                f"(tail {e['buffer_drain_tail_s']:.3f} s after the dump, "
                f"backpressure {e['buffer_backpressure_s']:.3f} s, "
                f"lost {e['buffer_lost_mb']:.0f} MB)"
            )
        if result.fault_log is not None:
            _print_fault_summary(result)
        if args.metrics is not None and result.metrics is not None:
            from .metrics import format_metrics, write_json

            print()
            print(format_metrics(result.metrics))
            if args.metrics != "-":
                write_json(result.metrics, args.metrics)
                print(f"(wrote {args.metrics})")
        if args.trace is not None:
            _export_trace(result, args.trace)

    elif args.command == "create":
        result = run_create_trial(
            args.impl, args.clients, args.servers,
            creates_per_client=args.per_client, seed=args.seed,
            options=RunOptions(collapse=args.collapse),
        )
        collapsed = ""
        if args.collapse:
            collapsed = f" [{result.extra['ranks_simulated']:.0f} representatives]"
        print(
            f"{args.impl}: {args.clients} clients x {args.per_client} creates over "
            f"{args.servers} servers -> {result.extra['creates_per_s']:.0f} creates/s"
            + collapsed
        )

    elif args.command == "fig9":
        points = fig9_panel(
            args.impl,
            clients=tuple(args.clients),
            servers=tuple(args.servers),
            state_bytes=args.state_mb * MiB,
            trials=args.trials,
            jobs=args.jobs,
            cache=False if args.no_cache else None,
        )
        print(format_series_table(f"Figure 9 — {args.impl} checkpoint throughput", points))
        print()
        print(chart_sweep(points, f"Figure 9 ({args.impl})"))
        if args.trace is not None:
            result = run_checkpoint_trial(
                args.impl, max(args.clients), max(args.servers),
                state_bytes=args.state_mb * MiB, seed=1,
                options=RunOptions(trace=True),
            )
            _export_trace(result, args.trace)

    elif args.command == "fig10":
        points = fig10_panel(
            args.impl,
            clients=tuple(args.clients),
            servers=tuple(args.servers),
            trials=args.trials,
            jobs=args.jobs,
            cache=False if args.no_cache else None,
        )
        print(format_series_table(f"Figure 10 — {args.impl} creation throughput", points))
        print()
        print(chart_sweep(points, f"Figure 10 ({args.impl})", log_y=True))

    elif args.command == "trace":
        from .trace import format_timeline

        result = run_checkpoint_trial(
            args.impl, args.clients, args.servers,
            state_bytes=args.state_mb * MiB, seed=args.seed,
            options=RunOptions(trace=True),
        )
        print(
            f"{args.impl}: {args.clients} clients x {args.state_mb} MB over "
            f"{args.servers} servers -> {result.throughput_mb_s:.1f} MB/s"
        )
        if args.out is not None:
            _export_trace(result, args.out)
        else:
            from .trace import PhaseReport, summarize

            info = summarize(result.trace)
            print(f"\ntrace: {info['spans']} spans (use --out to write Chrome JSON)")
            print(PhaseReport.from_trace(result.trace).format())
        if args.timeline_lines > 0:
            print()
            print(format_timeline(result.trace, max_lines=args.timeline_lines))

    elif args.command == "traffic":
        from .workload import diurnal_mixed, run_workload_trial

        if args.workload is not None:
            workload = args.workload  # JSON path; the engine loads it
        else:
            workload = diurnal_mixed(
                tenants=args.tenants, rate=args.rate, horizon=args.horizon,
            )
        options = RunOptions(tenant_collapse=args.collapse, faults=args.faults)
        result = run_workload_trial(
            workload=workload, n_servers=args.servers, seed=args.seed,
            options=options,
        )
        e = result.extra
        print(
            f"{result.n_clients:,d} tenants over {args.servers} servers -> "
            f"{e['ops_per_s']:.1f} ops/s, {result.throughput_mb_s:.1f} MiB/s "
            f"goodput [{e['sessions_simulated']:.0f} sessions, "
            f"max class multiplicity {e['max_class_multiplicity']:,.0f}]"
        )
        classes = sorted({k.split(".")[1] for k in e if k.startswith("wl.")})
        print(f"  {'class':<20s} {'ops':>10s} {'goodput':>12s} "
              f"{'p50':>10s} {'p99':>10s}")
        for name in classes:
            print(
                f"  {name:<20s} {e[f'wl.{name}.ops']:>10,.0f} "
                f"{e[f'wl.{name}.goodput_mb_s']:>8.1f} MB/s "
                f"{e[f'wl.{name}.latency_p50'] * 1e3:>7.2f} ms "
                f"{e[f'wl.{name}.latency_p99'] * 1e3:>7.2f} ms"
            )
        if result.fault_log is not None:
            _print_fault_summary(result)

    elif args.command == "metrics":
        import json

        from .metrics import format_metrics, validate_metrics_doc, write_csv

        with open(args.export, encoding="utf-8") as fh:
            doc = json.load(fh)
        errors = validate_metrics_doc(doc)
        if errors:
            for err in errors:
                print(f"invalid metrics document: {err}", file=sys.stderr)
            return 1
        print(format_metrics(doc, max_rows=args.rows or len(doc["instruments"])))
        if args.csv:
            write_csv(doc, args.csv)
            print(f"(wrote {args.csv})")
        if args.dashboard:
            from .bench.dashboard import write_dashboard

            write_dashboard(args.dashboard, [(args.export, doc)])
            print(f"(wrote {args.dashboard})")

    elif args.command == "petaflop":
        summary = petaflop_extrapolation().summary()
        rows = [{"quantity": k, "value": v} for k, v in summary.items()]
        print(format_rows("§4 — petaflop extrapolation", rows))
        print(
            f"\ncreating files through a centralized MDS costs "
            f"{summary['pfs_create_time_s'] / 60:.1f} minutes — "
            f"{summary['pfs_create_fraction']:.0%} of the checkpoint; "
            f"distributed LWFS creates take {summary['lwfs_create_time_s']:.2f} s."
        )

    elif args.command == "figures":
        import json
        import os

        from .bench.harness import SweepPoint
        from .bench.report import results_dir

        charts = []
        titles = {
            "fig9a_lustre_fpp": ("Fig 9a — Lustre, one file per process", False),
            "fig9b_lustre_shared": ("Fig 9b — Lustre, one shared file", False),
            "fig9c_lwfs": ("Fig 9c — LWFS, one object per process", False),
            "fig10b_lustre_create": ("Fig 10b — Lustre file creation", True),
            "fig10c_lwfs_create": ("Fig 10c — LWFS object creation", True),
        }
        for name, (title, log_y) in titles.items():
            path = os.path.join(results_dir(), f"{name}.json")
            if not os.path.exists(path):
                continue
            with open(path) as fh:
                raw = json.load(fh)
            points = [SweepPoint(**{k: p[k] for k in
                                    ("impl", "n_clients", "n_servers", "mean", "stdev",
                                     "unit", "trials")}) for p in raw]
            charts.append(chart_sweep(points, title, log_y=log_y))
        if not charts:
            print("no sweep results found — run `pytest benchmarks/ --benchmark-only` first")
            return 1
        output = "\n\n".join(charts)
        print(output)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(output + "\n")
            print(f"\n(wrote {args.out})")

    elif args.command == "examples":
        import os

        examples = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
        print("runnable examples (python examples/<name>):")
        for name in sorted(os.listdir(examples)):
            if name.endswith(".py"):
                with open(os.path.join(examples, name)) as fh:
                    fh.readline()
                    summary = fh.readline().strip().strip('"')
                print(f"  {name:30s} {summary}")

    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
