"""The repository benchmark: one workload, fresh processes, checked outputs.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload in fresh processes (see ``child.py``)
until ``--seconds`` are used up and reports the medians of the
end-to-end metrics: ``wall_s`` (the whole process), ``setup_s`` (process
start until the first ``Environment.run``), ``run_s`` (host time inside
simulation runs, summed over sweep workers) and ``peak_rss_mb``.
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``layers.py`` and reports the per-layer metrics.

Every run checks the simulated outputs: each trial's own checks, the
same outputs from every process of the run (traced or not), and the
figures of merit pinned for the seed in ``pins.json`` when there are
any.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("paper_sweep", "scale_restart", "tenant_traffic")

#: End-to-end metrics: name -> unit (``--trace 0``).
END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

#: Per-layer metrics: name -> unit (``--trace 1``).  Layers a workload
#: does not exercise report 0.
PER_LAYER = {
    "simkernel.self_s": "s",
    "simkernel.events": "count",
    "simkernel.events_per_s": "1/s",
    "simkernel.cancelled_skipped": "count",
    "simkernel.peak_queue": "count",
    "network.fabric.self_s": "s",
    "network.fabric.calls": "count",
    "network.portals.self_s": "s",
    "network.portals.calls": "count",
    "network.rpc.self_s": "s",
    "network.rpc.calls": "count",
    "network.rpc.retries": "count",
    "network.flow.self_s": "s",
    "network.flow.flows_opened": "count",
    "network.flow.rate_recomputes": "count",
    "network.flow.fast_forwarded": "count",
    "sim.cluster.build_s": "s",
    "sim.cluster.self_s": "s",
    "sim.servers.self_s": "s",
    "sim.servers.requests": "count",
    "sim.client.self_s": "s",
    "sim.collapse.ranks_simulated": "count",
    "sim.collapse.max_multiplicity": "count",
    "lwfs.self_s": "s",
    "lwfs.verify_cache_hit_ratio": "ratio",
    "pfs.self_s": "s",
    "pfs.mds_creates": "count",
    "storage.device.self_s": "s",
    "storage.device.ops": "count",
    "storage.buffer.self_s": "s",
    "storage.buffer.absorbs": "count",
    "storage.buffer.drained_mb": "MiB",
    "iolib.self_s": "s",
    "parallel.self_s": "s",
    "parallel.messages": "count",
    "workload.self_s": "s",
    "workload.batches": "count",
    "workload.ops_per_batch": "count",
    "metrics.self_s": "s",
    "faults.self_s": "s",
    "bench.executor.idle_s": "s",
    "bench.executor.trials": "count",
    "trace.overhead_s": "s",
    "unattributed_s": "s",
}

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = (
    "simkernel", "network.fabric", "network.portals", "network.rpc", "network.flow",
    "sim.cluster", "sim.servers", "sim.client", "lwfs", "pfs", "storage.device",
    "storage.buffer", "iolib", "parallel", "workload", "metrics", "faults",
)

#: A child process that takes longer than this is stopped and failed.
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    """The environment of a child: no ``REPRO_*`` overrides, fixed hashing."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: bool, tiny: bool) -> dict:
    """One iteration in a fresh process; its JSON line plus host timings."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    wall = time.monotonic() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"exit code {proc.returncode}: {tail}"}
    doc = json.loads(lines[-1])
    doc["wall_s"] = wall
    doc["setup_s"] = doc["first_run"] - start
    return doc


def outputs(doc: dict) -> list:
    """The simulated outputs of one iteration, for bit-for-bit comparison."""
    return [[t["name"], t["value"], t["events"], t["sim_s"]] for t in doc["trials"]]


def load_pins(workload: str, seed: int) -> dict:
    try:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        return {}
    return pins.get(workload, {}).get(str(seed), {})


def record_pins(workload: str, seed: int, doc: dict) -> None:
    """Pin this seed's figures of merit (run with ``--record-pins``)."""
    try:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {}
    pins.setdefault(workload, {})[str(seed)] = {t["name"]: t["value"] for t in doc["trials"]}
    for name in pins:
        pins[name] = dict(sorted(pins[name].items(), key=lambda kv: int(kv[0])))
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


class Verdict:
    """Counts trials attempted and failed over a run's iterations."""

    def __init__(self, pins: dict) -> None:
        self.pins = pins
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, doc: dict, label: str) -> None:
        if "error" in doc:
            expected = len(self.reference) if self.reference else 1
            self.attempted += expected
            self.failed += expected
            self.problems.append(f"{label}: {doc['error']}")
            return
        out = outputs(doc)
        if self.reference is None:
            self.reference = out
        same_names = [o[0] for o in out] == [r[0] for r in self.reference]
        for i, trial in enumerate(doc["trials"]):
            self.attempted += 1
            why = trial["error"]
            if not why and (not same_names or out[i] != self.reference[i]):
                why = f"outputs differ from the first process: {out[i]} vs {self.reference[i]}"
            pinned = self.pins.get(trial["name"])
            if not why and self.pins and pinned != trial["value"]:
                why = f"figure of merit {trial['value']!r} is not the pinned {pinned!r}"
            if why:
                self.failed += 1
                self.problems.append(f"{label}: {trial['name']}: {why}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def end_to_end(docs: list) -> dict:
    ok = [d for d in docs if "error" not in d]
    return {name: statistics.median(d[name] for d in ok) for name in END_TO_END} if ok else {}


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from one untraced and one traced iteration."""
    rep = traced["layers"]
    self_s, calls, counts = rep["self_s"], rep["calls"], rep["counts"]
    stats = traced["stats"]
    batches = counts.get("batches", 0)
    lookups = rep["verify_hits"] + rep["verify_misses"]
    values = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    values.update({
        "simkernel.events": rep["events"],
        "simkernel.events_per_s": rep["events"] / plain["run_s"],
        "simkernel.cancelled_skipped": rep["cancelled_skipped"],
        "simkernel.peak_queue": rep["peak_queue"],
        "network.fabric.calls": calls.get("network.fabric", 0),
        "network.portals.calls": calls.get("network.portals", 0),
        "network.rpc.calls": calls.get("network.rpc", 0),
        "network.rpc.retries": stats["rpc_retries"],
        "network.flow.flows_opened": counts.get("flows_opened", 0),
        "network.flow.rate_recomputes": rep["rate_recomputes"],
        "network.flow.fast_forwarded": rep["fast_forwarded"],
        "sim.cluster.build_s": rep["build_s"],
        "sim.servers.requests": counts.get("requests", 0),
        "sim.collapse.ranks_simulated": stats["ranks_simulated"],
        "sim.collapse.max_multiplicity": stats["max_multiplicity"],
        "lwfs.verify_cache_hit_ratio": rep["verify_hits"] / lookups if lookups else 0.0,
        "pfs.mds_creates": counts.get("mds_creates", 0),
        "storage.device.ops": calls.get("storage.device", 0),
        "storage.buffer.absorbs": counts.get("absorbs", 0),
        "storage.buffer.drained_mb": stats["buffer_drained_mb"],
        "parallel.messages": counts.get("messages", 0),
        "workload.batches": batches,
        "workload.ops_per_batch": counts.get("batches_weight", 0) / batches if batches else 0.0,
        "bench.executor.idle_s": plain["stats"]["executor_idle_s"],
        "bench.executor.trials": plain["stats"]["executor_trials"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        "unattributed_s": traced["run_s"] - sum(self_s.get(layer, 0.0) for layer in LAYERS),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long instances of the workloads, for tests")
    parser.add_argument("--record-pins", action="store_true",
                        help="pin this seed's figures of merit in pins.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no simulator sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Compile once up front, as an installed checkout would be; no timed
    # process should pay for byte-compiling the sources.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    pins = {} if args.tiny else load_pins(args.workload, args.seed)
    verdict = Verdict(pins)
    if args.trace:
        plain = run_child(args.workload, args.seed, False, args.tiny)
        verdict.check(plain, "untraced")
        traced = run_child(args.workload, args.seed, True, args.tiny)
        verdict.check(traced, "traced")
        values = per_layer(plain, traced) if verdict.correct else {}
        units = PER_LAYER
    else:
        docs = []
        start = time.monotonic()
        while True:
            doc = run_child(args.workload, args.seed, False, args.tiny)
            docs.append(doc)
            verdict.check(doc, f"process {len(docs)}")
            if "error" in doc:
                break
            print(f"process {len(docs)}: wall {doc['wall_s']:.3f} s, setup "
                  f"{doc['setup_s']:.3f} s, run {doc['run_s']:.3f} s, peak rss "
                  f"{doc['peak_rss_mb']:.1f} MiB")
            elapsed = time.monotonic() - start
            if elapsed + doc["wall_s"] > args.seconds:
                break
        values = end_to_end(docs)
        units = END_TO_END
        if args.record_pins and verdict.correct:
            record_pins(args.workload, args.seed, docs[0])

    for problem in verdict.problems:
        print(f"FAILED {problem}")
    error_rate = verdict.failed / max(verdict.attempted, 1)
    print(f"error_rate {error_rate:.4f} ratio ({verdict.failed} of "
          f"{verdict.attempted} trials failed)")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
