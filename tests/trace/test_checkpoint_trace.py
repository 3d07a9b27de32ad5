"""End-to-end trace shape: one traced checkpoint is one causal tree.

The acceptance criterion for the trace layer: a traced Fig. 9 trial must
export valid Chrome trace-event JSON whose span tree links client write
phase → RPC → bulk transfer → disk service for every client, and the
phase report must attribute (nearly) all phase wall-clock to a named
resource.
"""

import json
from collections import Counter

import pytest

from repro.bench import run_checkpoint_trial
from repro.sim.config import RunOptions, SimConfig
from repro.trace import (
    PhaseReport,
    chrome_trace,
    format_timeline,
    summarize,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.units import MiB

N_CLIENTS = 4
N_SERVERS = 2


def _traced(impl):
    return run_checkpoint_trial(
        impl, N_CLIENTS, N_SERVERS, state_bytes=4 * MiB, seed=5,
        options=RunOptions(trace=True),
    )


@pytest.fixture(scope="module")
def traced_trial():
    return _traced("lwfs")


def _descendant_kinds(spans, root_id):
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    kinds = set()
    stack = [root_id]
    while stack:
        for child in children.get(stack.pop(), ()):
            kinds.add(child.kind)
            stack.append(child.span_id)
    return kinds


def test_untraced_trial_has_no_trace():
    result = run_checkpoint_trial("lwfs", 2, 2, state_bytes=1 * MiB, seed=5)
    assert result.trace is None


def test_trace_captured(traced_trial):
    assert traced_trial.trace
    info = summarize(traced_trial.trace)
    assert info["spans"] == len(traced_trial.trace)
    # Every instrumented layer shows up in one checkpoint.
    assert {"phase", "rpc", "server", "bulk", "xfer", "disk", "coll",
            "verify"} <= set(info["by_kind"])


def test_write_phase_links_rpc_bulk_disk_for_every_client(traced_trial):
    spans = traced_trial.trace
    write_phases = [s for s in spans if s.kind == "phase" and s.op == "write"]
    assert len(write_phases) == N_CLIENTS
    assert {(s.attrs or {}).get("rank") for s in write_phases} == set(range(N_CLIENTS))
    for phase in write_phases:
        kinds = _descendant_kinds(spans, phase.span_id)
        # client write -> RPC -> bulk portals transfer -> disk, causally.
        assert {"rpc", "server", "bulk", "xfer", "disk"} <= kinds, (
            f"rank {(phase.attrs or {}).get('rank')} write phase reaches "
            f"only {sorted(kinds)}"
        )


def test_all_four_phases_present(traced_trial):
    ops = {s.op for s in traced_trial.trace if s.kind == "phase"}
    assert {"create", "write", "sync", "close"} <= ops


@pytest.mark.parametrize("impl", ("lwfs", "lustre-fpp", "lustre-shared"))
def test_chrome_export_is_schema_valid(impl, traced_trial, tmp_path):
    trial = traced_trial if impl == "lwfs" else _traced(impl)
    path = tmp_path / "trace.json"
    write_chrome_trace(trial.trace, str(path), meta={"impl": impl})
    doc = json.loads(path.read_text())
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"] == {"impl": impl}
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == len(trial.trace)
    # Metadata names every pid/tid used by the body events.
    named = {(e["pid"], e["tid"]) for e in doc["traceEvents"] if e["ph"] == "M"}
    assert all((e["pid"], e["tid"]) in named for e in xs)


def test_ost_buffer_waits_are_attributed_to_buffers():
    # A pool of one chunk: pulls queue for the pinned buffer, not for a
    # thread.  The OSTs share the LWFS movers, so they trace that wait as
    # ``wait:buffers`` (and not inside a ``wait:threads`` span).
    config = SimConfig(chunk_bytes=1 * MiB, buffer_pool_bytes=1 * MiB)
    trial = run_checkpoint_trial(
        "lustre-fpp", 8, 2, state_bytes=4 * MiB, seed=3, config=config,
        options=RunOptions(trace=True),
    )
    waits = Counter(
        s.name for s in trial.trace
        if s.kind == "wait" and (s.service or "").startswith("ost")
    )
    assert waits["wait:buffers"] > 0, waits


def test_validator_flags_bad_documents():
    assert validate_chrome_trace(42)
    assert validate_chrome_trace({"events": []})
    assert validate_chrome_trace([{"ph": "Z", "name": "x"}])
    assert validate_chrome_trace([{"ph": "X", "name": "x", "ts": 0}])  # no dur
    assert validate_chrome_trace([{"ph": "X", "name": "x", "ts": 0, "dur": -1}])
    assert validate_chrome_trace([]) == []


def test_phase_report_attributes_wall_clock(traced_trial):
    report = PhaseReport.from_trace(traced_trial.trace)
    assert {row.phase for row in report.rows} >= {"create", "write", "sync", "close"}
    # Acceptance: >= 95% of phase wall-clock lands on a named resource.
    assert report.attributed >= 0.95
    write_row = next(row for row in report.rows if row.phase == "write")
    assert write_row.bounded_by in ("disk-service", "disk-queue", "network")
    assert write_row.wall_s > 0
    doc = report.as_dict()
    assert doc["attributed"] >= 0.95
    assert report.format()


def test_timeline_renders(traced_trial):
    text = format_timeline(traced_trial.trace, max_lines=30)
    assert "phase:write" in text or "more spans" in text
    assert len(text.splitlines()) <= 31


def test_trace_rides_chrome_doc_without_file(traced_trial):
    doc = chrome_trace(traced_trial.trace)
    assert validate_chrome_trace(doc) == []
