"""Trace exporters: Chrome trace-event JSON, text timeline, summaries.

The JSON exporter emits the Chrome trace-event format (the ``{"traceEvents":
[...]}`` object form) consumable by ``chrome://tracing``, Perfetto's legacy
importer, and Catapult.  Simulated seconds become microseconds (the format's
native unit); each simulated node becomes a ``pid`` and each service/kind
lane on that node becomes a ``tid``, named via ``"M"`` metadata events.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "format_timeline",
    "summarize",
]

#: Chrome trace-event phase codes this exporter emits / the validator allows.
_KNOWN_PHASES = set("BEXIiCbenSTpFsfPMO()")


def _spans_of(trace: Any) -> Sequence[Span]:
    return trace.spans if isinstance(trace, Tracer) else trace


def chrome_trace(trace: Any, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Render a tracer (or span list) as a Chrome trace-event document."""
    spans = _spans_of(trace)
    events: List[Dict[str, Any]] = []
    # (pid, lane-name) -> tid; lanes group spans by service (else kind).
    tids: Dict[tuple, int] = {}
    named_pids: set = set()

    body: List[Dict[str, Any]] = []
    for span in spans:
        pid = span.node if isinstance(span.node, int) else -1
        lane = span.service or span.kind
        key = (pid, lane)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            if pid not in named_pids:
                named_pids.add(pid)
                events.append({
                    "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": f"node {pid}" if pid >= 0 else "host"},
                })
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": lane},
            })
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "kind": span.kind,
        }
        if span.op is not None:
            args["op"] = span.op
        if span.attrs:
            args.update(span.attrs)
        body.append({
            "ph": "X",
            "name": span.name,
            "cat": span.kind,
            "ts": span.start * 1e6,
            "dur": span.dur * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    events.extend(body)
    doc: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if meta:
        doc["otherData"] = meta
    return doc


def write_chrome_trace(trace: Any, path: str,
                       meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Export to *path*; returns the document for further inspection."""
    doc = chrome_trace(trace, meta=meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: Any) -> List[str]:
    """Check *doc* against the Chrome trace-event schema; return errors.

    Accepts both the object form (``{"traceEvents": [...]}``) and the bare
    array form.  An empty list means the document is valid.
    """
    errors: List[str] = []
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["object form requires a 'traceEvents' array"]
    elif isinstance(doc, list):
        events = doc
    else:
        return [f"top level must be an object or array, got {type(doc).__name__}"]

    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing event name")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args must be an object")
        for field in ("pid", "tid"):
            if field in ev and not isinstance(ev[field], int):
                errors.append(f"{where}: {field} must be an integer")
        if ph == "M":
            continue  # metadata events carry no timestamps
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: ts must be a number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)):
                errors.append(f"{where}: complete event needs numeric dur")
            elif dur < 0:
                errors.append(f"{where}: negative dur {dur}")
        if len(errors) >= 20:
            errors.append("... (stopping after 20 errors)")
            break
    return errors


def _children_index(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    kids: Dict[Optional[int], List[Span]] = {}
    ids = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        kids.setdefault(parent, []).append(span)
    for siblings in kids.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return kids


def format_timeline(trace: Any, max_lines: int = 120) -> str:
    """Plain-text span tree: start, duration, name, key attrs per line."""
    spans = _spans_of(trace)
    if not spans:
        return "(empty trace)"
    kids = _children_index(spans)
    lines: List[str] = []
    truncated = [0]

    def walk(span: Span, depth: int) -> None:
        if len(lines) >= max_lines:
            truncated[0] += 1
            return
        extra = ""
        if span.attrs:
            brief = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
            extra = f"  [{brief}]"
        where = f"n{span.node}" if span.node is not None else "-"
        lines.append(
            f"{span.start * 1e3:10.3f}ms +{span.dur * 1e3:9.3f}ms "
            f"{'  ' * depth}{span.name} ({where}){extra}"
        )
        for child in kids.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in kids.get(None, ()):
        walk(root, 0)
    if truncated[0]:
        lines.append(f"... ({truncated[0]} more spans)")
    return "\n".join(lines)


def summarize(trace: Any) -> Dict[str, Any]:
    """Compact per-kind statistics, sized to live inside a recorded sweep row."""
    spans = _spans_of(trace)
    by_kind: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        row = by_kind.setdefault(span.kind, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.dur
        if span.dur > row["max_s"]:
            row["max_s"] = span.dur
    for row in by_kind.values():
        row["total_s"] = round(row["total_s"], 9)
        row["max_s"] = round(row["max_s"], 9)
    return {"spans": len(spans), "by_kind": dict(sorted(by_kind.items()))}
