"""Golden timelines: the two traced trials CI uploads, pinned by digest.

``repro trace --clients 8 --servers 4 --state-mb 8`` on LWFS and on the
Lustre shared file writes every span of one Fig. 9 trial — each RPC,
transfer, disk service and lock wait, with its simulated start and
duration.  A SHA-256 of the ``traceEvents`` pins that whole timeline,
so a change meant to cut host work (fewer kernel events per message or
per RPC) shows that it moved no simulated instant.  ``otherData``
carries the kernel's event counts and is left out: those are the work
such a change removes.
"""

import hashlib
import json

import pytest

from repro.cli import main

GOLDEN = {
    "lwfs": "04f7dcd2550584b71b5d035323cd2a574fdb2f5704dfb9d900c4beb708137f73",
    "lustre-shared": "cc50f0079b86b3c56e90f725c49a1f913d35cc0014e1e547147f83a5d037ad0d",
}


@pytest.mark.parametrize("impl", list(GOLDEN))
def test_ci_trace_timeline_is_golden(impl, tmp_path):
    out = tmp_path / "trace.json"
    argv = ["trace", "--impl", impl, "--clients", "8", "--servers", "4", "--state-mb", "8",
            "--out", str(out)]
    assert main(argv) == 0
    events = json.loads(out.read_text())["traceEvents"]
    digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN[impl]
