"""Restart from the burst-buffer tiers: the restore half of the contract.

A buffered checkpoint restarts from wherever its bytes are at that
moment.  Extents that have not drained come from the buffer node
(``BufferNode.read_back``); the drained gaps between them are read from
the storage servers through the client's pipelined bulk read
(``BufferedLWFSCheckpointer._read_range``); and a fully drained
checkpoint takes the direct path's read-back.  Every regime must return
each rank's state byte for byte, in both modes and both placements.
"""

import gc
import random

import pytest

from repro.bench.harness import _build
from repro.iolib.buffered import BufferedLWFSCheckpointer
from repro.sim.config import RunOptions
from repro.storage.buffer import TierSpec
from repro.storage.buffer.node import BufferNode
from repro.storage.data import data_equal, piece_bytes
from repro.units import MiB

N_RANKS = 4
N_SERVERS = 2
STATE = 16 * MiB

#: Restart delay after the dump -> (ranks served from the buffer, ranks
#: that also read drained gaps from the servers).  At 50 MB/s per buffer
#: node the 64 MiB dump is still fully buffered right after the dump,
#: partly drained 0.2 s later, and fully drained 0.6 s later.
REGIMES = {
    "buffered": (0.0, N_RANKS, 0),
    "partly-drained": (0.2, N_RANKS, N_RANKS),
    "drained": (0.6, 0, 0),
}


@pytest.fixture
def spies(monkeypatch):
    calls = {"read_back": 0, "read_range": 0}
    read_back, read_range = BufferNode.read_back, BufferedLWFSCheckpointer._read_range

    def counting_read_back(self, *args, **kwargs):
        calls["read_back"] += 1
        return (yield from read_back(self, *args, **kwargs))

    def counting_read_range(self, *args, **kwargs):
        calls["read_range"] += 1
        return (yield from read_range(self, *args, **kwargs))

    monkeypatch.setattr(BufferNode, "read_back", counting_read_back)
    monkeypatch.setattr(BufferedLWFSCheckpointer, "_read_range", counting_read_range)
    yield calls
    # Each trial holds a few hundred MiB of real bytes in reference
    # cycles; free them before the next one.
    gc.collect()


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("placement", ("node-local", "shared"))
@pytest.mark.parametrize("mode", ("buffer", "hostlog"))
def test_restart_round_trip(mode, placement, regime, spies):
    delay, read_backs, read_ranges = REGIMES[regime]
    tier = TierSpec(mode=mode, placement=placement, drain_bandwidth=50e6)
    _, _, checkpointer, app, _ = _build(
        "lwfs", N_RANKS, N_SERVERS, seed=5, opts=RunOptions(tiers=tier).resolved()
    )

    def main(ctx):
        yield from checkpointer.setup(ctx)
        state = random.Random(ctx.rank).randbytes(STATE)
        yield from checkpointer.checkpoint(ctx, state, path="/ckpt/restart")
        yield from ctx.barrier()
        if delay:
            yield ctx.env.timeout(delay)
        recovered, _ = yield from checkpointer.restart(ctx, "/ckpt/restart")
        return data_equal(recovered, state) and piece_bytes(recovered) == state

    assert app.run(main) == [True] * N_RANKS
    assert spies == {"read_back": read_backs, "read_range": read_ranges}
