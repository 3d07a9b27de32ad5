"""The checkpoint case study (paper §4, Figure 8).

Three interchangeable checkpointers, all driven from a rank program:

* :class:`LWFSCheckpointer` — the paper's Figure 8 pseudocode: acquire a
  container and capabilities **once**, scatter the capabilities
  logarithmically (Fig. 4a), then per checkpoint: each rank creates its
  own object and dumps state in parallel, rank 0 gathers per-rank
  metadata, writes a metadata object, binds a name, and two-phase-commits
  the whole thing.
* :class:`PFSCheckpointer` in ``file-per-process`` mode — each rank
  creates its own file through the centralized MDS.
* :class:`PFSCheckpointer` in ``shared`` mode — one file striped across
  all OSTs; ranks write disjoint regions and pay the lock ping-pong.

Every checkpointer returns a :class:`CheckpointResult` whose ``elapsed``
is this rank's open+write+sync+close time — the quantity Figures 9 and 10
plot (the application reports the max over ranks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional

from ..lwfs.capabilities import OpMask
from ..lwfs.ids import ObjectID
from ..parallel.app import RankContext
from ..pfs.client import SimPFSClient
from ..pfs.file import OpenFlags
from ..sim.client import SimLWFSClient
from ..storage.data import Piece, piece_bytes, piece_len
from .api import Checkpointer
from .datamap import DistributionPolicy, RoundRobin

__all__ = ["CheckpointError", "CheckpointResult", "LWFSCheckpointer", "PFSCheckpointer"]


def _phase_begin(ctx: RankContext, name: str):
    """Open a per-rank checkpoint phase span; ``None`` when tracing is off."""
    tracer = ctx.env.tracer
    if tracer is None:
        return None
    return tracer.push(
        f"phase:{name}", kind="phase", node=ctx.node.node_id, op=name, rank=ctx.rank
    )


def _phase_end(ctx: RankContext, token) -> None:
    if token is not None:
        ctx.env.tracer.pop(*token)


class CheckpointError(RuntimeError):
    """The collective checkpoint failed (on some rank) and was rolled back.

    Raised on *every* rank, so the application can retry the checkpoint
    collectively — a failed rank must not leave its peers stuck in a
    gather (the usual MPI failure mode).
    """


@dataclass
class CheckpointResult:
    """Per-rank outcome of one checkpoint (or restart)."""

    rank: int
    elapsed: float
    create_elapsed: float = 0.0
    bytes_moved: int = 0
    path: str = ""
    oid: Optional[ObjectID] = None


# ---------------------------------------------------------------------------
# LWFS implementation (Figure 8)
# ---------------------------------------------------------------------------


class LWFSCheckpointer(Checkpointer):
    """Figure 8's MAIN()/CHECKPOINT() over the simulated LWFS."""

    def __init__(
        self,
        deployment,
        principal: str = "alice",
        password: str = "alice-password",
        placement: Optional[DistributionPolicy] = None,
        transactional: bool = True,
    ) -> None:
        self.deployment = deployment
        self.principal = principal
        self.password = password
        self.placement = placement or RoundRobin()
        self.transactional = transactional
        self.cred = None
        self.cid = None
        self.cap = None
        self._seq = 0

    def client(self, ctx: RankContext) -> SimLWFSClient:
        return self.deployment.client(ctx.node)

    def collapse_key(self, rank: int, state_bytes: int = 0):
        """Equivalence-class key for symmetric-client collapsing.

        Two non-root ranks are interchangeable iff the placement policy
        sends them to the same storage server — everything else about a
        rank's checkpoint work is identical.  Feed this to
        :func:`repro.sim.collapse.collapse_plan`.
        """
        return ("srv", self.placement.place(rank, self.deployment.n_servers))

    # -- MAIN() lines 1-3: once per application --------------------------------
    def setup(self, ctx: RankContext):
        """GETCREDS + CREATECONTAINER + GETCAPS, then the log-scatter of
        Figure 4a: only rank 0 talks to the authorization server."""
        client = self.client(ctx)
        if ctx.rank == 0:
            cred = yield from client.get_cred(self.principal, self.password)
            cid = yield from client.create_container(cred)
            cap = yield from client.get_caps(cred, cid, OpMask.ALL)
            bundle = (cred, cid, cap)
        else:
            bundle = None
        # Credentials and capabilities are fully transferable (§3.1.2), so a
        # broadcast distributes them without touching the LWFS servers.
        cap_bytes = self.deployment.cluster.config.cap_bytes
        self.cred, self.cid, self.cap = yield from ctx.bcast(bundle, nbytes=3 * cap_bytes)

    def refresh_caps(self, ctx: RankContext):
        """Re-acquire capabilities after a revocation.

        Revocation kills outstanding serials, not the container policy
        (§3.1.3): holders fail closed and must come back to the
        authorization server for a fresh capability.  Same log-scatter
        shape as :meth:`setup` — rank 0 re-requests, everyone else gets
        the new cap by broadcast.
        """
        client = self.client(ctx)
        if ctx.rank == 0:
            cap = yield from client.get_caps(self.cred, self.cid, OpMask.ALL)
        else:
            cap = None
        cap_bytes = self.deployment.cluster.config.cap_bytes
        self.cap = yield from ctx.bcast(cap, nbytes=cap_bytes)

    # -- CHECKPOINT() (Figure 8 right column) -----------------------------------
    def checkpoint(self, ctx: RankContext, state: Piece, path: Optional[str] = None):
        """One checkpoint of *state*; returns a :class:`CheckpointResult`."""
        if self.cap is None:
            raise RuntimeError("call setup() before checkpoint()")
        client = self.client(ctx)
        if path is None:
            # All ranks must agree on the checkpoint name: rank 0 numbers it.
            if ctx.rank == 0:
                self._seq += 1
            path = yield from ctx.bcast(
                f"/ckpt/{self.principal}/{self._seq}" if ctx.rank == 0 else None, nbytes=64
            )
        sid = self.placement.place(ctx.rank, self.deployment.n_servers)

        start = ctx.env.now
        # line 1: BEGINTXN — rank 0 allocates the id, broadcast to all.
        phase = _phase_begin(ctx, "create")
        txnid = None
        if self.transactional:
            if ctx.rank == 0:
                txnid = yield from client.begin_txn()
            txnid = yield from ctx.bcast(txnid, nbytes=32)

        # lines 2-3: CREATEOBJ + DUMPSTATE — every rank in parallel, on
        # its own server.  A rank-local failure (dead server, timeout) is
        # trapped and *carried into the gather* so peers never hang on a
        # collective waiting for a dead rank.
        oid = None
        error = None
        create_elapsed = 0.0
        mult = ctx.multiplicity
        try:
            if txnid is not None:
                yield from client.txn_join_storage(txnid, sid)
            create_start = ctx.env.now
            oid = yield from client.create_object(self.cap, sid, txnid=txnid, weight=mult)
            create_elapsed = ctx.env.now - create_start
        except Exception as exc:  # noqa: BLE001 - reported collectively
            error = f"{type(exc).__name__}: {exc}"
        _phase_end(ctx, phase)

        if error is None:
            phase = _phase_begin(ctx, "write")
            try:
                yield from self._write_state(ctx, client, sid, oid, state, txnid, mult)
            except Exception as exc:  # noqa: BLE001 - reported collectively
                error = f"{type(exc).__name__}: {exc}"
            _phase_end(ctx, phase)

        if error is None:
            phase = _phase_begin(ctx, "sync")
            try:
                yield from self._sync_state(ctx, client, sid, mult)
            except Exception as exc:  # noqa: BLE001 - reported collectively
                error = f"{type(exc).__name__}: {exc}"
            _phase_end(ctx, phase)

        phase = _phase_begin(ctx, "close")
        # lines 4-7: rank 0 gathers per-rank metadata.
        meta = {
            "rank": ctx.rank,
            "oid": oid.value if oid is not None else None,
            "server": sid,
            "size": piece_len(state),
            "error": error,
        }
        gathered = yield from ctx.gather(meta, root=0, nbytes=96)

        failed = False
        if ctx.rank == 0:
            failed = any(entry["error"] for entry in gathered)
            if not failed:
                try:
                    md_sid = self.placement.place(ctx.total_size, self.deployment.n_servers)
                    if txnid is not None:
                        yield from client.txn_join_storage(txnid, md_sid)
                    mdobj = yield from client.create_object(
                        self.cap, md_sid, attrs={"kind": "ckpt-meta"}, txnid=txnid
                    )
                    blob = json.dumps(gathered, separators=(",", ":")).encode()
                    yield from client.write(self.cap, mdobj, blob, txnid=txnid)
                    # line 9: CREATENAME binds the checkpoint atomically.
                    yield from client.bind(path, mdobj, txnid=txnid)
                except Exception as exc:  # noqa: BLE001
                    failed = True
                    gathered[0]["error"] = f"{type(exc).__name__}: {exc}"

            # line 11: ENDTXN — two-phase commit (or rollback) driven by
            # rank 0, across every server any rank touched.
            if txnid is not None:
                if failed:
                    # Roll back at every touched server, dead or alive:
                    # abort is idempotent server-side, and the abort driver
                    # tolerates unreachable participants.
                    participants = client._txn_participants.pop(txnid, [])
                    for entry in gathered:
                        key = (
                            self.deployment.storage_node_id(entry["server"]),
                            f"stor{entry['server']}",
                        )
                        if key not in participants:
                            participants.append(key)
                    yield from client._abort(txnid, participants)
                else:
                    # Enroll every server any rank touched (idempotent).
                    for entry in gathered:
                        yield from client.txn_join_storage(txnid, entry["server"])
                    try:
                        yield from client.end_txn(txnid)
                    except Exception as exc:  # noqa: BLE001
                        failed = True
                        gathered[0]["error"] = f"{type(exc).__name__}: {exc}"

        # Everyone learns the collective outcome (this also synchronizes).
        if ctx.rank == 0:
            rank_errors = [e["error"] for e in gathered if e["error"]]
            outcome_msg = "; ".join(rank_errors[:4]) if failed else "ok"
        else:
            outcome_msg = None
        outcome_msg = yield from ctx.bcast(outcome_msg, nbytes=64)
        yield from ctx.barrier()
        _phase_end(ctx, phase)
        if outcome_msg != "ok" or error is not None:
            raise CheckpointError(
                f"checkpoint {path!r} failed: {outcome_msg}"
                + (f" (this rank: {error})" if error else "")
            )

        return CheckpointResult(
            rank=ctx.rank,
            elapsed=ctx.env.now - start,
            create_elapsed=create_elapsed,
            bytes_moved=piece_len(state),
            path=path,
            oid=oid,
        )

    # -- tier hooks (overridden by the buffered front-ends) ---------------------
    def _write_state(self, ctx: RankContext, client, sid: int, oid, state, txnid, mult: int):
        """DUMPSTATE: move this rank's bytes into its object.

        The direct path writes straight to the storage server; the
        buffered front-ends (:mod:`repro.iolib.buffered`) override this to
        absorb into the burst-buffer tier instead.
        """
        yield from client.write(self.cap, oid, state, txnid=txnid, weight=mult)

    def _sync_state(self, ctx: RankContext, client, sid: int, mult: int):
        """Force this rank's dump durable before the commit."""
        yield from client.sync(sid, weight=mult)

    def _read_back(self, ctx: RankContext, client, oid, payload: dict,
                   read_retries: int, retry_delay: float):
        """Restart: bulk read of this rank's state (retried; overridable)."""
        attempt = 0
        while True:
            try:
                state = yield from client.read(
                    self.cap, oid, 0, payload["size"], weight=ctx.multiplicity
                )
                return state
            except Exception:
                attempt += 1
                if attempt > read_retries:
                    raise
                yield ctx.env.timeout(retry_delay)

    # -- create-only phase (Figure 10 workload) -------------------------------------
    def create_objects(self, ctx: RankContext, count: int):
        """Create *count* empty objects (the file/object-creation phase)."""
        if self.cap is None:
            raise RuntimeError("call setup() before create_objects()")
        client = self.client(ctx)
        sid = self.placement.place(ctx.rank, self.deployment.n_servers)
        start = ctx.env.now
        phase = _phase_begin(ctx, "create")
        oids = []
        for _ in range(count):
            oid = yield from client.create_object(self.cap, sid, weight=ctx.multiplicity)
            oids.append(oid)
        _phase_end(ctx, phase)
        return CheckpointResult(
            rank=ctx.rank, elapsed=ctx.env.now - start, bytes_moved=0, oid=oids[-1]
        )

    # -- restart -------------------------------------------------------------------------
    def restart(self, ctx: RankContext, path: str, read_retries: int = 0, retry_delay: float = 1.0):
        """Recover this rank's state from the named checkpoint.

        The metadata lookup is collective (rank 0 resolves and scatters);
        a rank-0 failure is scattered too, so every rank raises the same
        exception instead of peers hanging in the collective.  The bulk
        read-back is rank-local and retried up to *read_retries* times —
        a rebooting storage server becomes reachable again mid-restart.
        """
        client = self.client(ctx)
        start = ctx.env.now
        if ctx.rank == 0:
            try:
                mdobj = yield from client.lookup(path)
                attrs = yield from client.get_attrs(self.cap, mdobj)
                raw = yield from client.read(self.cap, mdobj, 0, attrs["size"])
                entries = json.loads(piece_bytes(raw).decode())
                per_rank: List[object] = [("missing", None)] * ctx.size
                for entry in entries:
                    if entry["rank"] < ctx.size:
                        per_rank[entry["rank"]] = ("ok", entry)
            except Exception as exc:  # noqa: BLE001 - scattered to all ranks
                per_rank = [("err", exc)] * ctx.size
        else:
            per_rank = None
        status, payload = yield from ctx.scatter(per_rank, root=0, nbytes=96)
        if status == "err":
            raise payload
        if status == "missing":
            raise CheckpointError(f"checkpoint {path!r} has no entry for rank {ctx.rank}")

        oid = ObjectID(payload["oid"], server_hint=payload["server"])
        state = yield from self._read_back(ctx, client, oid, payload, read_retries, retry_delay)
        return state, CheckpointResult(
            rank=ctx.rank,
            elapsed=ctx.env.now - start,
            bytes_moved=payload["size"],
            path=path,
            oid=oid,
        )


# ---------------------------------------------------------------------------
# Traditional-PFS implementations (the paper's two alternatives)
# ---------------------------------------------------------------------------


class PFSCheckpointer(Checkpointer):
    """Checkpoint via the Lustre-like baseline.

    ``mode='file-per-process'``: rank *r* creates ``<path>.rank<r>`` with a
    single stripe.  ``mode='shared'``: rank 0 creates one file striped over
    every OST; each rank writes at offset ``rank * len(state)``.
    """

    MODES = ("file-per-process", "shared")

    def __init__(self, deployment, mode: str = "file-per-process") -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.deployment = deployment
        self.mode = mode
        self._seq = 0

    def client(self, ctx: RankContext) -> SimPFSClient:
        return self.deployment.client(ctx.node)

    def collapse_key(self, rank: int, state_bytes: int = 0):
        """Equivalence-class key for symmetric-client collapsing.

        File-per-process: ranks are interchangeable iff the MDS allocator
        lands their single-stripe files on the same OST (arrival-order
        round-robin ≈ ``rank % n_osts`` for rank-ordered arrivals).
        Shared file: iff their write region starts at the same phase of
        the stripe rotation — same OST sequence, same partial-stripe
        splits (*state_bytes* is each rank's region size).
        """
        n_osts = self.deployment.n_osts
        if self.mode == "file-per-process":
            return ("ost", rank % n_osts)
        stripe = self.deployment.mds.default_stripe_size
        return ("phase", ((rank * state_bytes) // stripe) % n_osts)

    def setup(self, ctx: RankContext):
        """No security/acquisition phase: kept for interface symmetry."""
        yield from ctx.barrier()

    def checkpoint(self, ctx: RankContext, state: Piece, path: Optional[str] = None):
        client = self.client(ctx)
        if path is None:
            if ctx.rank == 0:
                self._seq += 1
            path = yield from ctx.bcast(
                f"/ckpt/pfs/{self._seq}" if ctx.rank == 0 else None, nbytes=64
            )
        nbytes = piece_len(state)
        start = ctx.env.now
        mult = ctx.multiplicity
        shared = self.mode == "shared"

        phase = _phase_begin(ctx, "create")
        if self.mode == "file-per-process":
            create_start = ctx.env.now
            # Weighted creates pin their OST: a class representative's one
            # file carries the whole class's bytes, so where it lands
            # decides the per-OST load balance.  Hinting by the collapse
            # key tiles the OSTs exactly as the class's individual files
            # did; weight-1 creates keep the arrival-order allocator.
            hint = ctx.rank % self.deployment.n_osts if mult > 1 else None
            fh = yield from client.create(
                f"{path}.rank{ctx.rank}", stripe_count=1, weight=mult, ost_hint=hint
            )
            create_elapsed = ctx.env.now - create_start
        else:
            create_start = ctx.env.now
            if ctx.rank == 0:
                fh = yield from client.create(path, stripe_count=self.deployment.n_osts)
            yield from ctx.barrier()
            if ctx.rank != 0:
                fh = yield from client.open(path, OpenFlags.WRONLY, weight=mult)
            create_elapsed = ctx.env.now - create_start
        _phase_end(ctx, phase)

        offset = 0 if self.mode == "file-per-process" else ctx.rank * nbytes
        phase = _phase_begin(ctx, "write")
        yield from client.write(fh, offset, state, weight=mult, shared=shared)
        _phase_end(ctx, phase)

        phase = _phase_begin(ctx, "sync")
        yield from client.fsync(fh, weight=mult)
        _phase_end(ctx, phase)

        phase = _phase_begin(ctx, "close")
        yield from client.close(fh, weight=mult)
        yield from ctx.barrier()
        _phase_end(ctx, phase)
        if fh.create_tail is not None:
            # The MDS finished the class's remaining creates in the
            # background; report the time the class's LAST create would
            # have completed, which is what the exact run's max measures.
            if not fh.create_tail.triggered:
                yield fh.create_tail
            create_elapsed = fh.create_tail.value - create_start
        return CheckpointResult(
            rank=ctx.rank,
            elapsed=ctx.env.now - start,
            create_elapsed=create_elapsed,
            bytes_moved=nbytes,
            path=path,
        )

    def create_objects(self, ctx: RankContext, count: int):
        """Create *count* empty files (the Figure 10 Lustre workload)."""
        client = self.client(ctx)
        self._seq += 1
        start = ctx.env.now
        phase = _phase_begin(ctx, "create")
        fh = None
        for i in range(count):
            fh = yield from client.create(
                f"/ckpt/pfs/create/{self._seq}/r{ctx.rank}.{i}", stripe_count=1,
                weight=ctx.multiplicity,
            )
            yield from client.close(fh, weight=ctx.multiplicity)
        if fh is not None and fh.create_tail is not None and not fh.create_tail.triggered:
            # The phase isn't over until the MDS drains the class's
            # deferred create units (earlier tails finished first: FIFO).
            yield fh.create_tail
        _phase_end(ctx, phase)
        return CheckpointResult(rank=ctx.rank, elapsed=ctx.env.now - start, bytes_moved=0)

    def restart(self, ctx: RankContext, path: str):
        client = self.client(ctx)
        start = ctx.env.now
        mult = ctx.multiplicity
        if self.mode == "file-per-process":
            fh = yield from client.open(f"{path}.rank{ctx.rank}", weight=mult)
            size = fh.inode.size
            state = yield from client.read(fh, 0, size, weight=mult)
            yield from client.close(fh, weight=mult)
        else:
            fh = yield from client.open(path, weight=mult)
            size = fh.inode.size // ctx.size
            state = yield from client.read(fh, ctx.rank * size, size, weight=mult)
            yield from client.close(fh, weight=mult)
        return state, CheckpointResult(
            rank=ctx.rank, elapsed=ctx.env.now - start, bytes_moved=piece_len(state), path=path
        )
