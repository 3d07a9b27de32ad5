"""The LWFS storage service: enforcement at the edge (paper §3.1-3.3).

A storage server *enforces* access-control policy but never *decides* it:
each request carries a capability; the server checks its verify-result
cache and, on a miss, asks the authorization service (Figure 4b), caching
the answer.  Revocation removes entries from these caches via the back
pointers the authorization service keeps (§3.1.4).

The service also implements transaction-scoped mutation with undo logging
so a distributed two-phase commit (:mod:`repro.lwfs.txn`) can roll a
checkpoint back atomically (§3.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional

from ..errors import (
    AuthorizationError,
    PermissionDenied,
    TransactionError,
)
from ..storage.data import Piece, piece_len
from ..storage.obd import ObjectStore
from .authz import VerifiedCap
from .capabilities import Capability, OpMask
from .ids import ContainerID, ObjectID, TxnID

__all__ = ["VerifyCache", "StorageService", "OP_REQUIREMENTS"]


#: Capability bits each storage operation requires.
OP_REQUIREMENTS: Dict[str, OpMask] = {
    "create": OpMask.CREATE,
    "remove": OpMask.REMOVE,
    "read": OpMask.READ,
    "write": OpMask.WRITE,
    "getattr": OpMask.GETATTR,
    "setattr": OpMask.SETATTR,
    "list": OpMask.LIST,
}


class VerifyCache:
    """Cache of verify results, keyed by capability serial.

    The cache is the paper's central security optimization: it gives the
    scalability of independently-verifiable capabilities without trusting
    storage servers with the signing key.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: Dict[int, VerifiedCap] = {}
        #: Per-entry tenant multiplicity: a collapsed representative's
        #: capability stands for its whole tenant block, so evicting it
        #: counts as that many real invalidations (revocation blast
        #: radius).  Entries inserted without a weight count as 1.
        self._entry_weights: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(
        self, cap: Capability, now: Optional[float] = None, weight: int = 1
    ) -> Optional[VerifiedCap]:
        """``weight`` > 1: this lookup stands for *weight* client requests
        (a batched open-loop arrival group) — hit/miss counters scale so
        the hit *rate* reflects the represented request stream."""
        if not self.enabled:
            self.misses += weight
            return None
        entry = self._entries.get(cap.serial)
        if entry is None:
            self.misses += weight
            return None
        if now is not None and now > entry.expires_at:
            # The cached verify result must not outlive the capability.
            del self._entries[cap.serial]
            self._entry_weights.pop(cap.serial, None)
            self.misses += weight
            return None
        self.hits += weight
        return entry

    def insert(self, verified: VerifiedCap, weight: int = 1) -> None:
        if self.enabled:
            self._entries[verified.serial] = verified
            if weight != 1:
                self._entry_weights[verified.serial] = weight

    def invalidate(self, serials: List[int]) -> int:
        removed = 0
        for serial in serials:
            if self._entries.pop(serial, None) is not None:
                removed += self._entry_weights.pop(serial, 1)
        self.invalidations += removed
        return removed

    @property
    def hit_rate(self) -> float:
        """Hit ratio over all lookups (0.0 when the cache saw none)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class _UndoRecord:
    kind: str  # "create" | "write" | "remove" | "setattr" | "truncate"
    oid: Hashable
    data: Any = None


@dataclass
class _TxnState:
    txnid: TxnID
    undo: List[_UndoRecord] = field(default_factory=list)
    status: str = "active"  # active -> prepared -> committed | aborted


class StorageService:
    """One storage server: an object store plus policy enforcement.

    ``verifier`` resolves cache misses.  The functional deployment passes
    ``authz.verify``; the simulated deployment leaves it ``None`` and
    performs the verify RPC itself before re-entering (see
    :mod:`repro.sim.servers`).
    """

    def __init__(
        self,
        server_id: int,
        store: Optional[ObjectStore] = None,
        verifier: Optional[Callable[[Capability, object], VerifiedCap]] = None,
        cache_enabled: bool = True,
        enforce: bool = True,
        shared_secret: Optional[bytes] = None,
        epoch_hint: int = 1,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.server_id = server_id
        self.store = store or ObjectStore(name=f"obd{server_id}")
        self.verifier = verifier
        #: NASD/T10-style mode (§3.1.2): the authorization service shares
        #: its signing key, so this server verifies capabilities locally —
        #: zero verify traffic, bought by trusting the server with the key
        #: *and* losing visibility into revocations (tested explicitly).
        self.shared_secret = shared_secret
        self.epoch_hint = epoch_hint
        self.clock = clock
        self.cache = VerifyCache(enabled=cache_enabled)
        #: serials verified out-of-band by an embedding that does its own
        #: wire verification and cache lookup (the simulated server, which
        #: with caching disabled re-verifies remotely on *every* request);
        #: :meth:`authorize` answers them without a second lookup.
        self._preauthorized: set = set()
        self.enforce = enforce
        self._oid_counter = itertools.count(1)
        self._txns: Dict[TxnID, _TxnState] = {}
        self.op_count = 0

    # -- enforcement -----------------------------------------------------------
    def authorize(self, cap: Capability, needed: OpMask, cid: Optional[ContainerID] = None) -> None:
        """Raise unless *cap* validly grants *needed* on *cid*.

        Checks, in order: structural grant, container match, verify cache,
        then (on a miss) the verifier.  The sequence matches Figure 4b.
        Without a verifier, a serial the embedding already verified
        (``_preauthorized``) passes before the cache: the embedding made
        the request's one counted lookup.
        """
        if not self.enforce:
            return
        if cap is None:
            raise PermissionDenied("no capability supplied")
        if not cap.grants(needed):
            raise PermissionDenied(
                f"capability grants {cap.ops.describe()}, operation needs {needed.describe()}"
            )
        if cid is not None and cap.cid != cid:
            raise PermissionDenied(f"capability is for {cap.cid}, object lives in {cid}")
        if self.shared_secret is not None:
            self._verify_shared_key(cap)
            return
        if self.verifier is None and cap.serial in self._preauthorized:
            return
        now = self.clock() if self.clock is not None else None
        if self.cache.lookup(cap, now) is not None:
            return
        if self.verifier is None:
            raise AuthorizationError(
                f"server {self.server_id}: capability not cached and no verifier wired"
            )
        verified = self.verifier(cap, self.server_id)
        self.cache.insert(verified)

    def _verify_shared_key(self, cap: Capability) -> None:
        """Local verification with the shared signing key (NASD mode).

        Note what this *cannot* check: whether the authorization service
        revoked the capability since issue — the service never learns this
        server saw the capability, so there is no back pointer to follow.
        That is precisely the paper's argument for the caching scheme.
        """
        from ..errors import CapabilityExpired, CapabilityInvalid

        if cap.epoch != self.epoch_hint:
            raise CapabilityExpired(
                f"capability epoch {cap.epoch} != key epoch {self.epoch_hint}"
            )
        if not cap.signature_ok(self.shared_secret):
            raise CapabilityInvalid("capability signature does not verify (shared key)")
        if self.clock is not None and self.clock() > cap.expires_at:
            raise CapabilityExpired("capability lifetime elapsed")

    def invalidate_cached(self, cid: ContainerID, serials: List[int]) -> int:
        """Back-pointer callback from the authorization service (§3.1.4)."""
        self._preauthorized.difference_update(serials)
        return self.cache.invalidate(serials)

    # -- object lifecycle ----------------------------------------------------------
    def create_object(
        self,
        cap: Capability,
        oid: Optional[ObjectID] = None,
        attrs: Optional[Dict[str, Any]] = None,
        txnid: Optional[TxnID] = None,
    ) -> ObjectID:
        """Create an object in the capability's container."""
        self.authorize(cap, OpMask.CREATE)
        if oid is None:
            oid = ObjectID(
                value=self.server_id * 1_000_000_000 + next(self._oid_counter),
                server_hint=self.server_id,
            )
        cid = cap.cid if cap is not None else ContainerID(0)
        self.store.create(oid, cid, attrs)
        self._record_undo(txnid, _UndoRecord(kind="create", oid=oid))
        self.op_count += 1
        return oid

    def remove_object(self, cap: Capability, oid: ObjectID, txnid: Optional[TxnID] = None) -> None:
        cid = self.store.container_of(oid)
        self.authorize(cap, OpMask.REMOVE, cid)
        obj = self.store._get(oid)
        snapshot = (obj.cid, obj.extents, dict(obj.attrs))
        self.store.remove(oid)
        self._record_undo(txnid, _UndoRecord(kind="remove", oid=oid, data=snapshot))
        self.op_count += 1

    # -- data ---------------------------------------------------------------------------
    def write(
        self,
        cap: Capability,
        oid: ObjectID,
        offset: int,
        data: Piece,
        txnid: Optional[TxnID] = None,
    ) -> int:
        cid = self.store.container_of(oid)
        self.authorize(cap, OpMask.WRITE, cid)
        if txnid is not None and not self._created_in_txn(txnid, oid):
            pre_image = self.store.read(oid, offset, piece_len(data))
            pre_size = self.store._get(oid).size
            self._record_undo(
                txnid,
                _UndoRecord(kind="write", oid=oid, data=(offset, pre_image, pre_size)),
            )
        self.op_count += 1
        return self.store.write(oid, offset, data)

    def read(self, cap: Capability, oid: ObjectID, offset: int, length: int) -> Piece:
        cid = self.store.container_of(oid)
        self.authorize(cap, OpMask.READ, cid)
        self.op_count += 1
        return self.store.read(oid, offset, length)

    # -- attributes -----------------------------------------------------------------------
    def get_attrs(self, cap: Capability, oid: ObjectID) -> Dict[str, Any]:
        cid = self.store.container_of(oid)
        self.authorize(cap, OpMask.GETATTR, cid)
        self.op_count += 1
        return self.store.get_attrs(oid)

    def set_attr(
        self,
        cap: Capability,
        oid: ObjectID,
        key: str,
        value: Any,
        txnid: Optional[TxnID] = None,
    ) -> None:
        cid = self.store.container_of(oid)
        self.authorize(cap, OpMask.SETATTR, cid)
        if txnid is not None and not self._created_in_txn(txnid, oid):
            old = self.store._get(oid).attrs.get(key)
            had = key in self.store._get(oid).attrs
            self._record_undo(txnid, _UndoRecord(kind="setattr", oid=oid, data=(key, old, had)))
        self.store.set_attr(oid, key, value)
        self.op_count += 1

    def list_objects(self, cap: Capability, cid: Optional[ContainerID] = None) -> List[ObjectID]:
        target_cid = cid if cid is not None else cap.cid
        self.authorize(cap, OpMask.LIST, target_cid)
        self.op_count += 1
        return self.store.list_objects(target_cid)

    # -- transactions (participant side of two-phase commit, §3.4) ----------------------
    def txn_begin(self, txnid: TxnID) -> None:
        """Join (or re-join) a distributed transaction.

        Idempotent: several client processes of one parallel application
        may all announce the same transaction to this server.
        """
        if txnid not in self._txns:
            self._txns[txnid] = _TxnState(txnid=txnid)

    def txn_joined(self, txnid: TxnID) -> bool:
        return txnid in self._txns

    def txn_prepare(self, txnid: TxnID) -> bool:
        """Phase 1: promise to commit.  Returns the vote."""
        state = self._txn(txnid)
        if state.status != "active":
            raise TransactionError(f"{txnid} is {state.status}, cannot prepare")
        state.status = "prepared"
        return True

    def txn_commit(self, txnid: TxnID) -> None:
        """Phase 2: make effects permanent; the undo log is discarded."""
        state = self._txn(txnid)
        if state.status not in ("prepared", "active"):
            raise TransactionError(f"{txnid} is {state.status}, cannot commit")
        state.status = "committed"
        del self._txns[txnid]

    def txn_abort(self, txnid: TxnID) -> None:
        """Roll back every effect recorded for *txnid*, newest first."""
        state = self._txns.get(txnid)
        if state is None:
            return  # never joined or already resolved: abort is idempotent
        for record in reversed(state.undo):
            self._apply_undo(record)
        state.status = "aborted"
        del self._txns[txnid]

    # -- internals ------------------------------------------------------------------------
    def _txn(self, txnid: TxnID) -> _TxnState:
        try:
            return self._txns[txnid]
        except KeyError:
            raise TransactionError(f"unknown {txnid} on server {self.server_id}") from None

    def _record_undo(self, txnid: Optional[TxnID], record: _UndoRecord) -> None:
        if txnid is None:
            return
        self._txn(txnid).undo.append(record)

    def _created_in_txn(self, txnid: TxnID, oid: Hashable) -> bool:
        state = self._txns.get(txnid)
        if state is None:
            raise TransactionError(f"unknown {txnid} on server {self.server_id}")
        return any(r.kind == "create" and r.oid == oid for r in state.undo)

    def _apply_undo(self, record: _UndoRecord) -> None:
        if record.kind == "create":
            if self.store.exists(record.oid):
                self.store.remove(record.oid)
        elif record.kind == "remove":
            cid, extents, attrs = record.data
            obj = self.store.create(record.oid, cid, attrs)
            obj.extents = extents
        elif record.kind == "write":
            offset, pre_image, pre_size = record.data
            if self.store.exists(record.oid):
                self.store.write(record.oid, offset, pre_image)
                self.store.truncate(record.oid, pre_size)
        elif record.kind == "setattr":
            key, old, had = record.data
            if self.store.exists(record.oid):
                obj = self.store._get(record.oid)
                if had:
                    obj.attrs[key] = old
                else:
                    obj.attrs.pop(key, None)
        else:  # pragma: no cover - defensive
            raise TransactionError(f"unknown undo record kind {record.kind!r}")
