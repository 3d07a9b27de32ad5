"""Functional (in-process) LWFS deployment and client facade.

This is the LWFS-core with every wire replaced by a direct call: the same
service objects the simulation deploys onto nodes, assembled in one
process.  Unit tests, the quickstart example, and semantic checks use this
layer; performance experiments use :mod:`repro.sim`, which adds timing
around the *same* service code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PermissionDenied
from ..storage.data import Piece
from .authn import AuthenticationService, MockKerberos
from .authz import AuthorizationService
from .capabilities import Capability, OpMask
from .credentials import Credential
from .ids import ContainerID, IdFactory, ObjectID, TxnID, UserID
from .locks import LockService
from .naming import NamingService
from .storage_svc import StorageService
from .txn import TxnCoordinator

__all__ = ["LWFSDomain", "LWFSClient"]


@dataclass
class LWFSDomain:
    """A complete in-process LWFS-core: Figure 3 without the network."""

    kerberos: MockKerberos
    authn: AuthenticationService
    authz: AuthorizationService
    servers: List[StorageService]
    naming: NamingService
    locks: LockService
    ids: IdFactory = field(default_factory=IdFactory)

    @classmethod
    def create(
        cls,
        n_servers: int = 4,
        users: Sequence[Tuple[str, str]] = (("alice", "alice-password"),),
        cache_enabled: bool = True,
        clock=None,
        verify_mode: str = "cache",
    ) -> "LWFSDomain":
        """Build a domain with *n_servers* storage servers and *users*.

        ``verify_mode="cache"`` is the LWFS scheme (verify at the issuer,
        cache the result); ``"shared-key"`` is the NASD/T10 alternative
        where every server holds the signing key (§3.1.2).
        """
        if verify_mode not in ("cache", "shared-key"):
            raise ValueError("verify_mode must be 'cache' or 'shared-key'")
        kerberos = MockKerberos()
        for name, password in users:
            kerberos.add_principal(name, password)
        authn = AuthenticationService(kerberos, clock=clock)
        ids = IdFactory()
        authz = AuthorizationService(authn, clock=clock, ids=ids)
        servers = []
        for sid in range(n_servers):
            if verify_mode == "shared-key":
                svc = StorageService(
                    server_id=sid,
                    verifier=None,
                    epoch_hint=authz.epoch,
                    clock=authz.clock,
                )

                def _rotate(key, epoch, _svc=svc):
                    _svc.shared_secret = key
                    _svc.epoch_hint = epoch

                svc.shared_secret = authz.export_shared_key(sid, on_rotate=_rotate)
            else:
                svc = StorageService(
                    server_id=sid,
                    verifier=authz.verify,
                    cache_enabled=cache_enabled,
                    clock=authz.clock,
                )
                authz.register_server(sid, svc.invalidate_cached)
            servers.append(svc)
        return cls(
            kerberos=kerberos,
            authn=authn,
            authz=authz,
            servers=servers,
            naming=NamingService(),
            locks=LockService(),
            ids=ids,
        )

    def server(self, server_id: int) -> StorageService:
        return self.servers[server_id]

    def client(self, principal: str, password: str) -> "LWFSClient":
        """Authenticate *principal* and return a client bound to it."""
        cred = self.authn.get_cred(principal, password)
        return LWFSClient(domain=self, cred=cred)


class LWFSClient:
    """Per-principal facade over the domain's services.

    Keeps a small cache of acquired capabilities keyed by container, and a
    record of which container each object it created lives in — pure
    client-side conveniences; the services never rely on them.
    """

    def __init__(self, domain: LWFSDomain, cred: Credential, auto_refresh: bool = True) -> None:
        self.domain = domain
        self.cred = cred
        self.auto_refresh = auto_refresh
        self.txns = TxnCoordinator(ids=domain.ids)
        self._caps: Dict[ContainerID, Capability] = {}
        self._object_home: Dict[ObjectID, Tuple[ContainerID, int]] = {}
        self._rr = itertools.count()

    # -- identity -------------------------------------------------------------
    @property
    def uid(self) -> UserID:
        return self.cred.uid

    # -- containers and capabilities (Fig. 4a) ---------------------------------
    def create_container(self, acl: Optional[Dict[UserID, OpMask]] = None) -> ContainerID:
        return self.domain.authz.create_container(self.cred, acl)

    def get_caps(self, cid: ContainerID, ops: OpMask = OpMask.ALL) -> Capability:
        """Acquire (and remember) a capability for *ops* on *cid*."""
        cap = self.domain.authz.get_caps(self.cred, cid, ops)
        held = self._caps.get(cid)
        if held is None or (held.ops | ops) == ops:
            self._caps[cid] = cap
        return cap

    def adopt_cap(self, cap: Capability) -> None:
        """Install a capability somebody else transferred to us (delegation)."""
        self._caps[cap.cid] = cap

    def drop_caps(self, cid: ContainerID) -> None:
        self._caps.pop(cid, None)

    def cap_for(self, cid: ContainerID, needed: OpMask) -> Capability:
        cap = self._caps.get(cid)
        if cap is None or not cap.grants(needed):
            raise PermissionDenied(
                f"client holds no capability granting {needed.describe()} on {cid}; "
                "call get_caps() or adopt_cap() first"
            )
        # Automatic refresh of expired capabilities (§5 criticizes NASD
        # for lacking this: "for operations like a checkpoint, with large
        # gaps between file accesses, the cost of re-acquiring expired
        # capabilities is still a problem").  Only capabilities *we*
        # acquired are refreshed — adopted (delegated) ones belong to
        # someone else's policy decision.
        if (
            self.auto_refresh
            and self.domain.authz.clock() > cap.expires_at
            and cap.uid == self.uid
        ):
            cap = self.get_caps(cid, cap.ops)
        return cap

    def chmod(self, cid: ContainerID, acl: Dict[UserID, OpMask]) -> None:
        """Change the container's policy (revokes what the diff removes)."""
        self.domain.authz.set_acl(self.cred, cid, acl)

    # -- object placement ----------------------------------------------------------
    def pick_server(self, server_id: Optional[int] = None) -> int:
        if server_id is not None:
            return server_id
        return next(self._rr) % len(self.domain.servers)

    def _home(self, oid: ObjectID, cap_hint: Optional[Capability]) -> Tuple[ContainerID, int]:
        home = self._object_home.get(oid)
        if home is not None:
            return home
        if oid.server_hint >= 0:
            cid = self.domain.server(oid.server_hint).store.container_of(oid)
            return cid, oid.server_hint
        if cap_hint is not None:
            for sid, svc in enumerate(self.domain.servers):
                if svc.store.exists(oid):
                    return svc.store.container_of(oid), sid
        raise KeyError(f"cannot locate object {oid}")

    # -- object operations ------------------------------------------------------------
    def create_object(
        self,
        cid: ContainerID,
        server_id: Optional[int] = None,
        attrs: Optional[Dict[str, object]] = None,
        txnid: Optional[TxnID] = None,
    ) -> ObjectID:
        cap = self.cap_for(cid, OpMask.CREATE)
        sid = self.pick_server(server_id)
        svc = self.domain.server(sid)
        if txnid is not None:
            self.txns.join(txnid, svc)
        oid = svc.create_object(cap, attrs=attrs, txnid=txnid)
        self._object_home[oid] = (cid, sid)
        return oid

    def remove_object(self, oid: ObjectID, txnid: Optional[TxnID] = None) -> None:
        cid, sid = self._home(oid, None)
        cap = self.cap_for(cid, OpMask.REMOVE)
        svc = self.domain.server(sid)
        if txnid is not None:
            self.txns.join(txnid, svc)
        svc.remove_object(cap, oid, txnid=txnid)
        self._object_home.pop(oid, None)

    def write(self, oid: ObjectID, offset: int, data: Piece, txnid: Optional[TxnID] = None) -> int:
        cid, sid = self._home(oid, None)
        cap = self.cap_for(cid, OpMask.WRITE)
        svc = self.domain.server(sid)
        if txnid is not None:
            self.txns.join(txnid, svc)
        return svc.write(cap, oid, offset, data, txnid=txnid)

    def read(self, oid: ObjectID, offset: int, length: int) -> Piece:
        cid, sid = self._home(oid, None)
        cap = self.cap_for(cid, OpMask.READ)
        return self.domain.server(sid).read(cap, oid, offset, length)

    def get_attrs(self, oid: ObjectID) -> Dict[str, object]:
        cid, sid = self._home(oid, None)
        cap = self.cap_for(cid, OpMask.GETATTR)
        return self.domain.server(sid).get_attrs(cap, oid)

    def set_attr(self, oid: ObjectID, key: str, value: object, txnid: Optional[TxnID] = None) -> None:
        cid, sid = self._home(oid, None)
        cap = self.cap_for(cid, OpMask.SETATTR)
        svc = self.domain.server(sid)
        if txnid is not None:
            self.txns.join(txnid, svc)
        svc.set_attr(cap, oid, key, value, txnid=txnid)

    def list_objects(self, cid: ContainerID) -> List[ObjectID]:
        cap = self.cap_for(cid, OpMask.LIST)
        out: List[ObjectID] = []
        for svc in self.domain.servers:
            out.extend(svc.list_objects(cap, cid))
        return sorted(out)

    # -- naming ---------------------------------------------------------------------------
    def bind(self, path: str, oid: ObjectID, txnid: Optional[TxnID] = None) -> None:
        _cid, sid = self._home(oid, None)
        if txnid is not None:
            self.txns.join(txnid, self.domain.naming)
        self.domain.naming.create_name(path, (oid, sid), txnid=txnid)

    def lookup(self, path: str) -> ObjectID:
        oid, sid = self.domain.naming.lookup(path)
        return oid

    # -- transactions ------------------------------------------------------------------------
    def begin_txn(self) -> TxnID:
        return self.txns.begin()

    def end_txn(self, txnid: TxnID) -> None:
        self.txns.end(txnid)

    def abort_txn(self, txnid: TxnID) -> None:
        self.txns.abort(txnid)
