"""The authorization service (paper §3.1, Figures 3-5).

Responsibilities:

* manage containers and their access-control policies (uid → OpMask),
* issue signed capabilities to authenticated, authorized users,
* verify capabilities for trusted components (storage servers) — and
  remember *who* verified *what* (back pointers) so that
* revocation can invalidate cached verify results "immediately" on every
  caching server, including **partial** revocation: revoking write access
  to a container kills write capabilities while read capabilities keep
  working (§3.1.4's chmod example).

Only this service can verify a capability's HMAC; storage servers never
see the signing secret (the paper's divergence from NASD/T10, §3.1.2).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import (
    CapabilityExpired,
    CapabilityInvalid,
    CapabilityRevoked,
    NoSuchContainer,
    PermissionDenied,
)
from .authn import AuthenticationService
from .capabilities import Capability, OpMask
from .credentials import Credential
from .ids import ContainerID, IdFactory, UserID

__all__ = ["ContainerPolicy", "AuthorizationService", "VerifiedCap", "DEFAULT_CAP_LIFETIME"]

#: Default capability lifetime (seconds).
DEFAULT_CAP_LIFETIME = 4 * 3600.0


@dataclass
class ContainerPolicy:
    """Access-control policy for one container: uid -> allowed ops."""

    cid: ContainerID
    owner: UserID
    acl: Dict[UserID, OpMask] = field(default_factory=dict)

    def allowed(self, uid: UserID) -> OpMask:
        return self.acl.get(uid, OpMask.NONE)


@dataclass(frozen=True)
class VerifiedCap:
    """The verify result a storage server may cache.

    ``expires_at`` bounds how long the cached result may be honored —
    a cache hit must not outlive the capability itself.
    """

    cid: ContainerID
    ops: OpMask
    serial: int
    expires_at: float = float("inf")


class AuthorizationService:
    """Centralized policy decisions, distributed enforcement (paper §2.4)."""

    def __init__(
        self,
        authn: AuthenticationService,
        clock: Optional[Callable[[], float]] = None,
        cap_lifetime: float = DEFAULT_CAP_LIFETIME,
        ids: Optional[IdFactory] = None,
    ) -> None:
        self.authn = authn
        self.clock = clock or authn.clock
        self.cap_lifetime = cap_lifetime
        self.ids = ids or IdFactory()
        self._secret = secrets.token_bytes(32)
        self.epoch = 1
        self._policies: Dict[ContainerID, ContainerPolicy] = {}
        #: serials revoked individually or via policy changes.
        self._revoked_serials: Set[int] = set()
        #: back pointers: (cid) -> {server_id -> set of cached serials}
        self._registrants: Dict[ContainerID, Dict[object, Set[int]]] = {}
        #: callbacks to reach caching servers: server_id -> invalidate fn.
        self._invalidators: Dict[object, Callable[[ContainerID, List[int]], None]] = {}
        #: issued capabilities by serial (for policy-diff revocation).
        self._issued: Dict[int, Capability] = {}
        self.verify_count = 0
        self.getcap_count = 0

    # -- trusted-component registration (Fig. 5 trust circle) -----------------
    def register_server(
        self, server_id: object, invalidate: Callable[[ContainerID, List[int]], None]
    ) -> None:
        """Register a storage server's cache-invalidation callback.

        In the simulated deployment the callback enqueues an RPC; in the
        functional deployment it pokes the server object directly.
        """
        self._invalidators[server_id] = invalidate

    # -- container management ----------------------------------------------------
    def create_container(self, cred: Credential, acl: Optional[Dict[UserID, OpMask]] = None) -> ContainerID:
        """Create a container owned by the credential's principal."""
        uid = self.authn.verify_cred(cred)
        cid = self.ids.container()
        policy = ContainerPolicy(cid=cid, owner=uid)
        policy.acl[uid] = OpMask.ALL
        if acl:
            policy.acl.update(acl)
        self._policies[cid] = policy
        return cid

    def remove_container(self, cred: Credential, cid: ContainerID) -> None:
        uid = self.authn.verify_cred(cred)
        policy = self._policy(cid)
        if policy.owner != uid:
            raise PermissionDenied(f"{uid} does not own {cid}")
        self.set_acl(cred, cid, {})  # revokes everything outstanding
        del self._policies[cid]

    def get_acl(self, cid: ContainerID) -> Dict[UserID, OpMask]:
        return dict(self._policy(cid).acl)

    def set_acl(self, cred: Credential, cid: ContainerID, acl: Dict[UserID, OpMask]) -> None:
        """Replace the container's ACL; the LWFS 'chmod'.

        Rights *removed* by the new policy are revoked immediately from all
        outstanding capabilities (and from every server caching them,
        §3.1.4); rights that survive keep their capabilities valid.
        """
        uid = self.authn.verify_cred(cred)
        policy = self._policy(cid)
        if policy.owner != uid:
            raise PermissionDenied(f"{uid} does not own {cid}")
        old = dict(policy.acl)
        policy.acl = dict(acl)
        policy.acl.setdefault(policy.owner, OpMask.ALL)
        # Diff: for each uid, ops present before but absent now are revoked.
        for user, before in old.items():
            after = policy.acl.get(user, OpMask.NONE)
            lost = before & ~after
            if lost:
                self.revoke(cid, lost, uid=user)

    # -- capability issue (Fig. 4a) -------------------------------------------------
    def get_caps(self, cred: Credential, cid: ContainerID, ops: OpMask) -> Capability:
        """Issue a capability for *ops* on *cid* to the credential's user."""
        uid = self.authn.verify_cred(cred)
        policy = self._policy(cid)
        allowed = policy.allowed(uid)
        if (allowed & ops) != ops:
            raise PermissionDenied(
                f"{uid} may {allowed.describe()} on {cid}, requested {ops.describe()}"
            )
        self.getcap_count += 1
        cap = Capability.issue(
            self._secret,
            cid=cid,
            ops=ops,
            uid=uid,
            epoch=self.epoch,
            expires_at=self.clock() + self.cap_lifetime,
        )
        self._issued[cap.serial] = cap
        return cap

    def get_cap_set(
        self, cred: Credential, cid: ContainerID, op_list: List[OpMask]
    ) -> List[Capability]:
        """Issue one capability per requested op-mask (e.g. separate
        read and write caps so they can be revoked independently)."""
        return [self.get_caps(cred, cid, ops) for ops in op_list]

    # -- verification (Fig. 4b step 2) ------------------------------------------------
    def verify(self, cap: Capability, server_id: object = None) -> VerifiedCap:
        """Verify *cap*; optionally record a back pointer for *server_id*.

        Storage servers call this on a cache miss and then cache the
        result; the back pointer lets :meth:`revoke` find their caches.
        """
        self.verify_count += 1
        if cap.epoch != self.epoch:
            raise CapabilityExpired(
                f"capability epoch {cap.epoch} != service epoch {self.epoch}"
            )
        if not cap.signature_ok(self._secret):
            raise CapabilityInvalid("capability signature does not verify")
        if cap.serial in self._revoked_serials:
            raise CapabilityRevoked(f"capability serial {cap.serial} was revoked")
        if self.clock() > cap.expires_at:
            raise CapabilityExpired("capability lifetime elapsed")
        if cap.cid not in self._policies:
            raise NoSuchContainer(f"{cap.cid} no longer exists")
        if server_id is not None:
            self._registrants.setdefault(cap.cid, {}).setdefault(server_id, set()).add(
                cap.serial
            )
        return VerifiedCap(
            cid=cap.cid, ops=cap.ops, serial=cap.serial, expires_at=cap.expires_at
        )

    # -- revocation (§3.1.4) ----------------------------------------------------------
    def revoke(
        self,
        cid: ContainerID,
        ops: OpMask = OpMask.ALL,
        uid: Optional[UserID] = None,
    ) -> Tuple[List[int], List[object]]:
        """Revoke outstanding capabilities on *cid* whose ops overlap *ops*.

        A capability is revoked if it grants **any** of the revoked ops
        (a write+read cap dies when write is revoked — the holder must
        re-acquire a read-only cap; issuing separate caps per op, as
        :meth:`get_cap_set` encourages, avoids that).  Returns the revoked
        serials and the servers that were notified.
        """
        victims = [
            cap.serial
            for cap in self._issued.values()
            if cap.cid == cid
            and cap.serial not in self._revoked_serials
            and (cap.ops & ops) != OpMask.NONE
            and (uid is None or cap.uid == uid)
        ]
        self._revoked_serials.update(victims)
        notified: List[object] = []
        if victims:
            for server_id, cached in list(self._registrants.get(cid, {}).items()):
                hit = [s for s in victims if s in cached]
                if hit:
                    cached.difference_update(hit)
                    invalidate = self._invalidators.get(server_id)
                    if invalidate is not None:
                        invalidate(cid, hit)
                    notified.append(server_id)
        return victims, notified

    def export_shared_key(self, server_id: object, on_rotate=None) -> bytes:
        """Hand the signing key to a storage server (NASD/T10 mode, §3.1.2).

        This is the trust expansion the paper rejects: a server holding
        the key could *mint* capabilities, and the service loses the back
        pointers revocation depends on.  Provided so the trade-off can be
        measured (see bench_ablation_verifycache and the security tests).
        ``on_rotate(new_key, new_epoch)`` is called when :meth:`restart`
        rotates the key.
        """
        self._key_holders = getattr(self, "_key_holders", {})
        self._key_holders[server_id] = on_rotate
        return self._secret

    def restart(self) -> None:
        """Bump the instance epoch: all previously-issued capabilities die
        ("limited in life to the current, issuing instance", §3.1.2).

        The signing key rotates with the epoch, and key holders (shared-key
        mode) are told — in that mode, re-keying every server is the *only*
        way to invalidate outstanding capabilities.
        """
        self.epoch += 1
        self._secret = secrets.token_bytes(32)
        self._issued.clear()
        self._revoked_serials.clear()
        self._registrants.clear()
        for on_rotate in getattr(self, "_key_holders", {}).values():
            if on_rotate is not None:
                on_rotate(self._secret, self.epoch)

    # -- internals -----------------------------------------------------------------------
    def _policy(self, cid: ContainerID) -> ContainerPolicy:
        try:
            return self._policies[cid]
        except KeyError:
            raise NoSuchContainer(f"no container {cid}") from None

    def container_exists(self, cid: ContainerID) -> bool:
        return cid in self._policies
