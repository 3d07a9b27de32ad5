"""The authentication service and its external mechanism (paper §3.1, Fig. 3).

The LWFS authentication server does not itself check passwords — it
"interfaces with an external authentication mechanism (e.g., Kerberos) to
manage and verify identities of users".  We model that split faithfully:

* :class:`ExternalAuthMechanism` — the pluggable trusted verifier,
* :class:`MockKerberos` — a toy realization with principals and secrets,
* :class:`AuthenticationService` — issues LWFS credentials backed by the
  external mechanism's tickets, verifies them for the authorization
  service, and supports immediate revocation (application exit, compromise).

Time is injectable so the simulation can drive expiry off the simulated
clock and tests can use a manual clock.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import AuthenticationError, CredentialExpired, CredentialRevoked
from .credentials import Credential
from .ids import UserID

__all__ = ["ExternalAuthMechanism", "MockKerberos", "AuthenticationService", "DEFAULT_LIFETIME"]

#: Default credential lifetime in seconds.  Long enough that a well-behaved
#: application never renews mid-run; short enough that leaked tokens die.
DEFAULT_LIFETIME = 8 * 3600.0


class ExternalAuthMechanism:
    """Interface the authentication service trusts to identify users."""

    name = "external"

    def authenticate(self, principal: str, proof: object) -> UserID:
        """Return the principal's identity or raise AuthenticationError."""
        raise NotImplementedError


@dataclass
class _Principal:
    name: str
    secret: bytes
    enabled: bool = True


class MockKerberos(ExternalAuthMechanism):
    """A toy Kerberos: principals with shared secrets.

    ``proof`` is the password string (we assume the paper's trusted
    transport, §2.4, so cleartext on the wire is acceptable by design).
    """

    name = "kerberos"

    def __init__(self) -> None:
        self._principals: Dict[str, _Principal] = {}

    def add_principal(self, name: str, password: str) -> None:
        if name in self._principals:
            raise ValueError(f"principal {name!r} exists")
        self._principals[name] = _Principal(name=name, secret=password.encode("utf-8"))

    def disable_principal(self, name: str) -> None:
        try:
            self._principals[name].enabled = False
        except KeyError:
            raise AuthenticationError(f"unknown principal {name!r}") from None

    def authenticate(self, principal: str, proof: object) -> UserID:
        entry = self._principals.get(principal)
        if entry is None or not entry.enabled:
            raise AuthenticationError(f"unknown or disabled principal {principal!r}")
        if not isinstance(proof, str):
            raise AuthenticationError("proof must be a password string")
        if not hmac.compare_digest(entry.secret, proof.encode("utf-8")):
            raise AuthenticationError(f"bad password for {principal!r}")
        return UserID(principal)


@dataclass
class _CredRecord:
    uid: UserID
    expires_at: float
    revoked: bool = False


class AuthenticationService:
    """Issues and verifies LWFS credentials (the gray 'Authentication
    Server' box of Figure 3)."""

    def __init__(
        self,
        mechanism: ExternalAuthMechanism,
        clock: Optional[Callable[[], float]] = None,
        lifetime: float = DEFAULT_LIFETIME,
    ) -> None:
        self.mechanism = mechanism
        self.clock = clock or (lambda: 0.0)
        self.lifetime = lifetime
        self._table: Dict[bytes, _CredRecord] = {}
        self.verifies = 0

    # -- issuing -------------------------------------------------------------
    def get_cred(self, principal: str, proof: object) -> Credential:
        """Authenticate via the external mechanism and mint a credential.

        The credential is fully transferable: the application may hand it to
        every process acting on behalf of the principal (paper §3.1.2).
        """
        uid = self.mechanism.authenticate(principal, proof)
        token = Credential.fresh_token()
        expires = self.clock() + self.lifetime
        self._table[token] = _CredRecord(uid=uid, expires_at=expires)
        return Credential(token=token, uid=uid, expires_at=expires, issuer=self.mechanism.name)

    # -- verification ------------------------------------------------------------
    def verify_cred(self, cred: Credential) -> UserID:
        """Validate a credential; only this service can do so.

        Note the identity comes from *our table*, not from the credential's
        display fields — a tampered ``uid`` field changes nothing.
        """
        self.verifies += 1
        record = self._table.get(cred.token)
        if record is None:
            raise AuthenticationError("unknown credential (forged or from another instance)")
        if record.revoked:
            raise CredentialRevoked(f"credential for {record.uid} was revoked")
        if self.clock() > record.expires_at:
            raise CredentialExpired(f"credential for {record.uid} expired")
        return record.uid

    # -- revocation ----------------------------------------------------------------
    def revoke_cred(self, cred: Credential) -> None:
        """Immediate revocation (application terminated, system compromise)."""
        record = self._table.get(cred.token)
        if record is None:
            raise AuthenticationError("unknown credential")
        record.revoked = True

    def revoke_user(self, uid: UserID) -> int:
        """Revoke every outstanding credential of *uid*; returns the count."""
        n = 0
        for record in self._table.values():
            if record.uid == uid and not record.revoked:
                record.revoked = True
                n += 1
        return n
