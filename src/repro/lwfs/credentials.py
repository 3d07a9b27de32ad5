"""Credentials: proof of authentication (paper §3.1.2).

A credential is an opaque, fully-transferable token proving that some
external mechanism (Kerberos in the paper; :class:`~repro.lwfs.authn.MockKerberos`
here) authenticated a principal.  Its contents are "a random string of bits
that is sufficiently difficult to guess"; the issuing authentication
service keeps the mapping token → (identity, lifetime) and is the only
entity able to verify it.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from .ids import UserID

__all__ = ["Credential", "TOKEN_BYTES"]

#: Entropy of a credential token.  128 bits: unguessable in practice.
TOKEN_BYTES = 16


@dataclass(frozen=True)
class Credential:
    """An opaque authentication token.

    The ``uid`` and ``expires_at`` fields ride along for *display only* —
    verification always goes back to the issuing service's table, so a
    holder editing these fields gains nothing (tested in
    ``tests/lwfs/test_authn.py``).
    """

    token: bytes
    uid: UserID
    expires_at: float
    issuer: str = "authn"

    @staticmethod
    def fresh_token() -> bytes:
        return secrets.token_bytes(TOKEN_BYTES)

    def __post_init__(self) -> None:
        if len(self.token) != TOKEN_BYTES:
            raise ValueError(f"credential token must be {TOKEN_BYTES} bytes")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Credential {self.uid} token={self.token[:4].hex()}... exp={self.expires_at}>"
