"""Exception hierarchy for the LWFS reproduction.

The hierarchy mirrors the error classes a real LWFS deployment would
surface: security failures (authentication, authorization, revocation),
storage failures (missing objects, out-of-space), naming failures,
transaction failures, and simulated-infrastructure failures.
:func:`from_fields` loads a JSON spec into its dataclass and raises
:class:`ConfigError` for a key the spec does not define.
"""

from __future__ import annotations

from dataclasses import fields

__all__ = [
    "ReproError",
    "ConfigError",
    "from_fields",
    "SecurityError",
    "AuthenticationError",
    "CredentialExpired",
    "CredentialRevoked",
    "AuthorizationError",
    "CapabilityInvalid",
    "CapabilityExpired",
    "CapabilityRevoked",
    "PermissionDenied",
    "StorageError",
    "NoSuchObject",
    "NoSuchContainer",
    "ObjectExists",
    "OutOfSpace",
    "NamingError",
    "NameExists",
    "NoSuchName",
    "TransactionError",
    "TransactionAborted",
    "TxnAborted",
    "LockError",
    "LockConflict",
    "PFSError",
    "FileExists",
    "NoSuchFile",
    "SimulationError",
    "NodeFailure",
    "ServerCrashed",
    "NetworkError",
    "RPCTimeout",
    "LinkDown",
    "RetryExhausted",
]


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError, ValueError):
    """A run configuration that is invalid or combines unsupported options.

    Raised before anything is built, so a bad combination fails at
    construction instead of silently falling back.
    """


def from_fields(cls, doc: dict):
    """``cls(**doc)`` for the dataclass *cls*, loaded from a JSON spec.

    A key that names no field of *cls* raises :class:`ConfigError`
    naming it, so a typo cannot silently leave a field at its default.
    """
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    return cls(**doc)


# -- security -----------------------------------------------------------------
class SecurityError(ReproError):
    """Base class for authentication/authorization failures."""


class AuthenticationError(SecurityError):
    """The external mechanism rejected the identity claim."""


class CredentialExpired(AuthenticationError):
    """The credential's lifetime has elapsed."""


class CredentialRevoked(AuthenticationError):
    """The credential was explicitly revoked (e.g. application exit)."""


class AuthorizationError(SecurityError):
    """Base class for capability problems."""


class CapabilityInvalid(AuthorizationError):
    """The capability's signature does not verify (forged or corrupted)."""


class CapabilityExpired(AuthorizationError):
    """The capability outlived its issuing authorization-service epoch."""


class CapabilityRevoked(AuthorizationError):
    """The capability was revoked by a policy change."""


class PermissionDenied(AuthorizationError):
    """A valid capability does not grant the requested operation."""


# -- storage ------------------------------------------------------------------
class StorageError(ReproError):
    """Base class for storage-service failures."""


class NoSuchObject(StorageError):
    """Referenced object id does not exist on this server."""


class NoSuchContainer(StorageError):
    """Referenced container id is unknown to the authorization service."""


class ObjectExists(StorageError):
    """Attempt to create an object id that already exists."""


class OutOfSpace(StorageError):
    """The storage device has no room for the write."""


# -- naming -------------------------------------------------------------------
class NamingError(ReproError):
    """Base class for naming-service failures."""


class NameExists(NamingError):
    """The path is already bound."""


class NoSuchName(NamingError):
    """The path is not bound."""


# -- transactions -------------------------------------------------------------
class TransactionError(ReproError):
    """Base class for distributed-transaction failures."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (participant veto or failure)."""


#: Short alias used by the fault-injection layer and its docs.
TxnAborted = TransactionAborted


class LockError(ReproError):
    """Base class for lock-service failures."""


class LockConflict(LockError):
    """Non-blocking acquisition failed due to a conflicting holder."""


# -- baseline PFS ---------------------------------------------------------------
class PFSError(ReproError):
    """Base class for the Lustre-like baseline's failures."""


class FileExists(PFSError):
    """Create of an existing path without O_EXCL semantics disabled."""


class NoSuchFile(PFSError):
    """Path lookup failed."""


# -- simulation infrastructure --------------------------------------------------
class SimulationError(ReproError):
    """Base class for failures of the simulated machine itself."""


class NodeFailure(SimulationError):
    """A simulated node was killed (failure injection)."""


class ServerCrashed(SimulationError):
    """A server crashed while the operation was in flight.

    Thrown into in-flight handler processes by the fault injector so held
    resources (disk controller, NIC pipes, thread slots) unwind instead of
    completing work on a dead machine.
    """


class NetworkError(SimulationError):
    """Message could not be delivered."""


class RPCTimeout(NetworkError):
    """An RPC did not complete within its deadline."""


class LinkDown(NetworkError):
    """The fabric path between two nodes is partitioned (fault injection)."""


class RetryExhausted(NetworkError):
    """An RPC failed every attempt its retry policy allowed."""
