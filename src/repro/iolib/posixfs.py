"""A POSIX-semantics file system layered on the LWFS-core.

The paper's future work (§6): "In the short term, we plan to implement
two traditional parallel file systems: one that provides POSIX semantics
and standard distribution policies, and another (like the PVFS) with
relaxed synchronization semantics that make the client responsible for
data consistency."

This module is both, as one parameterized layer over the *functional*
LWFS client:

* ``consistency="posix"`` — every read/write takes a byte-range lock from
  the lock service, giving sequential consistency between concurrent
  clients (and paying for it, exactly the cost LWFS lets you shed);
* ``consistency="relaxed"`` — no locks; the application coordinates
  (the PVFS-style mode).

Files are striped over per-server LWFS objects using the same layout math
as the baseline PFS; the namespace is the LWFS naming service.  Each open
file tracks a POSIX offset; ``O_APPEND`` appends atomically under the
file's lock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import NameExists, NamingError, NoSuchFile, PFSError
from ..lwfs.capabilities import OpMask
from ..lwfs.client import LWFSClient
from ..lwfs.ids import ContainerID, ObjectID
from ..lwfs.locks import LockMode
from ..pfs.striping import StripeLayout
from ..storage.data import Piece, concat_pieces, piece_bytes, piece_len, piece_slice
from .datamap import DistributionPolicy, RoundRobin

__all__ = ["PosixFile", "LWFSPosixFS"]


@dataclass
class PosixFile:
    """An open file: layout + objects + a POSIX cursor."""

    path: str
    layout: StripeLayout  # .osts holds storage-server ids
    objects: List[ObjectID]
    flags: str  # "r", "w", "a", "r+"
    offset: int = 0
    size: int = 0
    closed: bool = False

    def _check_open(self) -> None:
        if self.closed:
            raise PFSError(f"{self.path!r} is closed")


class LWFSPosixFS:
    """open/read/write/seek/close over LWFS objects.

    One instance per client process; several instances (over clients of
    the same domain) see one coherent namespace and — in POSIX mode —
    sequentially consistent data.
    """

    META_DIR = "/.posixfs"

    def __init__(
        self,
        client: LWFSClient,
        cid: Optional[ContainerID] = None,
        stripe_size: int = 1 << 20,
        stripe_count: int = 1,
        consistency: str = "posix",
        placement: Optional[DistributionPolicy] = None,
    ) -> None:
        if consistency not in ("posix", "relaxed"):
            raise ValueError("consistency must be 'posix' or 'relaxed'")
        self.client = client
        self.domain = client.domain
        self.stripe_size = stripe_size
        self.stripe_count = stripe_count
        self.consistency = consistency
        self.placement = placement or RoundRobin()
        if cid is None:
            cid = client.create_container()
        client.get_caps(cid, OpMask.ALL)
        self.cid = cid
        self._locked: Dict[int, object] = {}

    # -- namespace helpers ------------------------------------------------------
    def _meta_path(self, path: str) -> str:
        return f"{self.META_DIR}{path}"

    def _load_meta(self, path: str) -> dict:
        try:
            mdobj = self.client.lookup(self._meta_path(path))
        except NamingError as exc:
            raise NoSuchFile(f"no file {path!r}") from exc
        attrs = self.client.get_attrs(mdobj)
        raw = piece_bytes(self.client.read(mdobj, 0, attrs["size"]))
        meta = json.loads(raw.decode())
        meta["_mdobj"] = mdobj
        return meta

    def _store_meta(self, path: str, meta: dict, mdobj: Optional[ObjectID] = None) -> ObjectID:
        blob = json.dumps({k: v for k, v in meta.items() if not k.startswith("_")}).encode()
        if mdobj is None:
            mdobj = self.client.create_object(self.cid, attrs={"posixfs-meta": path})
            try:
                self.client.bind(self._meta_path(path), mdobj)
            except NameExists:
                self.client.remove_object(mdobj)  # lost the create race
                raise
        self.client.write(mdobj, 0, blob)
        # Trim any stale tail from a previous, longer metadata blob.
        sid = mdobj.server_hint
        self.domain.server(sid).store.truncate(mdobj, len(blob))
        return mdobj

    # -- lifecycle ----------------------------------------------------------------
    def create(self, path: str, stripe_count: Optional[int] = None) -> PosixFile:
        """creat(2): allocate objects and publish the layout."""
        count = stripe_count or self.stripe_count
        n_servers = len(self.domain.servers)
        servers = [self.placement.place(i, n_servers) for i in range(count)]
        objects = [
            self.client.create_object(self.cid, server_id=sid, attrs={"posixfs": path})
            for sid in servers
        ]
        meta = {
            "stripe_size": self.stripe_size,
            "servers": servers,
            "objects": [o.value for o in objects],
            "size": 0,
        }
        try:
            self._store_meta(path, meta)
        except NameExists:
            for oid in objects:
                self.client.remove_object(oid)
            raise
        return PosixFile(
            path=path,
            layout=StripeLayout(stripe_size=self.stripe_size, osts=tuple(servers)),
            objects=objects,
            flags="w",
        )

    def open(self, path: str, flags: str = "r") -> PosixFile:
        """open(2) for an existing file; flags in {'r', 'w', 'a', 'r+'}."""
        if flags not in ("r", "w", "a", "r+"):
            raise ValueError(f"bad flags {flags!r}")
        meta = self._load_meta(path)
        objects = [
            ObjectID(v, server_hint=s) for v, s in zip(meta["objects"], meta["servers"])
        ]
        fh = PosixFile(
            path=path,
            layout=StripeLayout(stripe_size=meta["stripe_size"], osts=tuple(meta["servers"])),
            objects=objects,
            flags=flags,
            size=meta["size"],
        )
        if flags == "a":
            fh.offset = fh.size
        return fh

    def exists(self, path: str) -> bool:
        return self.domain.naming.exists(self._meta_path(path))

    def unlink(self, path: str) -> None:
        meta = self._load_meta(path)
        for value, sid in zip(meta["objects"], meta["servers"]):
            self.client.remove_object(ObjectID(value, server_hint=sid))
        self.client.remove_object(meta["_mdobj"])
        self.domain.naming.remove_name(self._meta_path(path))

    def close(self, fh: PosixFile) -> None:
        fh._check_open()
        self._publish_size(fh)
        fh.closed = True

    # -- locking -------------------------------------------------------------------
    def _lock(self, fh: PosixFile, offset: int, length: int, mode: LockMode):
        if self.consistency != "posix":
            return None
        lock, granted = self.domain.locks.acquire(
            ("posixfs", fh.path),
            mode,
            owner=id(self),
            byte_range=(offset, offset + max(1, length)),
            wait=False,
        )
        return lock

    def _unlock(self, lock) -> None:
        if lock is not None:
            self.domain.locks.release(lock)

    # -- data -----------------------------------------------------------------------
    def pwrite(self, fh: PosixFile, offset: int, data: Piece) -> int:
        fh._check_open()
        if fh.flags == "r":
            raise PFSError(f"{fh.path!r} opened read-only")
        length = piece_len(data)
        if length == 0:
            return 0  # zero-length pwrite does not extend the file
        lock = self._lock(fh, offset, length, LockMode.EXCLUSIVE)
        try:
            for frag in fh.layout.map_extent(offset, length):
                piece = piece_slice(
                    data, frag.file_offset - offset, frag.file_offset - offset + frag.length
                )
                self.client.write(fh.objects[frag.ost_index], frag.object_offset, piece)
            if offset + length > fh.size:
                fh.size = offset + length
                self._publish_size(fh)
        finally:
            self._unlock(lock)
        return length

    def pread(self, fh: PosixFile, offset: int, length: int) -> Piece:
        fh._check_open()
        # Reads past EOF are truncated, as read(2) does.
        current_size = self._current_size(fh)
        length = max(0, min(length, current_size - offset))
        if length == 0:
            return b""
        lock = self._lock(fh, offset, length, LockMode.SHARED)
        try:
            pieces = []
            for frag in fh.layout.map_extent(offset, length):
                pieces.append(
                    self.client.read(fh.objects[frag.ost_index], frag.object_offset, frag.length)
                )
            return concat_pieces(pieces)
        finally:
            self._unlock(lock)

    def write(self, fh: PosixFile, data: Piece) -> int:
        """write(2): at the cursor; O_APPEND re-reads the size under lock."""
        if fh.flags == "a":
            lock = self._lock(fh, 0, max(1, self._current_size(fh) + piece_len(data)),
                              LockMode.EXCLUSIVE) if self.consistency == "posix" else None
            try:
                fh.offset = self._current_size(fh)
                written = self._pwrite_unlocked(fh, fh.offset, data)
            finally:
                self._unlock(lock)
        else:
            written = self.pwrite(fh, fh.offset, data)
        fh.offset += written
        return written

    def read(self, fh: PosixFile, length: int) -> Piece:
        data = self.pread(fh, fh.offset, length)
        fh.offset += piece_len(data)
        return data

    def seek(self, fh: PosixFile, offset: int, whence: int = 0) -> int:
        """lseek(2): whence 0=SET, 1=CUR, 2=END."""
        fh._check_open()
        if whence == 0:
            new = offset
        elif whence == 1:
            new = fh.offset + offset
        elif whence == 2:
            new = self._current_size(fh) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        if new < 0:
            raise ValueError("negative file offset")
        fh.offset = new
        return new

    def stat_size(self, path: str) -> int:
        return self._load_meta(path)["size"]

    # -- internals ---------------------------------------------------------------------
    def _pwrite_unlocked(self, fh: PosixFile, offset: int, data: Piece) -> int:
        length = piece_len(data)
        for frag in fh.layout.map_extent(offset, length):
            piece = piece_slice(
                data, frag.file_offset - offset, frag.file_offset - offset + frag.length
            )
            self.client.write(fh.objects[frag.ost_index], frag.object_offset, piece)
        if offset + length > fh.size:
            fh.size = offset + length
            self._publish_size(fh)
        return length

    def _current_size(self, fh: PosixFile) -> int:
        if self.consistency == "posix":
            try:
                size = self.stat_size(fh.path)
                fh.size = max(fh.size, size)
            except NoSuchFile:
                pass
        return fh.size

    def _publish_size(self, fh: PosixFile) -> None:
        try:
            meta = self._load_meta(fh.path)
        except NoSuchFile:
            return
        if fh.size > meta["size"]:
            meta["size"] = fh.size
            self._store_meta(fh.path, meta, mdobj=meta["_mdobj"])
