"""The metadata server's functional core: inodes and the namespace.

This is the state the Lustre-like MDS manages.  In the traditional
architecture *every* create/open/lookup funnels through here — the
centralized chokepoint the paper's Figure 10 measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import FileExists, NoSuchFile, PFSError
from ..lwfs.naming import split_path
from .striping import StripeLayout

__all__ = ["Inode", "PFSNamespace", "OpenFlags"]


class OpenFlags:
    """POSIX-ish open flags (subset)."""

    RDONLY = 0x0
    WRONLY = 0x1
    RDWR = 0x2
    CREAT = 0x40
    EXCL = 0x80
    TRUNC = 0x200


@dataclass
class Inode:
    """One file's metadata: identity, layout, size."""

    ino: int
    layout: StripeLayout
    size: int = 0
    nlink: int = 1
    owner: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)


class PFSNamespace:
    """Flat-directory-tree namespace mapping paths to inodes."""

    def __init__(self) -> None:
        self._tree: Dict[str, object] = {}  # nested dicts; leaves are Inode
        self._inos = itertools.count(1)
        self.creates = 0
        self.lookups = 0

    # -- internals -----------------------------------------------------------
    def _walk_dir(self, parts: List[str], create_dirs: bool = False) -> Dict[str, object]:
        node = self._tree
        for part in parts:
            child = node.get(part)
            if child is None:
                if not create_dirs:
                    raise NoSuchFile(f"no directory {part!r}")
                child = {}
                node[part] = child
            if isinstance(child, Inode):
                raise PFSError(f"{part!r} is a file, not a directory")
            node = child
        return node

    # -- operations --------------------------------------------------------------
    def create(self, path: str, layout: StripeLayout, owner: str = "") -> Inode:
        self.creates += 1
        parts = split_path(path)
        if not parts:
            raise PFSError("cannot create the root")
        parent = self._walk_dir(parts[:-1], create_dirs=True)
        leaf = parts[-1]
        if leaf in parent:
            raise FileExists(f"{path!r} exists")
        inode = Inode(ino=next(self._inos), layout=layout, owner=owner)
        parent[leaf] = inode
        return inode

    def lookup(self, path: str) -> Inode:
        self.lookups += 1
        parts = split_path(path)
        if not parts:
            raise NoSuchFile("root is not a file")
        parent = self._walk_dir(parts[:-1])
        entry = parent.get(parts[-1])
        if entry is None:
            raise NoSuchFile(f"no file {path!r}")
        if not isinstance(entry, Inode):
            raise PFSError(f"{path!r} is a directory")
        return entry

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except (NoSuchFile, PFSError):
            return False

    def unlink(self, path: str) -> Inode:
        parts = split_path(path)
        parent = self._walk_dir(parts[:-1])
        entry = parent.get(parts[-1])
        if entry is None:
            raise NoSuchFile(f"no file {path!r}")
        if not isinstance(entry, Inode):
            raise PFSError(f"{path!r} is a directory")
        del parent[parts[-1]]
        return entry

    def list_dir(self, path: str) -> List[str]:
        parts = split_path(path)
        node = self._walk_dir(parts)
        return sorted(node)

    def update_size(self, inode: Inode, end_offset: int) -> None:
        if end_offset > inode.size:
            inode.size = end_offset
