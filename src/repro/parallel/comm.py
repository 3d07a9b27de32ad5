"""Point-to-point messaging between application ranks.

Ranks are simulation processes pinned to compute nodes; messages ride the
simulated fabric, so a 64-rank gather really does cost what a tree of
fabric transfers costs.  This is the substrate for the MPI-flavored
collectives in :mod:`repro.parallel.collectives`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..machine.node import Node
from ..network.fabric import Fabric, Message
from ..simkernel import Environment, Store

__all__ = ["Communicator"]


class Communicator:
    """Shared mailbox fabric for one parallel application."""

    #: Wire overhead of a rank-to-rank message envelope.
    ENVELOPE_BYTES = 64

    def __init__(self, env: Environment, fabric: Fabric) -> None:
        self.env = env
        self.fabric = fabric
        self._ranks: Dict[int, Node] = {}
        # (dst_rank, src_rank, tag) -> Store of payloads
        self._mailboxes: Dict[Tuple[int, int, str], Store] = {}
        self.messages = 0

    def register(self, rank: int, node: Node) -> None:
        if rank in self._ranks:
            raise ValueError(f"rank {rank} already registered")
        self._ranks[rank] = node

    @property
    def size(self) -> int:
        return len(self._ranks)

    def _mailbox(self, dst: int, src: int, tag: str) -> Store:
        key = (dst, src, tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = Store(self.env)
            self._mailboxes[key] = box
        return box

    # -- point to point (generators) ------------------------------------------
    def send(self, src: int, dst: int, value: Any, tag: str = "", nbytes: int = 256):
        """Send *value* from rank *src* to rank *dst* (generator).

        Completes when the message is delivered into the destination's
        mailbox (rendezvous is left to the receiver's ``recv``).  The
        transfer runs inside the sending rank's process, so it dies with
        that rank.
        """
        yield from self.fabric.transfer(Message(
            src=self._ranks[src].node_id,
            dst=self._ranks[dst].node_id,
            size=nbytes + self.ENVELOPE_BYTES,
            tag=f"p2p:{tag}",
            payload=value,
        ))
        self.messages += 1
        self._mailbox(dst, src, tag).try_put(value)

    def recv(self, dst: int, src: int, tag: str = ""):
        """Receive the next message sent from *src* to *dst* (generator)."""
        value = yield self._mailbox(dst, src, tag).get()
        return value
