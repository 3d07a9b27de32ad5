"""SPMD application harness: rank processes on compute nodes.

``ParallelApp`` plays the role of the paper's "application launcher"
(Figure 3): it places ranks on compute nodes (round-robin when ranks
exceed nodes, like the paper's larger runs where "some of the compute
nodes host multiple client processes") and runs one generator per rank.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..machine.node import Node
from ..simkernel import Environment
from .collectives import barrier, bcast, gather, scatter
from .comm import Communicator

__all__ = ["RankContext", "ParallelApp"]


class RankContext:
    """Everything one rank needs: identity, node, and collectives.

    Under symmetric-client collapsing (see :class:`ParallelApp`) a context
    may stand in for a whole equivalence class of ranks: ``rank`` stays
    the representative's *original* rank (placement, offsets, and data
    seeds depend on it) while ``comm_rank`` is the dense 0..k-1 identity
    used on the communicator — the binomial-tree collectives require a
    gap-free rank space.  ``multiplicity`` is the class size; model code
    applies it as a weight at shared resources.  In an exact run the two
    ranks coincide and the multiplicity is 1.
    """

    def __init__(
        self,
        app: "ParallelApp",
        rank: int,
        node: Node,
        comm_rank: Optional[int] = None,
        multiplicity: int = 1,
    ) -> None:
        self.app = app
        self.rank = rank
        self.node = node
        self.comm_rank = rank if comm_rank is None else comm_rank
        self.multiplicity = multiplicity
        self.env: Environment = app.env
        self.comm = app.comm
        self._coll_seq = 0

    @property
    def size(self) -> int:
        """Number of rank processes actually simulated (communicator size)."""
        return len(self.app.contexts)

    @property
    def total_size(self) -> int:
        """Number of ranks *represented*, collapsed or not (the app's N)."""
        return self.app.n_ranks

    def _tag(self, kind: str) -> str:
        # SPMD discipline: every rank issues collectives in the same order,
        # so a per-rank counter yields matching tags across ranks.
        self._coll_seq += 1
        return f"{kind}:{self._coll_seq}"

    # -- point to point -------------------------------------------------------
    def send(self, dst: int, value: Any, tag: str = "msg", nbytes: int = 256):
        return self.comm.send(self.comm_rank, dst, value, tag=tag, nbytes=nbytes)

    def recv(self, src: int, tag: str = "msg"):
        return self.comm.recv(self.comm_rank, src, tag=tag)

    # -- collectives --------------------------------------------------------------
    def _maybe_traced(self, op: str, gen):
        # Wrap a collective in a "coll" span so waits on peers show up in
        # the trace; returns *gen* untouched when tracing is off.
        if self.env.tracer is None:
            return gen
        return self._traced_coll(op, gen)

    def _traced_coll(self, op: str, gen):
        tracer = self.env.tracer
        span, prev = tracer.push(
            f"coll:{op}", kind="coll", node=self.node.node_id, op=op, rank=self.rank
        )
        try:
            return (yield from gen)
        finally:
            tracer.pop(span, prev)

    def barrier(self):
        return self._maybe_traced(
            "barrier", barrier(self.comm, self.comm_rank, tag=self._tag("bar"))
        )

    def bcast(self, value: Any = None, root: int = 0, nbytes: int = 256):
        return self._maybe_traced(
            "bcast",
            bcast(self.comm, self.comm_rank, value, root=root, tag=self._tag("bc"), nbytes=nbytes),
        )

    def gather(self, value: Any, root: int = 0, nbytes: int = 256):
        return self._maybe_traced(
            "gather",
            gather(self.comm, self.comm_rank, value, root=root, tag=self._tag("ga"), nbytes=nbytes),
        )

    def scatter(self, values: Optional[List[Any]] = None, root: int = 0, nbytes: int = 256):
        return self._maybe_traced(
            "scatter",
            scatter(self.comm, self.comm_rank, values, root=root, tag=self._tag("sc"), nbytes=nbytes),
        )


class ParallelApp:
    """Launches ``n_ranks`` copies of a rank program on compute nodes.

    ``collapse`` enables symmetric-client collapsing: instead of one
    process per rank, pass a list of ``(representative_rank,
    multiplicity)`` pairs (see :func:`repro.sim.collapse.collapse_plan`)
    and only the representatives are simulated.  Each keeps its original
    rank for placement/offset/seed purposes but is registered on the
    communicator under a dense index so the binomial-tree collectives
    stay well-formed.  Multiplicities must sum to ``n_ranks`` and rank 0
    must be a representative (it drives every rooted collective).
    """

    def __init__(
        self,
        env: Environment,
        fabric,
        compute_nodes: List[Node],
        n_ranks: int,
        collapse: Optional[List[tuple]] = None,
    ) -> None:
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        if not compute_nodes:
            raise ValueError("no compute nodes to place ranks on")
        self.env = env
        self.n_ranks = n_ranks
        if collapse is None:
            plan = [(rank, 1) for rank in range(n_ranks)]
        else:
            plan = sorted(collapse)
            if not plan or plan[0][0] != 0:
                raise ValueError("collapse plan must include rank 0 as a representative")
            if sum(mult for _, mult in plan) != n_ranks:
                raise ValueError("collapse multiplicities must sum to n_ranks")
            if any(mult < 1 for _, mult in plan):
                raise ValueError("collapse multiplicities must be >= 1")
            if len({rank for rank, _ in plan}) != len(plan):
                raise ValueError("collapse plan has duplicate representatives")
        self.collapse = collapse is not None
        self.comm = Communicator(env, fabric)
        self.contexts: List[RankContext] = []
        for comm_rank, (rank, mult) in enumerate(plan):
            node = compute_nodes[rank % len(compute_nodes)]
            self.comm.register(comm_rank, node)
            self.contexts.append(
                RankContext(self, rank, node, comm_rank=comm_rank, multiplicity=mult)
            )

    def launch(self, main: Callable[[RankContext], Generator]) -> List:
        """Start ``main(ctx)`` on every rank; returns the processes."""
        return [
            self.env.process(main(ctx), name=f"rank{ctx.rank}") for ctx in self.contexts
        ]

    def run(self, main: Callable[[RankContext], Generator]) -> List[Any]:
        """Launch and run to completion; returns per-rank results."""
        procs = self.launch(main)
        self.env.run(self.env.all_of(procs))
        return [p.value for p in procs]
