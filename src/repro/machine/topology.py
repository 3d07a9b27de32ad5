"""Interconnect topologies: hop counts between nodes.

Only latency depends on hop count in our model (per Table 2: "MPI Latency
2.0 us 1 hop, 5.0 us max"); link bandwidth is modeled at the endpoints.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["Topology", "Crossbar", "Mesh3D", "make_topology"]


class Topology:
    """Maps a pair of node ids to a hop count."""

    def hops(self, src: int, dst: int) -> int:
        raise NotImplementedError

    def max_hops(self) -> int:
        raise NotImplementedError


class Crossbar(Topology):
    """Uniform single-hop fabric (the dev cluster's Myrinet switch)."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.n_nodes = n_nodes

    def hops(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def max_hops(self) -> int:
        return 1


class Mesh3D(Topology):
    """A 3-D mesh (Red Storm's 27x16x24-style interconnect).

    Node ids are laid out in row-major (x fastest) order.  Hop count is the
    Manhattan distance; this is what makes the "5.0 us max" latency of
    Table 2 emerge from a 2.0 us single-hop latency plus per-hop cost.
    """

    def __init__(self, dims: Tuple[int, int, int]) -> None:
        if any(d <= 0 for d in dims):
            raise ValueError(f"mesh dims must be positive, got {dims}")
        self.dims = dims

    @classmethod
    def fit(cls, n_nodes: int) -> "Mesh3D":
        """Smallest near-cubic mesh holding *n_nodes*."""
        side = max(1, round(n_nodes ** (1.0 / 3.0)))
        dims = [side, side, side]
        i = 0
        while dims[0] * dims[1] * dims[2] < n_nodes:
            dims[i % 3] += 1
            i += 1
        return cls((dims[0], dims[1], dims[2]))

    def coords(self, node_id: int) -> Tuple[int, int, int]:
        nx, ny, nz = self.dims
        if not 0 <= node_id < nx * ny * nz:
            raise ValueError(f"node id {node_id} outside mesh of {nx*ny*nz}")
        x = node_id % nx
        y = (node_id // nx) % ny
        z = node_id // (nx * ny)
        return x, y, z

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        sx, sy, sz = self.coords(src)
        dx, dy, dz = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy) + abs(sz - dz)

    def max_hops(self) -> int:
        nx, ny, nz = self.dims
        return (nx - 1) + (ny - 1) + (nz - 1)


def make_topology(name: str, n_nodes: int) -> Topology:
    """Factory used by :class:`~repro.network.fabric.Fabric`."""
    if name == "crossbar":
        return Crossbar(n_nodes)
    if name == "mesh3d":
        return Mesh3D.fit(n_nodes)
    raise ValueError(f"unknown topology {name!r}")
