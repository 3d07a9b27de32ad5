"""Closed-form models backing the paper's extrapolations.

§4 closes with: "if we make conservative approximations to scale the
results from our development cluster to a theoretical petaflop system with
100,000 compute nodes and 2000 I/O nodes, creating the files will require
multiple minutes to complete — roughly 10% of the total time for the
checkpoint operation."  :func:`petaflop_extrapolation` reproduces that
estimate from the same measured inputs (per-create MDS service time,
per-server bandwidth) the paper had.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import MiB

__all__ = ["CheckpointModel", "analytic_horizon", "petaflop_extrapolation"]


@dataclass(frozen=True)
class CheckpointModel:
    """Analytic checkpoint-time model for an n-client, m-server machine."""

    n_clients: int
    n_servers: int
    state_bytes: int
    server_bandwidth: float  # bytes/s per storage server
    mds_create_time: float  # seconds per create at the centralized MDS
    distributed_create_time: float  # seconds per create at a storage server

    # -- dump phase ----------------------------------------------------------
    def dump_time(self) -> float:
        """Bulk-dump time: total bytes through the aggregate bandwidth."""
        total = self.n_clients * self.state_bytes
        return total / (self.n_servers * self.server_bandwidth)

    # -- create phase -------------------------------------------------------------
    def centralized_create_time(self) -> float:
        """All creates serialized at one metadata server (traditional PFS)."""
        return self.n_clients * self.mds_create_time

    def distributed_create_time_total(self) -> float:
        """Creates spread over m storage servers (LWFS)."""
        per_server = -(-self.n_clients // self.n_servers)  # ceil division
        return per_server * self.distributed_create_time

    # -- summary ----------------------------------------------------------------------
    def summary(self) -> dict:
        dump = self.dump_time()
        central = self.centralized_create_time()
        distributed = self.distributed_create_time_total()
        return {
            "n_clients": self.n_clients,
            "n_servers": self.n_servers,
            "dump_time_s": dump,
            "pfs_create_time_s": central,
            "pfs_create_fraction": central / (central + dump),
            "lwfs_create_time_s": distributed,
            "lwfs_create_fraction": distributed / (distributed + dump),
            "create_speedup": central / distributed if distributed > 0 else float("inf"),
        }


def analytic_horizon(
    kind: str,
    impl: str,
    n_clients: int,
    n_servers: int,
    spec,
    config,
    state_bytes: int,
    creates_per_client: int = 1,
) -> float:
    """Model-predicted makespan of one trial, in simulated seconds.

    Purely analytic — a function of the spec/config inputs, never of a
    measured run — so every consumer that needs a deterministic schedule
    derives it from here and lands on identical values across processes:
    the metrics sampler's default period (divide by its sample target).

    *spec* is a :class:`~repro.machine.spec.MachineSpec`, *config* a
    :class:`~repro.sim.config.SimConfig`; both are duck-typed to keep
    this module import-light.
    """
    storage = spec.io_spec.storage
    bandwidth = storage.bandwidth if storage is not None else 400 * MiB
    model = CheckpointModel(
        n_clients=max(1, n_clients),
        n_servers=max(1, n_servers),
        state_bytes=max(1, state_bytes),
        server_bandwidth=bandwidth,
        mds_create_time=config.pfs.mds_create_cpu + config.pfs.mds_journal,
        distributed_create_time=config.lwfs.create_obj_cpu
        + (storage.meta_op_time if storage is not None else 150e-6),
    )
    if kind == "checkpoint":
        return model.dump_time()
    if impl.startswith("lustre"):
        return model.centralized_create_time() * max(1, creates_per_client)
    return model.distributed_create_time_total() * max(1, creates_per_client)


def petaflop_extrapolation(
    state_bytes: int = 10 * 1024 * MiB,
    mds_create_time: float = 1.25e-3,
    distributed_create_time: float = 0.25e-3,
    server_bandwidth: float = 500 * MiB,
) -> CheckpointModel:
    """The paper's 100k-compute / 2k-I/O-node thought experiment.

    Per-create costs are the dev-cluster-measured values (Fig. 10); the
    per-node state is sized as a memory-scale dump for a petaflop-class
    node (the paper's "conservative approximations").  With these inputs,
    100,000 serialized MDS creates take ~2 minutes — "multiple minutes ...
    roughly 10% of the total time for the checkpoint operation".
    """
    return CheckpointModel(
        n_clients=100_000,
        n_servers=2_000,
        state_bytes=state_bytes,
        server_bandwidth=server_bandwidth,
        mds_create_time=mds_create_time,
        distributed_create_time=distributed_create_time,
    )
