"""Table 2: Red Storm communication and I/O performance.

Measures the simulated Red Storm fabric and storage the way a benchmark
suite would measure the real machine — ping-pong latency (1 hop and max),
point-to-point link bandwidth, I/O-node-to-RAID bandwidth — and compares
each to the paper's published specification.
"""

from repro.bench import format_rows, save_json
from repro.machine import Mesh3D, TABLE2_PAPER, red_storm
from repro.network import Message
from repro.sim import SimCluster, SimConfig
from repro.units import GiB, MiB

from conftest import run_once


def _measure():
    spec = red_storm()
    # Build the full 10,640-node machine so the mesh diameter is real.
    cluster = SimCluster(spec, SimConfig())
    env = cluster.env
    fabric = cluster.fabric
    nodes = cluster.compute_nodes

    # Farthest-apart compute-node pair in the fitted mesh (search the
    # diameter from each of the eight-ish extremal candidates).
    topo = fabric.topology
    near_a, near_b = nodes[0].node_id, nodes[1].node_id
    candidates = [n.node_id for n in nodes]
    far_a = max(candidates, key=lambda nid: topo.hops(candidates[0], nid))
    far_b = max(candidates, key=lambda nid: topo.hops(far_a, nid))

    def ping(src, dst, nbytes):
        start = env.now
        msg = Message(src=src, dst=dst, size=nbytes, tag="ping")
        env.run(env.process(fabric.transfer(msg)))
        return env.now - start

    lat_1hop = ping(near_a, near_b, 0)
    lat_max = ping(far_a, far_b, 0)

    # Link bandwidth: one 256 MiB transfer, subtract the latency part.
    size = 256 * MiB
    elapsed = ping(near_a, near_b, size)
    link_bw = size / (elapsed - lat_1hop)

    # I/O node to RAID.
    raid = cluster.make_raid(cluster.io_nodes[0], "t2-raid")

    def disk_flow():
        yield from raid.write(512 * MiB)

    start = env.now
    env.run(env.process(disk_flow()))
    raid_bw = 512 * MiB / (env.now - start)

    # Aggregate I/O bandwidth per end (half the I/O partition per end).
    aggregate_per_end = (spec.io_nodes // 2) * spec.io_spec.storage.bandwidth

    rows = [
        {
            "metric": "MPI latency, 1 hop (us)",
            "paper": TABLE2_PAPER["mpi_latency_1hop_s"] * 1e6,
            "measured": lat_1hop * 1e6,
        },
        {
            "metric": "MPI latency, max (us)",
            "paper": TABLE2_PAPER["mpi_latency_max_s"] * 1e6,
            "measured": lat_max * 1e6,
        },
        {
            "metric": "link bandwidth (GB/s)",
            "paper": TABLE2_PAPER["link_bw_bytes"] / GiB,
            "measured": link_bw / GiB,
        },
        {
            "metric": "I/O node to RAID (MB/s)",
            "paper": TABLE2_PAPER["io_node_raid_bw_bytes"] / MiB,
            "measured": raid_bw / MiB,
        },
        {
            "metric": "aggregate I/O per end (GB/s)",
            "paper": TABLE2_PAPER["aggregate_io_bw_bytes"] / GiB,
            "measured": aggregate_per_end / GiB,
        },
    ]
    return rows


def test_table2_redstorm(benchmark):
    rows = run_once(benchmark, _measure)
    print()
    print(format_rows("Table 2 — Red Storm communication and I/O performance", rows))
    save_json("table2_redstorm", rows)
    for row in rows:
        # Measured values within 2x of spec (latencies include host
        # overheads the spec's bare numbers exclude; bandwidths are tight).
        ratio = row["measured"] / row["paper"]
        assert 0.5 <= ratio <= 2.0, row
    # Bandwidth-type rows should be tight.
    for row in rows[2:]:
        assert abs(row["measured"] / row["paper"] - 1.0) < 0.15, row
