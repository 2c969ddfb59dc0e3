"""Tests for the 2D-mesh interconnect option."""

import pytest

from repro.config import Consistency, GPUConfig, NocTopology, Protocol
from repro.mem.noc import MeshNetwork
from repro.sim.engine import Engine
from repro.stats.collector import StatsCollector

from tests.conftest import random_kernel, run_and_check


def make_mesh(num_sms=4, num_banks=2, hop_latency=2, bandwidth=16):
    engine = Engine()
    stats = StatsCollector()
    mesh = MeshNetwork(engine, stats, hop_latency, bandwidth,
                       num_sms, num_banks)
    return engine, stats, mesh


# ---------------------------------------------------------------------------
# geometry and routing
# ---------------------------------------------------------------------------

def test_grid_covers_all_nodes():
    _e, _s, mesh = make_mesh(num_sms=4, num_banks=2)
    assert mesh.cols * mesh.rows >= 6
    coords = {mesh.coords(n) for n in range(6)}
    assert len(coords) == 6


def test_route_is_xy_dimension_order():
    _e, _s, mesh = make_mesh(num_sms=4, num_banks=2)
    # node 0 at (0,0); node 5 (bank 1) at (2,1) on a 3-wide grid
    path = mesh.route(("sm", 0), ("l2", 1))
    # X moves first, then Y — never interleaved
    switched = False
    for (fx, fy), (tx, ty) in path:
        if fy != ty:
            switched = True
        if switched:
            assert fx == tx, "X hop after a Y hop breaks XY routing"


def test_route_to_self_is_empty():
    _e, _s, mesh = make_mesh()
    assert mesh.route(("sm", 0), ("sm", 0)) == []


def test_route_endpoints_connect():
    _e, _s, mesh = make_mesh(num_sms=12, num_banks=4)
    for sm in range(12):
        for bank in range(4):
            path = mesh.route(("sm", sm), ("l2", bank))
            if path:
                assert path[0][0] == mesh.coords(sm)
                assert path[-1][1] == mesh.coords(12 + bank)
            # consecutive hops chain
            for first, second in zip(path, path[1:]):
                assert first[1] == second[0]


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

def test_latency_scales_with_distance():
    engine, _s, mesh = make_mesh(num_sms=12, num_banks=4, hop_latency=3,
                                 bandwidth=64)
    arrivals = {}

    def send(src, dst, tag):
        mesh.send(src, dst, 16, "ctrl",
                  lambda: arrivals.__setitem__(tag, engine.now))

    send(("sm", 0), ("sm", 1), "near")    # 1 hop
    send(("sm", 0), ("l2", 3), "far")     # several hops
    engine.run()
    assert arrivals["far"] > arrivals["near"]


def test_shared_link_contention():
    engine, _s, mesh = make_mesh(hop_latency=1, bandwidth=8)
    arrivals = []
    # two messages from the same source along the same first link
    for _ in range(2):
        mesh.send(("sm", 0), ("sm", 1), 32, "data",
                  lambda: arrivals.append(engine.now))
    engine.run()
    assert arrivals[1] - arrivals[0] >= 32 // 8  # serialized


def test_disjoint_paths_do_not_contend():
    engine, _s, mesh = make_mesh(num_sms=4, num_banks=2, hop_latency=1,
                                 bandwidth=8)
    arrivals = []
    mesh.send(("sm", 0), ("sm", 1), 32, "data",
              lambda: arrivals.append(engine.now))
    mesh.send(("sm", 2), ("l2", 1), 32, "data",
              lambda: arrivals.append(engine.now))
    engine.run()
    # the second did not queue behind the first (different links)
    assert abs(arrivals[0] - arrivals[1]) <= mesh.hop_latency * 3


def test_hop_statistics_counted():
    engine, stats, mesh = make_mesh()
    mesh.send(("sm", 0), ("l2", 1), 16, "ctrl", lambda: None)
    engine.run()
    assert stats.get("noc_hops") >= 1
    assert stats.get("noc_bytes") == 16


def test_rejects_bad_sizes():
    engine, _s, mesh = make_mesh()
    with pytest.raises(ValueError):
        mesh.send(("sm", 0), ("l2", 0), 0, "ctrl", lambda: None)
    with pytest.raises(ValueError):
        MeshNetwork(Engine(), StatsCollector(), 1, 0, 2, 2)


# ---------------------------------------------------------------------------
# whole-machine runs on the mesh
# ---------------------------------------------------------------------------

def test_gtsc_on_mesh_is_coherent():
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.RC,
                            noc_topology=NocTopology.MESH)
    gpu, stats = run_and_check(config, random_kernel(1, warps=4,
                                                     length=50))
    assert stats.counter("noc_hops") > 0


def test_mesh_and_port_agree_on_values_not_timing():
    kernel = random_kernel(2, warps=4, length=40)
    states = []
    for topology in (NocTopology.PORT, NocTopology.MESH):
        config = GPUConfig.tiny(protocol=Protocol.GTSC,
                                consistency=Consistency.SC,
                                noc_topology=topology)
        gpu, _ = run_and_check(config, kernel)
        footprint = sorted(kernel.memory_footprint())
        states.append([gpu.machine.versions.latest(a)
                       for a in footprint])
    assert states[0] == states[1]


def test_paper_sized_mesh_builds():
    config = GPUConfig.paper(noc_topology=NocTopology.MESH)
    from repro.gpu.gpu import GPU
    from repro.trace import Kernel, fence, load
    stats = GPU(config).run(Kernel("k", [[load(0), fence()]]))
    assert stats.cycles > 0
