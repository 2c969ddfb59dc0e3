"""Tests for machine wiring and message routing."""

import pytest

from repro.config import GPUConfig, NocTopology, Protocol
from repro.gpu.gpu import GPU
from repro.gpu.machine import Machine
from repro.mem.noc import MeshNetwork, Network
from repro.protocols.base import Message
from repro.protocols.factory import build_protocol


class Probe(Message):
    kind = "ctrl"
    __slots__ = ()


class Recorder:
    def __init__(self):
        self.received = []

    def receive(self, msg):
        self.received.append(msg)


def make_machine(**overrides):
    machine = Machine(GPUConfig.tiny(**overrides))
    build_protocol(machine)
    return machine


def test_machine_builds_one_l1_per_sm_and_one_bank_per_partition():
    machine = make_machine()
    assert len(machine.l1s) == machine.config.num_sms
    assert len(machine.l2_banks) == machine.config.num_l2_banks
    assert len(machine.drams) == machine.config.num_l2_banks


def test_requests_route_to_home_bank():
    machine = make_machine(num_l2_banks=1)
    recorder = Recorder()
    machine.l2_banks[0] = recorder
    machine.l1s[0]._send(Probe(addr=5, sm=0))
    machine.engine.run()
    assert len(recorder.received) == 1
    assert recorder.received[0].addr == 5


def test_bank_interleaving_splits_traffic():
    config = GPUConfig.small()  # 2 banks
    machine = Machine(config)
    build_protocol(machine)
    recorders = [Recorder(), Recorder()]
    machine.l2_banks = recorders
    for addr in range(8):
        machine.l1s[0]._send(Probe(addr=addr, sm=0))
    machine.engine.run()
    assert len(recorders[0].received) == 4
    assert len(recorders[1].received) == 4
    assert all(m.addr % 2 == 0 for m in recorders[0].received)


def test_responses_route_to_requesting_sm():
    machine = make_machine()
    recorder = Recorder()
    machine.l1s[1] = recorder
    machine.l2_banks[0]._reply(1, Probe(addr=7, sm=1))
    machine.engine.run()
    assert len(recorder.received) == 1


def crossings(gpu, send):
    """Call ``send()``, run the engine dry, and return how many
    messages crossed (the NoC, the inter-GPU link)."""
    counters = gpu.machine.stats.counters
    noc, link = counters["noc_messages"], counters["interlink_messages"]
    send()
    gpu.machine.engine.run()
    return (counters["noc_messages"] - noc,
            counters["interlink_messages"] - link)


@pytest.mark.parametrize("num_l2_banks", [1, 2])
@pytest.mark.parametrize("n_gpus", [1, 2, 4])
def test_every_route_reaches_its_home_over_the_right_network(
        n_gpus, num_l2_banks):
    """A request reaches bank ``bank_of(addr)`` of GPU
    ``home_gpu_of(addr)``, and a reply addressed by global SM uid that
    SM's L1: over the NoC within a GPU, over the link between GPUs."""
    config = GPUConfig.tiny(n_gpus=n_gpus, num_l2_banks=num_l2_banks)
    gpu = GPU(config, record_accesses=False)
    l1s = [l1 for machine in gpu.machines for l1 in machine.l1s]
    banks = [bank for machine in gpu.machines for bank in machine.l2_banks]
    # swap recorders in for every controller; the real ones send
    bank_recorders = {}
    l1_recorders = {}
    for machine in gpu.machines:
        machine.l2_banks = [Recorder() for _ in range(num_l2_banks)]
        machine.l1s = [Recorder() for _ in range(config.num_sms)]
        for index, recorder in enumerate(machine.l2_banks):
            bank_recorders[machine.gpu_id, index] = recorder
        for index, recorder in enumerate(machine.l1s):
            l1_recorders[machine.gpu_id * config.num_sms + index] = recorder
    lines = range(4 * num_l2_banks * n_gpus)

    for l1 in l1s:
        uid = l1.machine.gpu_id * config.num_sms + l1.sm_id
        for addr in lines:
            home = config.home_gpu_of(addr)
            bank = bank_recorders[home, config.bank_of(addr)]
            arrived = len(bank.received)
            local = home == l1.machine.gpu_id
            assert crossings(
                gpu, lambda: l1._send(Probe(addr=addr, sm=l1.sm_id))) == \
                ((1, 0) if local else (0, 1))
            assert len(bank.received) == arrived + 1
            assert (bank.received[-1].addr, bank.received[-1].sm) == \
                (addr, uid)
    assert sum(len(r.received) for r in bank_recorders.values()) == \
        len(l1s) * len(lines)

    for bank in banks:
        for uid, recorder in l1_recorders.items():
            arrived = len(recorder.received)
            local = uid // config.num_sms == bank.machine.gpu_id
            assert crossings(
                gpu, lambda: bank._reply(uid, Probe(addr=3, sm=uid))) == \
                ((1, 0) if local else (0, 1))
            assert len(recorder.received) == arrived + 1
    assert sum(len(r.received) for r in l1_recorders.values()) == \
        len(banks) * len(l1_recorders)


def test_port_topology_by_default():
    machine = make_machine()
    assert isinstance(machine.noc, Network)


def test_mesh_topology_when_configured():
    machine = make_machine(noc_topology=NocTopology.MESH)
    assert isinstance(machine.noc, MeshNetwork)


def test_every_protocol_builds():
    for protocol in Protocol:
        machine = make_machine(protocol=protocol)
        assert machine.l1s and machine.l2_banks


def test_memory_image_starts_empty():
    machine = make_machine()
    assert machine.memory_image == {}


def test_message_repr_and_default_size():
    msg = Probe(addr=0x40, sm=2)
    config = GPUConfig.tiny()
    assert msg.size(config) == config.noc_header_bytes
    assert "Probe" in repr(msg)
