"""Tests for machine wiring and message routing."""

import pytest

from repro.config import GPUConfig, NocTopology, Protocol
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
