"""Tests for the load path and message dispatch that every L1 inherits
from ``L1ControllerBase``, and the dispatch the L2 banks inherit from
``L2BankBase``."""

import pytest

from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.gpu.warp import Warp
from repro.obs import Observability, Tracer
from repro.protocols.base import Message
from repro.trace import pack_trace

from tests.conftest import racing_atomics

#: the L1s that cache lines, and so park misses in an MSHR
CACHING = [Protocol.GTSC, Protocol.TC, Protocol.NONCOHERENT, Protocol.MESI]

LATENCIES = {"load_latency", "store_latency", "atomic_latency"}


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.name)
def test_every_l1_refuses_a_message_it_has_no_handler_for(protocol):
    with GPU(GPUConfig.tiny(protocol=protocol)) as gpu:
        with pytest.raises(TypeError, match="unexpected message"):
            gpu.machine.l1s[0].receive(Message(0, 0))


@pytest.mark.parametrize("protocol", [Protocol.GTSC, Protocol.TC],
                         ids=lambda p: p.name)
def test_l2_dispatch_refuses_a_message_it_has_no_handler_for(protocol):
    with GPU(GPUConfig.tiny(protocol=protocol)) as gpu:
        with pytest.raises(TypeError, match="unexpected message"):
            gpu.machine.l2_banks[0]._process(Message(0, 0))


@pytest.mark.parametrize("protocol", CACHING, ids=lambda p: p.name)
def test_every_caching_l1_refuses_a_miss_when_its_mshr_is_full(protocol):
    """A miss that needs a new MSHR entry while none is free is
    refused, booked as ``l1_mshr_stall`` and traced as ``mshr_stall``;
    a miss on a line already being fetched still joins its entry."""
    tracer = Tracer()
    config = GPUConfig.tiny(protocol=protocol, l1_mshr_entries=1)
    with GPU(config, obs=Observability(tracer=tracer)) as gpu:
        l1 = gpu.machine.l1s[0]
        warps = [Warp(uid, pack_trace([])) for uid in range(3)]
        assert l1.load(warps[0], 0, lambda: None)
        assert l1.load(warps[1], 0, lambda: None)
        assert not l1.load(warps[2], 1, lambda: None)
        assert gpu.machine.stats.get("l1_mshr_stall") == 1
        stalls = [event for event in tracer.events
                  if event[0] == "i" and event[4] == "mshr_stall"]
        assert [args for *_, args in stalls] == [{"addr": 1}]
        gpu.machine.engine.run()
        assert gpu.machine.stats.get("l2_access") == 1
        assert len(gpu.machine.log.loads) == 2


@pytest.mark.parametrize("consistency", list(Consistency),
                         ids=lambda c: c.name)
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.name)
def test_latency_histograms_are_booked_by_every_l1_but_the_plain_ones(
        protocol, consistency):
    config = GPUConfig.tiny(protocol=protocol, consistency=consistency)
    with GPU(config) as gpu:
        stats = gpu.run(racing_atomics())
    booked = LATENCIES & set(stats.histograms)
    if protocol in (Protocol.DISABLED, Protocol.NONCOHERENT):
        assert booked == set()
    else:
        assert booked == LATENCIES
        log = gpu.machine.log
        assert stats.histogram("load_latency").count == len(log.loads)
        assert stats.histogram("store_latency").count == len(log.stores)
        assert stats.histogram("atomic_latency").count == len(log.atomics)
