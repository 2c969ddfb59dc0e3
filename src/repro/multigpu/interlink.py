"""Inter-GPU interconnect: bandwidth-limited per-GPU ports.

Same abstraction as the on-die :class:`repro.mem.noc.Network` — each
GPU owns an injection port with finite bandwidth, a message occupies
it for ``size/bandwidth`` cycles and then travels a flat base latency
— but with its own, much slower, knobs (``interlink_latency`` /
``interlink_bandwidth`` in :class:`~repro.config.GPUConfig`; think
NVLink-class cycles vs on-die NoC cycles) and its own counter family
(``interlink_bytes``, ``interlink_bytes_<kind>``,
``interlink_messages``) so cross-GPU traffic is separable from
on-die traffic in every report.

The base latency covers the full off-die path: on-die egress to the
edge of the source GPU, the link itself, and ingress on the far side.
Remote requests therefore pay the interlink *instead of* the local
NoC, not in addition to it.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.sim.engine import Engine
from repro.stats.collector import StatsCollector


class _Port:
    """One GPU's injection port: a bandwidth-limited FIFO."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0


class Interlink:
    """Point-to-point inter-GPU fabric with per-GPU serialization."""

    def __init__(self, engine: Engine, stats: StatsCollector,
                 base_latency: int, port_bandwidth: int) -> None:
        if port_bandwidth <= 0:
            raise ValueError("interlink bandwidth must be positive")
        self.engine = engine
        self.stats = stats
        self.base_latency = base_latency
        self.port_bandwidth = port_bandwidth
        self._ports: dict[Hashable, _Port] = {}
        self._counters = stats.counters
        self._kind_keys: dict[str, str] = {}
        self.total_latency = 0
        self.total_messages = 0
        self.trace = None

    def _port(self, endpoint: Hashable) -> _Port:
        port = self._ports.get(endpoint)
        if port is None:
            port = _Port()
            self._ports[endpoint] = port
        return port

    def send(self, src: Hashable, dst: Hashable, size: int, kind: str,
             deliver: Callable[..., None], *args: Any) -> int:
        """Inject a ``size``-byte message of class ``kind`` at ``src``.

        ``deliver(*args)`` fires on arrival at ``dst``.  Endpoints are
        ``("gpu", g)`` tuples; as with the on-die NoC, the fabric is
        contention-free past the injection port.
        """
        if size <= 0:
            raise ValueError("message size must be positive")
        engine = self.engine
        now = engine.now
        port = self._ports.get(src)
        if port is None:
            port = self._port(src)
        free_at = port.free_at
        start = free_at if free_at > now else now
        # ceil-divide: a message holds its port for at least one cycle
        depart = start + -(-size // self.port_bandwidth)
        port.free_at = depart
        arrival = depart + self.base_latency

        counters = self._counters
        counters["interlink_bytes"] += size
        key = self._kind_keys.get(kind)
        if key is None:
            key = self._kind_keys[kind] = "interlink_bytes_" + kind
        counters[key] += size
        counters["interlink_messages"] += 1
        self.total_latency += arrival - now
        self.total_messages += 1
        if self.trace is not None:
            self.trace.complete(
                now, arrival, "interlink", f"{kind}:{src}->{dst}",
                {"bytes": size})

        engine.post(arrival, deliver, args)
        return arrival

    @property
    def average_latency(self) -> float:
        """Mean end-to-end latency over all inter-GPU messages."""
        if self.total_messages == 0:
            return 0.0
        return self.total_latency / self.total_messages
