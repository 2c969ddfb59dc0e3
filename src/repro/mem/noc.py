"""Interconnection network between the SMs and the L2 banks.

The paper identifies NoC bandwidth as the first-order GPU bottleneck
(Sections II-A and V-B), so the model concentrates on exactly that:
each endpoint (SM or L2 bank) owns an injection port with finite
bandwidth; a message occupies its source port for ``size/bandwidth``
cycles (serialization) and then travels a fixed base latency.  Queuing
at a hot port therefore grows with traffic, which is what produces the
congestion effects the paper discusses (e.g. the CC benchmark where SC
beats RC because it injects fewer requests).

Traffic is accounted in bytes per message class so Figure 15 can be
regenerated directly from the counters.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.sim.engine import Engine
from repro.stats.collector import StatsCollector


class _Port:
    """One endpoint's injection port: a bandwidth-limited FIFO."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0


class Network:
    """Request/response fabric with per-port serialization delay."""

    def __init__(self, engine: Engine, stats: StatsCollector,
                 base_latency: int, port_bandwidth: int) -> None:
        if port_bandwidth <= 0:
            raise ValueError("port bandwidth must be positive")
        self.engine = engine
        self.stats = stats
        self.base_latency = base_latency
        self.port_bandwidth = port_bandwidth
        self._ports: dict[Hashable, _Port] = {}
        # hot-path caches: the raw counter mapping (send() increments
        # it directly, skipping a method call per counter) and the
        # interned per-class byte-counter names
        self._counters = stats.counters
        self._kind_keys: dict[str, str] = {}
        # accumulated (latency, messages) for average-latency reporting
        self.total_latency = 0
        self.total_messages = 0
        # observability: set to a repro.obs.Tracer to record transfers
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

        ``deliver(*args)`` fires when the message arrives at ``dst`` —
        passing the payload as ``args`` (rather than closing over it)
        keeps the completion path allocation-free.  Returns the
        delivery cycle.  ``dst`` only matters for accounting — the
        fabric itself is contention-free past the injection port, which
        matches the "bandwidth-limited endpoints" abstraction used by
        GPGPU-Sim's ideal-NoC configurations.
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
        counters["noc_bytes"] += size
        key = self._kind_keys.get(kind)
        if key is None:
            key = self._kind_keys[kind] = "noc_bytes_" + kind
        counters[key] += size
        counters["noc_messages"] += 1
        self.total_latency += arrival - now
        self.total_messages += 1
        if self.trace is not None:
            self.trace.complete(
                now, arrival, "noc", f"{kind}:{src}->{dst}",
                {"bytes": size})

        engine.post(arrival, deliver, args)
        return arrival

    @property
    def average_latency(self) -> float:
        """Mean injection-to-delivery latency over the whole run."""
        if self.total_messages == 0:
            return 0.0
        return self.total_latency / self.total_messages


class MeshNetwork:
    """A 2D mesh with XY dimension-order routing.

    SMs and L2 banks sit on a square-ish grid (SMs first, banks after,
    in row-major order).  A message walks its X hops then its Y hops;
    each *directed* link serializes traffic at ``link_bandwidth``
    bytes/cycle and each hop adds ``hop_latency`` cycles.  Messages
    hold each link for their full serialization time in path order, so
    hot links create queuing exactly where the traffic crosses.

    Endpoints use the same addresses as :class:`Network` — ``("sm", i)``
    and ``("l2", j)`` — so the two fabrics are drop-in replacements.
    """

    def __init__(self, engine: Engine, stats: StatsCollector,
                 hop_latency: int, link_bandwidth: int,
                 num_sms: int, num_banks: int) -> None:
        if link_bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        self.engine = engine
        self.stats = stats
        self.hop_latency = hop_latency
        self.link_bandwidth = link_bandwidth
        self.num_sms = num_sms
        nodes = num_sms + num_banks
        self.cols = max(1, int(nodes ** 0.5 + 0.9999))
        self.rows = -(-nodes // self.cols)
        # directed link (from_node, to_node) -> time it frees up
        self._links: dict = {}
        self._counters = stats.counters
        self._kind_keys: dict[str, str] = {}
        # (src, dst) -> precomputed XY path (topology is static)
        self._routes: dict = {}
        self.total_latency = 0
        self.total_messages = 0
        self.trace = None

    # -- geometry -------------------------------------------------------------
    def node_of(self, endpoint: Hashable) -> int:
        kind, index = endpoint
        if kind == "sm":
            return index
        return self.num_sms + index

    def coords(self, node: int) -> tuple:
        return node % self.cols, node // self.cols

    def route(self, src: Hashable, dst: Hashable) -> list:
        """The XY path as a list of directed (from, to) node pairs."""
        sx, sy = self.coords(self.node_of(src))
        dx, dy = self.coords(self.node_of(dst))
        path = []
        x, y = sx, sy
        while x != dx:
            step = 1 if dx > x else -1
            path.append(((x, y), (x + step, y)))
            x += step
        while y != dy:
            step = 1 if dy > y else -1
            path.append(((x, y), (x, y + step)))
            y += step
        return path

    # -- transmission ------------------------------------------------------------
    def send(self, src: Hashable, dst: Hashable, size: int, kind: str,
             deliver: Callable[..., None], *args: Any) -> int:
        if size <= 0:
            raise ValueError("message size must be positive")
        engine = self.engine
        now = engine.now
        serialize = -(-size // self.link_bandwidth)
        path = self._routes.get((src, dst))
        if path is None:
            path = self._routes[(src, dst)] = self.route(src, dst)
        links = self._links
        cursor = now
        for link in path:
            free_at = links.get(link, 0)
            if free_at > cursor:
                cursor = free_at
            cursor += serialize
            links[link] = cursor
        hops = len(path)
        arrival = cursor + self.hop_latency * (hops if hops else 1)

        counters = self._counters
        counters["noc_bytes"] += size
        key = self._kind_keys.get(kind)
        if key is None:
            key = self._kind_keys[kind] = "noc_bytes_" + kind
        counters[key] += size
        counters["noc_messages"] += 1
        counters["noc_hops"] += hops
        self.total_latency += arrival - now
        self.total_messages += 1
        if self.trace is not None:
            self.trace.complete(
                now, arrival, "noc", f"{kind}:{src}->{dst}",
                {"bytes": size, "hops": hops})

        engine.post(arrival, deliver, args)
        return arrival

    @property
    def average_latency(self) -> float:
        if self.total_messages == 0:
            return 0.0
        return self.total_latency / self.total_messages
