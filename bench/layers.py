"""Fold a cProfile record into the simulator's layers.

The traced run (``run.py --trace 1``) profiles whole passes of a
workload and hands the resulting ``pstats`` table to :class:`Folder`,
which answers "what share of the host time went to each layer, and how
often did control cross into it".

Attribution rules:

* a frame in ``src/repro`` belongs to the layer its file maps to in
  :data:`LAYER_OF_PREFIX` (longest prefix wins);
* any other frame (builtins, the standard library, this benchmark's
  own files) is split over its callers in proportion to the self time
  each call edge carries, recursively, so a ``dict.get`` made by the L2
  counts as L2 time; frames with no caller at all land in ``other``.

``.calls`` counts call edges whose caller and callee sit in different
layers, so it measures how often a request crosses a layer boundary.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

#: file prefix under ``src/repro/`` -> layer (longest prefix wins)
LAYER_OF_PREFIX = {
    "workloads/": "trace",
    "trace/": "trace",
    "sim/": "engine",
    "gpu/sm.py": "sm",
    "gpu/warp.py": "sm",
    "gpu/coalescer.py": "sm",
    "core/l1.py": "l1",
    "core/l2.py": "l2",
    "mem/": "cache",
    "mem/noc.py": "noc",
    "mem/dram.py": "dram",
    "protocols/": "protocol",
    "core/": "protocol",
    "multigpu/": "multigpu",
    "gpu/": "machine",
    "energy/": "machine",
    "validate/": "machine",
    "config.py": "machine",
    "stats/": "stats",
    "obs/": "stats",
    "harness/": "harness",
    "__init__.py": "harness",
    "db/": "db",
}

#: every layer a run reports, in display order
LAYERS = ("trace", "engine", "sm", "l1", "l2", "cache", "noc", "dram",
          "protocol", "multigpu", "machine", "stats", "harness", "db",
          "other")

#: layers every workload executes, so their self time is never
#: structurally zero; the rest report share and calls alone (l1/l2
#: are G-TSC only, multigpu is report only, and ``other`` holds no
#: more than the profiler's own exit)
TIMED_LAYERS = ("trace", "engine", "sm", "cache", "noc", "dram",
                "protocol", "machine", "stats", "harness", "db")

Func = Tuple[str, int, str]


class Folder:
    """Attributes one ``pstats`` table to layers (see module doc)."""

    def __init__(self, stats: pstats.Stats, repro_dir: str) -> None:
        self.table = stats.stats
        self.repro_dir = os.path.join(os.path.abspath(repro_dir), "")
        self._dist: Dict[Func, Dict[str, float]] = {}
        self._visiting: set = set()

    def layer_of(self, func: Func) -> str:
        """The layer of a repro frame, or ``""`` for any other frame."""
        filename = func[0]
        if not filename.startswith(self.repro_dir):
            return ""
        relative = filename[len(self.repro_dir):]
        best = ""
        for prefix in LAYER_OF_PREFIX:
            if relative.startswith(prefix) and len(prefix) > len(best):
                best = prefix
        return LAYER_OF_PREFIX[best] if best else "other"

    def distribution(self, func: Func) -> Dict[str, float]:
        """How ``func``'s self time splits over layers (sums to 1)."""
        layer = self.layer_of(func)
        if layer:
            return {layer: 1.0}
        cached = self._dist.get(func)
        if cached is not None:
            return cached
        callers = self.table[func][4] if func in self.table else {}
        if not callers or func in self._visiting:
            return {"other": 1.0}
        self._visiting.add(func)
        # weight each caller by the callee self time its calls carry;
        # fall back to call counts when every edge rounds to zero time
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: edge[1] for caller, edge in callers.items()}
        total = sum(weights.values()) or 1.0
        dist: Dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in self.distribution(caller).items():
                dist[layer] = dist.get(layer, 0.0) + share * weight / total
        self._visiting.discard(func)
        self._dist[func] = dist
        return dist

    def caller_layer(self, func: Func) -> str:
        dist = self.distribution(func)
        return max(dist, key=dist.get)

    def fold(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"self_s": s, "calls": n}}`` over every layer in
        :data:`LAYERS`."""
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for func, (_, _, tt, _, callers) in self.table.items():
            for layer, share in self.distribution(func).items():
                out[layer]["self_s"] += tt * share
            layer = self.layer_of(func)
            if not layer:
                continue
            for caller, edge in callers.items():
                if self.caller_layer(caller) != layer:
                    out[layer]["calls"] += edge[1]
        return out


def profiled_total(stats: pstats.Stats) -> float:
    """Sum of every frame's self time: what the layers must add up to."""
    return sum(entry[2] for entry in stats.stats.values())
