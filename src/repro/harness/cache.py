"""The run key: the identity of one simulation point.

Simulations are deterministic: the same machine configuration, workload,
scale and seed always produce the same :class:`RunStats`.  That makes a
run a pure function of its parameters, so one sha256 digest of them
names the result everywhere it is stored or deduplicated: the runner's
memo, the results database (:mod:`repro.db.store`), whose row for the
key answers every repeat run across processes and sessions, and the
serve scheduler's single-flight dedup.

The key covers every field of the :class:`~repro.config.GPUConfig`, the
workload name, scale, seed, and ``repro.__version__`` — bumping the
package version retires every stored result, which is the
coarse-but-safe answer to "the simulator's behaviour changed".
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import repro
from repro.config import GPUConfig


def _canonical(value):
    """Reduce a key component to deterministic JSON-friendly values."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


def run_key(config: GPUConfig, workload: str, scale: float,
            seed: int) -> str:
    """The sha256 key of one simulation point.

    Every config field participates, so changing *any* machine
    parameter — not just the ones a sweep happens to vary — lands on a
    different key.
    """
    payload = {
        "version": repro.__version__,
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "config": {
            f.name: _canonical(getattr(config, f.name))
            for f in dataclasses.fields(config)
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
