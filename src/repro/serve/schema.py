"""Versioned wire schema shared by the server, client, and CLI.

One simulation request ("spec") and one simulation result ("result
envelope") have a single canonical JSON shape, used identically by

* ``gtsc-repro simulate --json`` (one-shot, no server involved),
* the :mod:`repro.serve.server` submit reply, and
* :class:`repro.serve.client.ServeClient` return values,

so that anything consuming results — dashboards, sweep drivers, diff
tools — never needs to know whether a result came from a local run,
the results database, or a coalesced in-flight job.

Every message carries ``"v": PROTOCOL_VERSION``; a server receiving a
higher version than it speaks rejects the request instead of guessing.
Specs are validated *structurally* here (types, enum membership,
bounds) so both ends fail fast with a readable error rather than deep
inside ``GPUConfig``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.config import Consistency, GPUConfig, Protocol
from repro.harness.cache import run_key
from repro.stats.collector import RunStats
from repro.workloads import ALL_NAMES, MULTIGPU_NAMES

#: bump when the request or result shape changes incompatibly
PROTOCOL_VERSION = 1

PRESETS = ("tiny", "small", "paper")


class SpecError(ValueError):
    """A request spec that fails structural validation."""


def make_spec(workload: str, protocol: str = "gtsc",
              consistency: str = "rc", preset: str = "small",
              scale: float = 0.5, seed: int = 2018,
              overrides: Optional[Dict] = None) -> Dict:
    """Build a canonical spec dict (validated before returning)."""
    return validate_spec({
        "workload": workload,
        "protocol": protocol,
        "consistency": consistency,
        "preset": preset,
        "scale": scale,
        "seed": seed,
        "overrides": dict(overrides or {}),
    })


def validate_spec(spec) -> Dict:
    """Normalise and validate one request spec.

    Returns a fresh dict containing exactly the canonical fields, so a
    validated spec is safe to store and to hash.  Raises
    :class:`SpecError` with a message naming the offending field.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"spec must be an object, got "
                        f"{type(spec).__name__}")
    workload = spec.get("workload")
    if workload not in ALL_NAMES and workload not in MULTIGPU_NAMES:
        raise SpecError(
            f"unknown workload {workload!r} (known: "
            f"{', '.join(ALL_NAMES + MULTIGPU_NAMES)})")
    try:
        protocol = Protocol(spec.get("protocol", "gtsc"))
        consistency = Consistency(spec.get("consistency", "rc"))
    except ValueError as error:
        raise SpecError(str(error)) from None
    preset = spec.get("preset", "small")
    if preset not in PRESETS:
        raise SpecError(f"unknown preset {preset!r} "
                        f"(known: {', '.join(PRESETS)})")
    scale = spec.get("scale", 0.5)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool) \
            or not 0 < scale <= 4:
        raise SpecError(f"scale must be a number in (0, 4], "
                        f"got {scale!r}")
    seed = spec.get("seed", 2018)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError(f"seed must be an integer, got {seed!r}")
    overrides = spec.get("overrides", {})
    if not isinstance(overrides, dict):
        raise SpecError("overrides must be an object of config fields")
    fields = {f.name for f in dataclasses.fields(GPUConfig)}
    for name, value in overrides.items():
        if name not in fields:
            raise SpecError(f"unknown config override {name!r}")
        if not isinstance(value, (int, float, str, bool)):
            raise SpecError(f"override {name!r} must be a JSON "
                            f"scalar, got {type(value).__name__}")
    return {
        "workload": workload,
        "protocol": protocol.value,
        "consistency": consistency.value,
        "preset": preset,
        "scale": float(scale),
        "seed": seed,
        "overrides": {k: overrides[k] for k in sorted(overrides)},
    }


def spec_config(spec: Dict) -> GPUConfig:
    """The machine configuration a validated spec describes."""
    factory = getattr(GPUConfig, spec["preset"])
    return factory(protocol=Protocol(spec["protocol"]),
                   consistency=Consistency(spec["consistency"]),
                   **spec["overrides"])


def spec_key(spec: Dict) -> str:
    """The single-flight / store identity of a validated spec.

    This is exactly :func:`repro.harness.cache.run_key`, so the serve
    subsystem's dedup key and the results-database row key of both
    the service and the batch harness agree: a point simulated by
    ``gtsc-repro run`` is a *cache hit* when later requested through
    the service sharing its database, and vice versa.
    """
    return run_key(spec_config(spec), spec["workload"], spec["scale"],
                   spec["seed"])


def result_envelope(spec: Dict, stats: RunStats, *, key: str,
                    job_id: Optional[str] = None,
                    cached: bool = False,
                    coalesced: bool = False) -> Dict:
    """The canonical result message for one finished simulation.

    ``cached``/``coalesced`` describe how the service satisfied the
    request (a direct CLI run reports both ``False``); ``stats`` is
    the exact :meth:`RunStats.to_dict` payload, so
    ``RunStats.from_dict(envelope["stats"])`` round-trips the result
    bit-identically to the simulation that produced it.

    ``sim_backend`` is a legacy field, always ``"pure"``: the
    simulator has one engine, and the key stays so envelope consumers
    written against earlier versions keep working.
    """
    envelope = {
        "v": PROTOCOL_VERSION,
        "kind": "result",
        "spec": dict(spec),
        "key": key,
        "cached": cached,
        "coalesced": coalesced,
        "sim_backend": "pure",
        # machine-shape provenance: how many GPUs simulated this point
        "n_gpus": int(spec.get("overrides", {}).get("n_gpus", 1)),
        "stats": stats.to_dict(),
    }
    if job_id is not None:
        envelope["job_id"] = job_id
    return envelope
