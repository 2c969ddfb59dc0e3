"""The experiment service: a durable queue in front of the simulator.

``repro.serve`` turns the one-shot harness into a long-lived server
so many clients can share one simulation budget:

* :mod:`~repro.serve.jobs` — crash-safe JSONL job journal with
  leases (PENDING -> LEASED -> DONE/FAILED, expiry requeues);
* :mod:`~repro.serve.scheduler` — single-flight dedup keyed by
  :func:`repro.harness.cache.run_key`, sharded over independent
  locks, plus the lease/complete/fail/heartbeat entry points every
  worker uses, with jittered retry and failure quarantine;
* :mod:`~repro.serve.fleet` — the one worker loop, with per-job
  timeout and heartbeats: ``serve --jobs N`` runs N in-process
  (``--jobs 0`` makes the process a pure dispatcher), ``serve worker
  --connect`` runs one over the wire;
* :mod:`~repro.serve.server` / :mod:`~repro.serve.client` — the
  newline-JSON TCP protocol (versioned, with backpressure and
  persistent client connections);
* :mod:`~repro.serve.schema` — the request/result schema shared with
  ``gtsc-repro simulate --json``.

See ``docs/SERVING.md`` for the protocol and operational knobs.
"""

from __future__ import annotations

from repro.serve.client import ServeClient, ServeError, \
    ServeUnavailable
from repro.serve.fleet import FleetWorker, JobTimeout, \
    default_worker_name, execute_spec
from repro.serve.jobs import Job, JobStore
from repro.serve.scheduler import Busy, Quarantined, Scheduler, \
    Submission
from repro.serve.schema import PROTOCOL_VERSION, SpecError, \
    make_spec, result_envelope, spec_config, spec_key, validate_spec
from repro.serve.server import ServeServer

__all__ = [
    "Busy",
    "FleetWorker",
    "Job",
    "JobStore",
    "JobTimeout",
    "PROTOCOL_VERSION",
    "Quarantined",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "ServeServer",
    "ServeUnavailable",
    "SpecError",
    "Submission",
    "default_worker_name",
    "execute_spec",
    "make_spec",
    "result_envelope",
    "spec_config",
    "spec_key",
    "validate_spec",
]
