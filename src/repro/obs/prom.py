"""Prometheus text-exposition rendering for service telemetry.

The serve subsystem's ``metrics`` op answers JSON by default; with
``format: "prometheus"`` it answers the same numbers in the
Prometheus text exposition format (version 0.0.4), so a fleet of
``gtsc-repro serve`` processes can be scraped by a stock Prometheus —
or eyeballed with ``gtsc-repro jobs --metrics-text`` — without any
exporter sidecar.

Conventions follow the exposition format spec:

* monotonically increasing counts render as ``counter`` metrics with
  a ``_total`` suffix;
* point-in-time values (queue depth, in-flight waiters) render as
  ``gauge`` metrics;
* latency distributions render as ``summary`` metrics with
  ``quantile`` labels plus the ``_sum``/``_count`` pair, taken from
  the scheduler's power-of-two histograms (so the quantiles are
  bucket upper bounds — the same numbers ``latency_summary`` reports).

Rendering is pure string assembly over plain dicts; nothing here
imports the server, so reports and tests can use it standalone.
"""

from __future__ import annotations

import re
from typing import Dict, Optional

#: quantiles exported for every summary, with the summary-dict key
#: each is read from (the scheduler's ``latency_summary`` shape)
SUMMARY_QUANTILES = (
    ("0.5", "p50_ms"),
    ("0.95", "p95_ms"),
    ("0.99", "p99_ms"),
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _name(prefix: str, name: str) -> str:
    """A legal Prometheus metric name for ``prefix`` + ``name``."""
    return _NAME_RE.sub("_", f"{prefix}_{name}")


def _num(value) -> str:
    """One sample value in exposition syntax (int stays int)."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".10g")


def render_prometheus(counters: Optional[Dict] = None,
                      gauges: Optional[Dict] = None,
                      summaries: Optional[Dict] = None,
                      prefix: str = "repro_serve") -> str:
    """Render metric dicts as one text-exposition document.

    ``counters`` and ``gauges`` map plain names to numbers;
    ``summaries`` maps names to the ``latency_summary`` per-histogram
    dicts (``count``/``mean_ms``/``p50_ms``/…/``sum_ms``).  Returns a
    newline-terminated document; empty inputs yield an empty string.
    """
    lines = []
    for name in sorted(counters or {}):
        metric = _name(prefix, name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_num(counters[name])}")
    for name in sorted(gauges or {}):
        metric = _name(prefix, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_num(gauges[name])}")
    for name in sorted(summaries or {}):
        summary = summaries[name]
        metric = _name(prefix, name)
        lines.append(f"# TYPE {metric} summary")
        for quantile, key in SUMMARY_QUANTILES:
            lines.append(f'{metric}{{quantile="{quantile}"}} '
                         f"{_num(summary[key])}")
        lines.append(f"{metric}_sum {_num(summary['sum_ms'])}")
        lines.append(f"{metric}_count {_num(summary['count'])}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


#: snapshot keys that are point-in-time state, not cumulative counts
_GAUGE_KEYS = ("jobs_pending", "jobs_leased")


def split_snapshot(snapshot: Dict) -> Dict[str, Dict]:
    """Partition a scheduler snapshot into counter and gauge dicts.

    Queue-state counts are gauges (they go down); everything else in
    the snapshot only ever increases.
    """
    counters: Dict = {}
    gauges: Dict = {}
    for name, value in snapshot.items():
        if name in _GAUGE_KEYS:
            gauges[name] = value
        else:
            counters[name] = value
    return {"counters": counters, "gauges": gauges}
