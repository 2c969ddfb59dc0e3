"""Warp-level instruction traces.

The simulator is trace-driven: each warp executes a straight-line
sequence of instructions.  Memory instructions operate on *line
addresses* — the coalescing unit's work is assumed done, so one load
or store instruction carries the 1-4 distinct line addresses a real
warp's 32 threads typically coalesce into (Section II-A).

There is one trace format, the packed :class:`CompiledTrace`, and one
kernel class, :class:`Kernel` (see :mod:`repro.trace.compiled`).  The
workload generators write traces through :class:`TraceBuilder`, one
:class:`TraceTable` per kernel; hand-written kernels list rows made by
:func:`load`, :func:`store`, :func:`atomic`, :func:`compute`,
:func:`fence` and :func:`barrier`.
"""

from repro.trace.compiled import (
    OP_ATOMIC,
    OP_BARRIER,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    CompiledTrace,
    Kernel,
    TraceBuilder,
    TraceTable,
    atomic,
    barrier,
    compile_kernel,
    compute,
    fence,
    load,
    pack_trace,
    store,
)

__all__ = [
    "OP_ATOMIC", "OP_BARRIER", "OP_COMPUTE", "OP_FENCE", "OP_LOAD",
    "OP_STORE", "CompiledTrace", "Kernel", "TraceBuilder", "TraceTable",
    "atomic", "barrier", "compile_kernel", "compute", "fence", "load",
    "pack_trace", "store",
]
