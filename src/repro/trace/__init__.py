"""Warp-level instruction traces.

The simulator is trace-driven: each warp executes a straight-line
sequence of instructions.  Memory instructions operate on *line
addresses* — the coalescing unit's work is assumed done, so one load
or store instruction carries the 1-4 distinct line addresses a real
warp's 32 threads typically coalesce into (Section II-A).

Two formats carry a trace.  The simulator executes the packed
:class:`CompiledTrace`, which the workload generators write directly
through :class:`TraceBuilder`.  Hand-written kernels (tests, litmus
shapes, the JSON interchange) use the readable :class:`Instr` /
:class:`Kernel` records, compiled at launch by :func:`compile_kernel`.
"""

from repro.trace.compiled import (
    CompiledKernel,
    CompiledTrace,
    TraceBuilder,
    compile_kernel,
    compile_trace,
)
from repro.trace.instr import (
    ATOMIC,
    COMPUTE,
    FENCE,
    LOAD,
    STORE,
    Instr,
    Kernel,
    atomic,
    compute,
    fence,
    load,
    store,
)

__all__ = [
    "ATOMIC", "COMPUTE", "FENCE", "LOAD", "STORE",
    "CompiledKernel", "CompiledTrace", "Instr", "Kernel", "TraceBuilder",
    "atomic", "compile_kernel", "compile_trace", "compute", "fence",
    "load", "store",
]
