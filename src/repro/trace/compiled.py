"""Kernels and their packed warp traces — the simulator's one format.

The simulator executes every warp trace as two parallel plain lists —
an integer opcode per instruction and a pre-decoded operand (the
coalesced address tuple of a memory instruction, or the cycle count of
a compute instruction).  The SM hot path then dispatches on small-int
comparisons with no field lookups, no string compares and no per-step
allocation.

Two ways of writing a trace meet in that format:

* the workload generators append straight into the packed lists
  through :class:`TraceBuilder`, so no per-instruction object is ever
  allocated;
* hand-written kernels (tests, examples, the litmus shapes) spell each
  instruction with the row functions :func:`load`, :func:`store`,
  :func:`atomic`, :func:`compute`, :func:`fence` and :func:`barrier`.
  Each returns its packed ``(opcode, operand)`` row, and the
  :class:`Kernel` constructor packs a warp given as a list of rows
  through :func:`pack_trace`.  Iterating a :class:`CompiledTrace`
  yields the same rows back.

Either way a kernel holds each distinct address tuple once.  Every
memory operand is stored through an *operand table* (a dict mapping an
address tuple to the one instance the kernel keeps) as its instruction
is written: a generator hands one table to all of a kernel's builders,
:class:`Kernel` makes one for the row lists it packs, and
:meth:`Kernel.from_dict` one for the rows it parses.  The table lives
only while the kernel is built.  A paper-scale kernel repeats a few
thousand address sets across tens of thousands of memory
instructions, so the traces shrink by about two thirds.

Opcode numbering is part of the format: the three memory opcodes are
contiguous (``OP_LOAD..OP_ATOMIC``) so "is this a memory access" is a
single range check.

:meth:`Kernel.to_dict` / :meth:`Kernel.from_dict` are the JSON codec —
the form the pinned trace digests (``tests/golden/trace_digests.json``)
are taken over::

    {"format": 1, "name": "BFS", "cta_size": 1,
     "warps": [[["load", [3, 4]], ["compute", 5], ["fence"]], ...]}
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

# integer opcodes; OP_LOAD..OP_ATOMIC are contiguous on purpose
OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_ATOMIC = 3
OP_FENCE = 4
OP_BARRIER = 5

#: packed integer opcode -> its name in JSON and in the row functions
OP_NAME = {
    OP_COMPUTE: "compute",
    OP_LOAD: "load",
    OP_STORE: "store",
    OP_ATOMIC: "atomic",
    OP_FENCE: "fence",
    OP_BARRIER: "barrier",
}

FORMAT_VERSION = 1

#: one packed instruction: ``(opcode, operand)``
Row = Tuple[int, object]

#: a kernel build's operand table: address tuple -> the kernel's one
#: instance of it
Operands = Dict[Tuple[int, ...], Tuple[int, ...]]


# ---------------------------------------------------------------------------
# row functions: one packed instruction each
# ---------------------------------------------------------------------------

def _malformed(name: str, operands: tuple) -> ValueError:
    """The error for a row with an operand that is not an int: a float
    or a string would fail mid-run inside an SM or a cache, and a bool
    would run as 0 or 1."""
    return ValueError(f"malformed instruction: "
                      f"{name}({', '.join(map(repr, operands))})")


def compute(cycles: int) -> Row:
    """``cycles`` of non-memory work (models ALU instructions)."""
    if type(cycles) is not int:
        raise _malformed("compute", (cycles,))
    if cycles <= 0:
        raise ValueError("compute needs a positive cycle count")
    return (OP_COMPUTE, cycles)


def _memory(op: int, addrs: Tuple[int, ...]) -> Row:
    if not addrs:
        raise ValueError(f"{OP_NAME[op]} needs at least one address")
    for addr in addrs:
        if type(addr) is not int:
            raise _malformed(OP_NAME[op], addrs)
    return (op, addrs)


def load(*addrs: int) -> Row:
    """A coalesced load of the given line addresses."""
    return _memory(OP_LOAD, addrs)


def store(*addrs: int) -> Row:
    """A coalesced store to the given line addresses."""
    return _memory(OP_STORE, addrs)


def atomic(*addrs: int) -> Row:
    """An atomic read-modify-write on the given lines.

    GPU atomics execute at the shared L2 (the point of coherence), so
    every protocol forwards them there; the warp blocks until the old
    value returns, exactly like a load.
    """
    return _memory(OP_ATOMIC, addrs)


def fence() -> Row:
    """A memory fence (drains the warp's outstanding operations)."""
    return (OP_FENCE, None)


def barrier() -> Row:
    """An intra-CTA barrier (CUDA ``__syncthreads``).

    Every warp of the CTA must arrive before any proceeds.  In this
    model a barrier also drains the arriving warp's outstanding memory
    operations (``__syncthreads`` plus a block-level fence), which is
    the ordering CTA-cooperative kernels rely on.
    """
    return (OP_BARRIER, None)


#: JSON opcode name -> row function
_ROW_FUNCTIONS = {fn.__name__: fn
                  for fn in (compute, load, store, atomic, fence, barrier)}


def _row_repr(op: int, arg) -> str:
    """A row in the spelling of its row function."""
    if op == OP_COMPUTE:
        return f"compute({arg})"
    if OP_LOAD <= op <= OP_ATOMIC:
        return f"{OP_NAME[op]}({', '.join(map(str, arg))})"
    return f"{OP_NAME[op]}()"


def _row_from_obj(obj) -> Row:
    """Parse one JSON row through its row function, which checks the
    operand types."""
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"malformed instruction: {obj!r}")
    name, operands = obj[0], obj[1:]
    row_fn = _ROW_FUNCTIONS.get(name) if isinstance(name, str) else None
    if row_fn is None:
        raise ValueError(f"unknown opcode in trace: {name!r}")
    if row_fn is fence or row_fn is barrier:
        if operands:
            raise ValueError(f"malformed instruction: {obj!r}")
        return row_fn()
    if len(operands) != 1:
        raise ValueError(f"malformed instruction: {obj!r}")
    operand = operands[0]
    if row_fn is compute:
        return compute(operand)
    if not isinstance(operand, list):
        raise ValueError(f"malformed instruction: {obj!r}")
    return row_fn(*operand)


# ---------------------------------------------------------------------------
# packed traces
# ---------------------------------------------------------------------------

class CompiledTrace:
    """One warp's packed instruction stream.

    ``ops[i]`` is the integer opcode; ``args[i]`` is the pre-decoded
    operand: a tuple of line addresses for memory instructions, the
    cycle count for compute, ``None`` for fences and barriers.  The
    two lists are read-only once built, so a packed trace can be
    shared between runs (and between warps, if a generator emits
    identical traces).  So are the address tuples, which the traces
    of one kernel share: equal operands anywhere in the kernel are
    one tuple (see the module docstring).  Iterating a trace yields
    ``(opcode, operand)`` rows.
    """

    __slots__ = ("ops", "args", "length")

    def __init__(self, ops: List[int], args: List) -> None:
        self.ops = ops
        self.args = args
        self.length = len(ops)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Row]:
        return zip(self.ops, self.args)


def pack_trace(rows: Iterable[Row],
               operands: Optional[Operands] = None) -> CompiledTrace:
    """Pack one warp's rows, as the row functions return them.

    Each memory operand is stored through ``operands``, the kernel
    build's operand table (a table of this trace's own when none is
    given), as its row is read; ``rows`` may be a lazy iterable.
    """
    if operands is None:
        operands = {}
    intern = operands.setdefault
    ops: List[int] = []
    args: List = []
    for op, arg in rows:
        ops.append(op)
        args.append(intern(arg, arg) if OP_LOAD <= op <= OP_ATOMIC
                    else arg)
    return CompiledTrace(ops, args)


class TraceBuilder:
    """Packs one warp's trace as it is written.

    The methods mirror the row functions, but append straight into the
    ``ops`` and ``args`` lists that :meth:`build` hands to a
    :class:`CompiledTrace`, with no row allocated.  They make only the
    row functions' value checks — a memory instruction needs an
    address, a compute a positive cycle count — and not their type
    checks: the builder serves the workload generators, which pass
    the ints they computed.

    The address tuple of ``load(*addrs)`` is stored through
    ``operands``, the kernel build's operand table: a generator makes
    one dict per kernel and hands it to every builder of that kernel,
    so each distinct address set is one tuple kernel-wide.  Without
    one, the builder interns within its own warp.
    """

    __slots__ = ("ops", "args", "_intern")

    def __init__(self, operands: Optional[Operands] = None) -> None:
        self.ops: List[int] = []
        self.args: List = []
        self._intern = (operands if operands is not None
                        else {}).setdefault

    def compute(self, cycles: int) -> None:
        """``cycles`` of non-memory work."""
        if cycles <= 0:
            raise ValueError("compute needs a positive cycle count")
        self.ops.append(OP_COMPUTE)
        self.args.append(cycles)

    def load(self, *addrs: int) -> None:
        """A coalesced load of the given line addresses."""
        if not addrs:
            raise ValueError("load needs at least one address")
        self.ops.append(OP_LOAD)
        self.args.append(self._intern(addrs, addrs))

    def store(self, *addrs: int) -> None:
        """A coalesced store to the given line addresses."""
        if not addrs:
            raise ValueError("store needs at least one address")
        self.ops.append(OP_STORE)
        self.args.append(self._intern(addrs, addrs))

    def atomic(self, *addrs: int) -> None:
        """An atomic read-modify-write on the given lines."""
        if not addrs:
            raise ValueError("atomic needs at least one address")
        self.ops.append(OP_ATOMIC)
        self.args.append(self._intern(addrs, addrs))

    def fence(self) -> None:
        """A memory fence."""
        self.ops.append(OP_FENCE)
        self.args.append(None)

    def barrier(self) -> None:
        """An intra-CTA barrier."""
        self.ops.append(OP_BARRIER)
        self.args.append(None)

    def build(self) -> CompiledTrace:
        """The packed trace written so far."""
        return CompiledTrace(self.ops, self.args)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class Kernel:
    """A launchable kernel: one packed trace per warp.

    What the workload generators return and what the simulator
    executes.  Each warp is a :class:`CompiledTrace` or a list of rows
    (``Kernel("mp", [[store(X), fence()], [load(Y)]])``), which is
    packed here; the row lists share one operand table, so they hold
    each distinct address tuple once.

    ``cta_size`` groups consecutive warps into Cooperative Thread
    Arrays: all warps of a CTA are placed on the *same* SM (the
    hardware guarantee CUDA barriers rely on) and CTAs are assigned to
    SMs round-robin.  With the default ``cta_size=1`` every warp is
    its own CTA and placement degenerates to plain round-robin.  When
    a kernel has more warps than the machine has slots, whole CTAs
    queue and activate in waves as earlier ones retire.
    """

    __slots__ = ("name", "cta_size", "traces")

    def __init__(self, name: str, traces: Iterable,
                 cta_size: int = 1) -> None:
        self.name = name
        operands: Operands = {}
        self.traces: List[CompiledTrace] = [
            trace if isinstance(trace, CompiledTrace)
            else pack_trace(trace, operands)
            for trace in traces
        ]
        self.cta_size = cta_size

    @property
    def num_warps(self) -> int:
        return len(self.traces)

    @property
    def total_instructions(self) -> int:
        return sum(t.length for t in self.traces)

    @property
    def num_ctas(self) -> int:
        return -(-self.num_warps // self.cta_size)

    def memory_footprint(self) -> set:
        """All line addresses the kernel touches (test helper)."""
        lines = set()
        for trace in self.traces:
            for op, arg in trace:
                if OP_LOAD <= op <= OP_ATOMIC:
                    lines.update(arg)
        return lines

    def validate(self) -> None:
        """Sanity-check the kernel before launch."""
        if not self.traces:
            raise ValueError(f"kernel {self.name!r} has no warps")
        if self.cta_size < 1:
            raise ValueError(
                f"kernel {self.name!r}: cta_size must be >= 1")
        uses_barriers = False
        for i, trace in enumerate(self.traces):
            if not trace.length:
                raise ValueError(
                    f"kernel {self.name!r}: warp {i} is empty")
            if OP_BARRIER in trace.ops:
                uses_barriers = True
        if uses_barriers and self.cta_size == 1 and self.num_warps > 1:
            # a 1-warp CTA barrier is a no-op; almost certainly a
            # forgotten cta_size
            raise ValueError(
                f"kernel {self.name!r} uses barriers but cta_size is 1"
            )

    def __repr__(self) -> str:
        warps = ", ".join(
            "[" + ", ".join(_row_repr(op, arg) for op, arg in trace) + "]"
            for trace in self.traces)
        return (f"Kernel({self.name!r}, [{warps}], "
                f"cta_size={self.cta_size})")

    # -- JSON codec -----------------------------------------------------------
    def to_dict(self) -> dict:
        """The kernel as JSON-ready opcode-first rows."""
        warps = []
        for trace in self.traces:
            rows = []
            for op, arg in trace:
                name = OP_NAME[op]
                if op == OP_COMPUTE:
                    rows.append([name, arg])
                elif op <= OP_ATOMIC:
                    rows.append([name, list(arg)])
                else:
                    rows.append([name])
            warps.append(rows)
        return {"format": FORMAT_VERSION, "name": self.name,
                "cta_size": self.cta_size, "warps": warps}

    @classmethod
    def from_dict(cls, data: dict) -> "Kernel":
        """Rebuild and validate a kernel from :meth:`to_dict` output.

        Every row goes through its row function, so a malformed row
        raises the ``ValueError`` writing it by hand would.  So does a
        malformed document: not an object, no string ``name``, no list
        of row lists as ``warps``, or a ``cta_size`` that is not an
        integer.  Rows are packed as they are parsed, through one
        operand table for the whole document.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"a kernel document is a JSON object, not "
                f"{type(data).__name__}")
        version = data.get("format", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version: {version}")
        name, warps = data.get("name"), data.get("warps")
        if not isinstance(name, str):
            raise ValueError(
                f"kernel document needs a string 'name', got {name!r}")
        if not isinstance(warps, list) \
                or not all(isinstance(rows, list) for rows in warps):
            raise ValueError(f"kernel {name!r}: 'warps' must be a list "
                             f"holding one list of rows per warp")
        cta_size = data.get("cta_size", 1)
        if type(cta_size) is not int:
            raise ValueError(f"kernel {name!r}: 'cta_size' must be an "
                             f"integer, got {cta_size!r}")
        operands: Operands = {}
        kernel = cls(name,
                     [pack_trace(map(_row_from_obj, rows), operands)
                      for rows in warps],
                     cta_size=cta_size)
        kernel.validate()
        return kernel


def compile_kernel(kernel: Kernel) -> Kernel:
    """``kernel``, validated: the launch-time check ``GPU.run`` makes.

    Traces are packed when they are written, so nothing is compiled
    here any more; the name stays because benchmark set-up timing
    (``bench/workloads.py``) imports it from this module.
    """
    kernel.validate()
    return kernel
