"""Compiled (packed) kernel traces — the simulator's execution format.

The simulator executes every warp trace as two parallel plain lists —
an integer opcode per instruction and a pre-decoded operand (the
coalesced address tuple of a memory instruction, or the cycle count of
a compute instruction).  The SM hot path then dispatches on small-int
comparisons with no dataclass field lookups, no string compares and no
per-step allocation.

:class:`TraceBuilder` is the one place an instruction is packed.  The
workload generators write their traces through it directly, so a
generated kernel is a :class:`CompiledKernel` from the start: no
per-instruction object is ever allocated and no compile pass walks the
trace again.  Hand-written kernels (tests, litmus shapes, the JSON
interchange of :mod:`repro.trace.serialize`) keep the readable
:class:`~repro.trace.instr.Instr` / :class:`~repro.trace.instr.Kernel`
records, and :func:`compile_kernel` packs them at launch through the
same builder.

Opcode numbering is part of the format: the three memory opcodes are
contiguous (``OP_LOAD..OP_ATOMIC``) so "is this a memory access" is a
single range check.

:class:`CompiledKernel` mirrors the :class:`Kernel` surface the GPU
and harness rely on (``name``, ``cta_size``, ``num_warps``,
``total_instructions``, ``num_ctas``, ``validate``,
``memory_footprint``) and serializes through the same row format as
:mod:`repro.trace.serialize` — the form the pinned trace digests
(``tests/golden/trace_digests.json``) are taken over.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.trace.instr import (
    ATOMIC,
    BARRIER,
    COMPUTE,
    FENCE,
    LOAD,
    STORE,
    Instr,
    Kernel,
)

# integer opcodes; OP_LOAD..OP_ATOMIC are contiguous on purpose
OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_ATOMIC = 3
OP_FENCE = 4
OP_BARRIER = 5

#: authoring opcode string -> packed integer opcode
OP_CODE = {
    COMPUTE: OP_COMPUTE,
    LOAD: OP_LOAD,
    STORE: OP_STORE,
    ATOMIC: OP_ATOMIC,
    FENCE: OP_FENCE,
    BARRIER: OP_BARRIER,
}

#: packed integer opcode -> authoring opcode string
OP_NAME = {code: name for name, code in OP_CODE.items()}


class CompiledTrace:
    """One warp's packed instruction stream.

    ``ops[i]`` is the integer opcode; ``args[i]`` is the pre-decoded
    operand: a tuple of line addresses for memory instructions, the
    cycle count for compute, ``None`` for fences and barriers.  The
    two lists are read-only once built, so a compiled trace can be
    shared between runs (and between warps, if a generator emits
    identical traces).
    """

    __slots__ = ("ops", "args", "length")

    def __init__(self, ops: List[int], args: List) -> None:
        self.ops = ops
        self.args = args
        self.length = len(ops)

    def __len__(self) -> int:
        return self.length

    def instr_at(self, index: int) -> Instr:
        """Reconstruct the authoring-level instruction at ``index``."""
        op = self.ops[index]
        arg = self.args[index]
        if op == OP_COMPUTE:
            return Instr(COMPUTE, cycles=arg)
        if OP_LOAD <= op <= OP_ATOMIC:
            return Instr(OP_NAME[op], addrs=arg)
        return Instr(OP_NAME[op])

    def instructions(self) -> List[Instr]:
        """The whole trace decompiled (test/debug helper)."""
        return [self.instr_at(i) for i in range(self.length)]


class TraceBuilder:
    """Packs one warp's trace as it is written.

    The methods mirror the authoring helpers of
    :mod:`repro.trace.instr` and raise the same ``ValueError`` as
    :class:`Instr` — a memory instruction needs an address, a compute
    a positive cycle count — but append straight into the ``ops`` and
    ``args`` lists that :meth:`build` hands to a :class:`CompiledTrace`.
    The address tuple of ``load(*addrs)`` is stored as the operand
    itself.
    """

    __slots__ = ("ops", "args")

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.args: List = []

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
        self.args.append(addrs)

    def store(self, *addrs: int) -> None:
        """A coalesced store to the given line addresses."""
        if not addrs:
            raise ValueError("store needs at least one address")
        self.ops.append(OP_STORE)
        self.args.append(addrs)

    def atomic(self, *addrs: int) -> None:
        """An atomic read-modify-write on the given lines."""
        if not addrs:
            raise ValueError("atomic needs at least one address")
        self.ops.append(OP_ATOMIC)
        self.args.append(addrs)

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


def compile_trace(instrs: Sequence[Instr]) -> CompiledTrace:
    """Pack one warp trace of :class:`Instr` records."""
    builder = TraceBuilder()
    for instr in instrs:
        # the builder's methods are named after the authoring opcodes
        if instr.op == COMPUTE:
            builder.compute(instr.cycles)
        elif instr.is_memory:
            getattr(builder, instr.op)(*instr.addrs)
        else:
            getattr(builder, instr.op)()
    return builder.build()


class CompiledKernel:
    """A launchable kernel in packed form.

    What the workload generators return and what the simulator
    executes.  Interchangeable with :class:`Kernel` at ``GPU.run``:
    identical warp placement, identical simulated outcome.
    """

    __slots__ = ("name", "cta_size", "traces")

    def __init__(self, name: str, traces: List[CompiledTrace],
                 cta_size: int = 1) -> None:
        self.name = name
        self.traces = traces
        self.cta_size = cta_size

    # -- Kernel-compatible surface -------------------------------------------
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
            for op, arg in zip(trace.ops, trace.args):
                if OP_LOAD <= op <= OP_ATOMIC:
                    lines.update(arg)
        return lines

    def validate(self) -> None:
        """The same launch-time checks :meth:`Kernel.validate` runs."""
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
            raise ValueError(
                f"kernel {self.name!r} uses barriers but cta_size is 1"
            )

    def decompile(self) -> Kernel:
        """Rebuild the authoring-level :class:`Kernel` (test helper)."""
        return Kernel(
            name=self.name,
            warp_traces=[t.instructions() for t in self.traces],
            cta_size=self.cta_size,
        )

    # -- serialization (the serialize-module row format) ----------------------
    def to_dict(self) -> dict:
        """The kernel as the serialize-module row format."""
        warps = []
        for trace in self.traces:
            rows = []
            for op, arg in zip(trace.ops, trace.args):
                name = OP_NAME[op]
                if op == OP_COMPUTE:
                    rows.append([name, arg])
                elif op <= OP_ATOMIC:
                    rows.append([name, list(arg)])
                else:
                    rows.append([name])
            warps.append(rows)
        return {"format": 1, "name": self.name,
                "cta_size": self.cta_size, "warps": warps}

    @classmethod
    def from_dict(cls, data: dict) -> "CompiledKernel":
        """Rebuild from :meth:`to_dict` output.

        Packs straight from the rows — no intermediate :class:`Instr`
        objects.
        """
        version = data.get("format", 1)
        if version != 1:
            raise ValueError(
                f"unsupported trace format version: {version}")
        traces: List[CompiledTrace] = []
        for rows in data["warps"]:
            ops: List[int] = []
            args: List = []
            for row in rows:
                op = OP_CODE.get(row[0])
                if op is None:
                    raise ValueError(f"unknown opcode in trace: {row!r}")
                ops.append(op)
                if op == OP_COMPUTE:
                    args.append(int(row[1]))
                elif op <= OP_ATOMIC:
                    args.append(tuple(int(a) for a in row[1]))
                else:
                    args.append(None)
            traces.append(CompiledTrace(ops, args))
        kernel = cls(name=str(data["name"]), traces=traces,
                     cta_size=int(data.get("cta_size", 1)))
        kernel.validate()
        return kernel


def compile_kernel(kernel: Union[Kernel, CompiledKernel]) -> CompiledKernel:
    """The launchable form of ``kernel``, validated.

    An authored :class:`Kernel` is packed; a :class:`CompiledKernel`
    (what every workload generator returns) is validated and returned
    as it is.
    """
    kernel.validate()
    if isinstance(kernel, CompiledKernel):
        return kernel
    return CompiledKernel(
        name=kernel.name,
        traces=[compile_trace(trace) for trace in kernel.warp_traces],
        cta_size=kernel.cta_size,
    )
