"""Packed traces: the one format, its two authoring styles, digests.

The workload generators write packed traces through
:class:`TraceBuilder`; hand-written kernels list rows that the
:class:`Kernel` constructor packs.  Both must give one format.  Every
generated trace must match the sha256 digest recorded in
``tests/golden/trace_digests.json``, and a generated kernel read back
from its JSON form must simulate to a ``RunStats.to_dict()``
byte-identical to the original's, under every protocol.
"""

import hashlib
import json
import os

import pytest

import repro.trace as rows
from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import (
    OP_ATOMIC,
    OP_BARRIER,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    CompiledTrace,
    Kernel,
    TraceBuilder,
    atomic,
    barrier,
    compile_kernel,
    compute,
    fence,
    load,
    pack_trace,
    store,
)
from repro.workloads import ALL_NAMES, WORKLOADS, build_workload

SCALE = 0.3
SEED = 7
PROTOCOLS = (Protocol.GTSC, Protocol.TC, Protocol.MESI,
             Protocol.DISABLED)

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "golden",
                            "trace_digests.json")

with open(DIGESTS_PATH) as handle:
    TRACE_GOLDEN = json.load(handle)


def _run(kernel, protocol):
    config = GPUConfig.tiny(protocol=protocol, consistency=Consistency.RC)
    stats = GPU(config, record_accesses=False).run(kernel)
    return json.dumps(stats.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# packed format
# ---------------------------------------------------------------------------

def test_opcode_range_check_invariant():
    """The memory opcodes must stay contiguous — the SM dispatches on
    ``OP_LOAD <= op <= OP_ATOMIC``."""
    assert OP_LOAD + 1 == OP_STORE
    assert OP_STORE + 1 == OP_ATOMIC
    assert OP_COMPUTE < OP_LOAD
    assert OP_ATOMIC < OP_FENCE < OP_BARRIER


def test_compile_trace_packs_every_instruction_kind():
    trace = pack_trace([compute(3), load(64, 128), store(64),
                        atomic(192), fence(), barrier()])
    assert trace.ops == [OP_COMPUTE, OP_LOAD, OP_STORE, OP_ATOMIC,
                         OP_FENCE, OP_BARRIER]
    assert trace.args == [3, (64, 128), (64,), (192,), None, None]
    assert len(trace) == 6


def test_compiled_trace_decompiles_to_the_same_instructions():
    warp = [load(64), compute(2), fence()]
    assert list(pack_trace(warp)) == warp


def test_rows_and_trace_builder_write_one_format():
    """A two-warp kernel using every opcode, written as rows and
    through the builder: one dict, the same rows back, one outcome."""
    warps = [
        [compute(3), load(64, 128), store(64), barrier(), atomic(192),
         fence()],
        [load(64), barrier(), compute(1), store(128), fence()],
    ]
    first, second = TraceBuilder(), TraceBuilder()
    first.compute(3)
    first.load(64, 128)
    first.store(64)
    first.barrier()
    first.atomic(192)
    first.fence()
    second.load(64)
    second.barrier()
    second.compute(1)
    second.store(128)
    second.fence()
    by_rows = Kernel("every-op", warps, cta_size=2)
    by_builder = Kernel("every-op", [first.build(), second.build()],
                        cta_size=2)
    assert by_rows.to_dict() == by_builder.to_dict()
    for kernel in (by_rows, by_builder):
        assert [list(trace) for trace in kernel.traces] == warps
    stats = [GPU(GPUConfig.tiny()).run(kernel).to_dict()
             for kernel in (by_rows, by_builder)]
    assert stats[0] == stats[1]


def test_kernel_repr_spells_its_rows():
    kernel = Kernel("r", [[load(1, 2), compute(3), fence()],
                          [atomic(4), barrier()]], cta_size=2)
    assert repr(kernel) == ("Kernel('r', [[load(1, 2), compute(3), "
                            "fence()], [atomic(4), barrier()]], "
                            "cta_size=2)")


def test_compiled_kernel_dict_round_trip():
    kernel = Kernel("rt", [
        [load(64, 128), barrier(), atomic(256)],
        [compute(5), barrier(), fence()],
    ], cta_size=2)
    rebuilt = Kernel.from_dict(json.loads(json.dumps(kernel.to_dict())))
    assert rebuilt.to_dict() == kernel.to_dict()
    assert repr(rebuilt) == repr(kernel)


def test_from_dict_rejects_unknown_format_and_opcodes():
    with pytest.raises(ValueError, match="format"):
        Kernel.from_dict({"format": 99, "name": "x",
                          "cta_size": 1, "warps": [[["load", [0]]]]})
    with pytest.raises(ValueError, match="opcode"):
        Kernel.from_dict({"format": 1, "name": "x",
                          "cta_size": 1, "warps": [[["jump"]]]})


@pytest.mark.parametrize("op, args", [
    ("load", ()), ("store", ()), ("atomic", ()),
    ("compute", (0,)), ("compute", (-1,)),
])
def test_trace_builder_raises_what_instr_raises(op, args):
    """The builder, the row function and the JSON reader refuse the
    same instruction with the same message."""
    builder = TraceBuilder()
    with pytest.raises(ValueError) as packed:
        getattr(builder, op)(*args)
    with pytest.raises(ValueError) as by_row:
        getattr(rows, op)(*args)
    operand = args[0] if op == "compute" else list(args)
    with pytest.raises(ValueError) as read:
        Kernel.from_dict({"name": "x", "warps": [[[op, operand]]]})
    assert str(packed.value) == str(by_row.value) == str(read.value)
    assert builder.ops == [] and builder.args == []


@pytest.mark.parametrize("op, args", [
    ("compute", (2.5,)), ("compute", ("3",)), ("compute", (None,)),
    ("compute", (True,)), ("load", ("3",)), ("load", (3.0,)),
    ("store", (3, 4.0)), ("atomic", (False,)),
], ids=["compute-float", "compute-str", "compute-none", "compute-bool",
        "load-str", "load-float", "store-float", "atomic-bool"])
def test_row_functions_reject_non_integer_operands(op, args):
    """The row function refuses each of these rows with the
    ``ValueError`` the JSON reader raises.  A float or string operand
    was once packed as written and failed inside the SMs or caches (a
    float cycle count in a shift, a string address in bank routing, a
    float address as a list index), and a bool ran as 0 or 1."""
    with pytest.raises(ValueError, match="malformed instruction") \
            as by_row:
        getattr(rows, op)(*args)
    operand = args[0] if op == "compute" else list(args)
    with pytest.raises(ValueError) as read:
        Kernel.from_dict({"name": "x", "warps": [[[op, operand]]]})
    assert str(by_row.value) == str(read.value)


def test_hand_written_kernel_with_a_float_never_reaches_the_sms():
    with pytest.raises(ValueError, match=r"compute\(2\.5\)"):
        Kernel("k", [[compute(2.5), load(3), fence()]])


def _operand_tuples(kernel):
    return [arg for trace in kernel.traces for op, arg in trace
            if OP_LOAD <= op <= OP_ATOMIC]


def _assert_one_tuple_per_value(kernel):
    operands = _operand_tuples(kernel)
    assert operands
    assert len({id(arg) for arg in operands}) == len(set(operands))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_kernel_holds_each_operand_once(name):
    """A generator hands one operand table to all its builders, so
    equal address sets anywhere in the kernel are one tuple."""
    _assert_one_tuple_per_value(build_workload(name, scale=0.3, seed=SEED))


@pytest.mark.parametrize("name", ["BFS", "KM", "NZP"])
def test_kernel_read_from_json_holds_each_operand_once(name):
    kernel = build_workload(name, scale=0.3, seed=SEED)
    replayed = Kernel.from_dict(json.loads(json.dumps(kernel.to_dict())))
    _assert_one_tuple_per_value(replayed)
    assert replayed.to_dict() == kernel.to_dict()


def test_hand_written_kernel_holds_each_operand_once():
    """Rows packed by the constructor share one operand table across
    warps; a trace packed on its own interns within itself."""
    kernel = Kernel("repeat", [[load(3, 4), store(3), load(3, 4), fence()],
                               [load(3, 4), atomic(3), fence()],
                               [compute(2), load(3, 4), fence()]])
    _assert_one_tuple_per_value(kernel)
    assert len({id(arg) for arg in _operand_tuples(kernel)}) == 2
    alone = pack_trace([load(5), load(5), store(5)])
    assert alone.args[0] is alone.args[1] is alone.args[2]


def test_compile_kernel_returns_a_compiled_kernel_validated():
    kernel = Kernel("k", [[fence()]])
    assert compile_kernel(kernel) is kernel
    with pytest.raises(ValueError, match="no warps"):
        compile_kernel(Kernel("e", []))


def test_compiled_validate_matches_kernel_validate():
    with pytest.raises(ValueError, match="barriers"):
        Kernel("b", [[barrier()], [barrier()]], cta_size=1).validate()
    with pytest.raises(ValueError, match="no warps"):
        Kernel("e", []).validate()


# ---------------------------------------------------------------------------
# simulated equivalence: every generator, every protocol
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS,
                         ids=[p.value for p in PROTOCOLS])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_compiled_path_is_byte_identical(name, protocol):
    """A generated kernel and its JSON replay — rows read back through
    the row functions and packed by the constructor, the path of a
    saved or hand-written kernel — simulate identically."""
    generated = build_workload(name, scale=SCALE, seed=SEED)
    replayed = Kernel.from_dict(json.loads(json.dumps(generated.to_dict())))
    assert _run(replayed, protocol) == _run(generated, protocol)


# ---------------------------------------------------------------------------
# what the generators emit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_builds_a_compiled_kernel(name):
    kernel = build_workload(name, scale=0.15, seed=SEED)
    assert isinstance(kernel, Kernel)
    assert all(isinstance(trace, CompiledTrace) for trace in kernel.traces)


def _trace_digest(kernel) -> str:
    blob = json.dumps(kernel.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(TRACE_GOLDEN["digests"]))
def test_generated_trace_matches_recorded_digest(key):
    """Every generator emits byte-for-byte the trace recorded here, so
    no change to a generator's output goes unnoticed."""
    name, scale, seed = key.split("|")
    kernel = build_workload(name, scale=float(scale), seed=int(seed))
    assert _trace_digest(kernel) == TRACE_GOLDEN["digests"][key]


def test_trace_digests_cover_every_workload_at_this_version():
    """Guard the fixture: it pins two traces of every workload, and a
    generator whose output changes must re-record its digests."""
    names = [key.split("|")[0] for key in TRACE_GOLDEN["digests"]]
    assert sorted(set(names)) == sorted(WORKLOADS)
    assert len(names) == 2 * len(WORKLOADS)
