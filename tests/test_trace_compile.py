"""Compiled traces: format round-trips, simulated equivalence, digests.

The workload generators write packed traces directly through
:class:`TraceBuilder`.  That is pure packaging: every generated
kernel must simulate to a ``RunStats.to_dict()`` byte-identical to
its authoring-level :class:`Kernel` compiled at launch, under every
protocol, and every generated trace must match the sha256 digest
recorded in ``tests/golden/trace_digests.json``.
"""

import hashlib
import json
import os

import pytest

import repro.trace.instr as authoring
from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace.compiled import (
    OP_ATOMIC,
    OP_BARRIER,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    CompiledKernel,
    TraceBuilder,
    compile_kernel,
    compile_trace,
)
from repro.trace.instr import Instr, Kernel
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
    trace = compile_trace([
        Instr("compute", cycles=3),
        Instr("load", addrs=(64, 128)),
        Instr("store", addrs=(64,)),
        Instr("atomic", addrs=(192,)),
        Instr("fence"),
        Instr("barrier"),
    ])
    assert trace.ops == [OP_COMPUTE, OP_LOAD, OP_STORE, OP_ATOMIC,
                         OP_FENCE, OP_BARRIER]
    assert trace.args == [3, (64, 128), (64,), (192,), None, None]
    assert len(trace) == 6


def test_compiled_trace_decompiles_to_the_same_instructions():
    instrs = [Instr("load", addrs=(64,)), Instr("compute", cycles=2),
              Instr("fence")]
    assert compile_trace(instrs).instructions() == instrs


def test_compiled_kernel_mirrors_kernel_surface():
    kernel = Kernel(name="k", warp_traces=[
        [Instr("load", addrs=(64,)), Instr("store", addrs=(128,))],
        [Instr("compute", cycles=1)],
    ])
    compiled = compile_kernel(kernel)
    assert compiled.name == kernel.name
    assert compiled.cta_size == kernel.cta_size
    assert compiled.num_warps == kernel.num_warps
    assert compiled.total_instructions == kernel.total_instructions
    assert compiled.num_ctas == kernel.num_ctas
    assert compiled.memory_footprint() == kernel.memory_footprint()


def test_compiled_kernel_dict_round_trip():
    kernel = Kernel(name="rt", cta_size=2, warp_traces=[
        [Instr("load", addrs=(64, 128)), Instr("barrier"),
         Instr("atomic", addrs=(256,))],
        [Instr("compute", cycles=5), Instr("barrier"), Instr("fence")],
    ])
    compiled = compile_kernel(kernel)
    rebuilt = CompiledKernel.from_dict(
        json.loads(json.dumps(compiled.to_dict())))
    assert rebuilt.to_dict() == compiled.to_dict()
    assert rebuilt.decompile() == kernel


def test_from_dict_rejects_unknown_format_and_opcodes():
    with pytest.raises(ValueError, match="format"):
        CompiledKernel.from_dict({"format": 99, "name": "x",
                                  "cta_size": 1, "warps": [[["load", [0]]]]})
    with pytest.raises(ValueError, match="opcode"):
        CompiledKernel.from_dict({"format": 1, "name": "x",
                                  "cta_size": 1, "warps": [[["jump"]]]})


@pytest.mark.parametrize("op, args", [
    ("load", ()), ("store", ()), ("atomic", ()),
    ("compute", (0,)), ("compute", (-1,)),
])
def test_trace_builder_raises_what_instr_raises(op, args):
    builder = TraceBuilder()
    with pytest.raises(ValueError) as packed:
        getattr(builder, op)(*args)
    with pytest.raises(ValueError) as authored:
        getattr(authoring, op)(*args)
    assert str(packed.value) == str(authored.value)
    assert builder.ops == [] and builder.args == []


def test_compile_kernel_returns_a_compiled_kernel_validated():
    compiled = compile_kernel(Kernel("k", [[Instr("fence")]]))
    assert compile_kernel(compiled) is compiled
    with pytest.raises(ValueError, match="no warps"):
        compile_kernel(CompiledKernel("e", []))


def test_compiled_validate_matches_kernel_validate():
    with pytest.raises(ValueError, match="barriers"):
        CompiledKernel("b", [
            compile_trace([Instr("barrier")]),
            compile_trace([Instr("barrier")]),
        ], cta_size=1).validate()
    with pytest.raises(ValueError, match="no warps"):
        CompiledKernel("e", []).validate()


# ---------------------------------------------------------------------------
# simulated equivalence: every generator, every protocol
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS,
                         ids=[p.value for p in PROTOCOLS])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_compiled_path_is_byte_identical(name, protocol):
    generated = build_workload(name, scale=SCALE, seed=SEED)
    assert isinstance(generated, CompiledKernel)
    expected = _run(generated, protocol)
    # the authoring-level kernel, compiled at launch
    assert _run(generated.decompile(), protocol) == expected


# ---------------------------------------------------------------------------
# what the generators emit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_builds_a_compiled_kernel(name):
    kernel = build_workload(name, scale=0.15, seed=SEED)
    assert isinstance(kernel, CompiledKernel)


def _trace_digest(kernel) -> str:
    blob = json.dumps(compile_kernel(kernel).to_dict(), sort_keys=True)
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
