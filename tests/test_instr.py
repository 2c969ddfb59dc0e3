"""Unit tests for instruction rows and kernel records."""

import pytest

from repro.trace import (
    OP_ATOMIC,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    Kernel,
    compute,
    fence,
    load,
    store,
)


def test_constructors_set_opcodes():
    assert load(1)[0] == OP_LOAD
    assert store(2)[0] == OP_STORE
    assert fence()[0] == OP_FENCE
    assert compute(3)[0] == OP_COMPUTE


def test_load_carries_multiple_coalesced_addresses():
    assert load(4, 5, 6) == (OP_LOAD, (4, 5, 6))


def test_fence_and_compute_are_not_memory():
    # the SM's "is this a memory access" check is this range
    for op, _ in (fence(), compute(1)):
        assert not OP_LOAD <= op <= OP_ATOMIC


def test_memory_instr_requires_addresses():
    with pytest.raises(ValueError):
        load()
    with pytest.raises(ValueError):
        store()


def test_compute_requires_positive_cycles():
    with pytest.raises(ValueError):
        compute(0)


def test_unknown_opcode_rejected():
    with pytest.raises(ValueError, match="unknown opcode"):
        Kernel.from_dict({"name": "k", "warps": [[["jump"]]]})


def test_instr_is_immutable():
    row = load(1)
    with pytest.raises(TypeError):
        row[0] = OP_STORE


def test_kernel_counts():
    kernel = Kernel("k", [[load(0), store(1)], [compute(2)]])
    assert kernel.num_warps == 2
    assert kernel.total_instructions == 3


def test_kernel_footprint():
    kernel = Kernel("k", [[load(0, 3), store(3)], [load(7)]])
    assert kernel.memory_footprint() == {0, 3, 7}


def test_kernel_validate_rejects_empty():
    with pytest.raises(ValueError):
        Kernel("k", []).validate()
    with pytest.raises(ValueError):
        Kernel("k", [[load(0)], []]).validate()


def test_kernel_validate_accepts_wellformed():
    Kernel("k", [[load(0)], [fence()]]).validate()
