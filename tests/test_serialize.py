"""Tests for kernel trace (de)serialization."""

import json

import pytest

from repro.config import GPUConfig, Protocol
from repro.trace.instr import Kernel, atomic, compute, fence, load, store
from repro.trace.serialize import (
    instr_from_obj,
    instr_to_obj,
    kernel_from_dict,
    kernel_to_dict,
    load_kernel,
    save_kernel,
)
from repro.workloads import ALL_NAMES, build_workload

from tests.conftest import run_gpu


def sample_kernel():
    return Kernel("sample", [
        [load(0, 1), compute(4), store(2), fence()],
        [atomic(5), load(3), fence()],
    ])


def test_instr_round_trip():
    for instr in (load(1, 2, 3), store(9), compute(7), fence(),
                  atomic(4)):
        assert instr_from_obj(instr_to_obj(instr)) == instr


def test_kernel_round_trip():
    kernel = sample_kernel()
    rebuilt = kernel_from_dict(kernel_to_dict(kernel))
    assert rebuilt.name == kernel.name
    assert rebuilt.warp_traces == kernel.warp_traces


def test_file_round_trip(tmp_path):
    path = tmp_path / "kernel.json"
    kernel = sample_kernel()
    save_kernel(kernel, path)
    rebuilt = load_kernel(path)
    assert rebuilt.warp_traces == kernel.warp_traces
    # file is honest JSON
    data = json.loads(path.read_text())
    assert data["name"] == "sample"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_workload_round_trips(name):
    kernel = build_workload(name, scale=0.15, seed=4).decompile()
    rebuilt = kernel_from_dict(kernel_to_dict(kernel))
    assert rebuilt.warp_traces == kernel.warp_traces


def test_replayed_kernel_gives_identical_stats(tmp_path):
    path = tmp_path / "trace.json"
    kernel = build_workload("STN", scale=0.15, seed=2)
    save_kernel(kernel.decompile(), path)
    rebuilt = load_kernel(path)
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    _, original = run_gpu(config, kernel)
    _, replayed = run_gpu(config, rebuilt)
    assert original.cycles == replayed.cycles
    assert original.counters == replayed.counters


def test_malformed_instruction_rejected():
    for bad in ([], ["jump", [1]], ["load"], "load", ["compute"],
                ["load", [1], 2]):
        with pytest.raises(ValueError):
            instr_from_obj(bad)


def test_unsupported_format_version_rejected():
    data = kernel_to_dict(sample_kernel())
    data["format"] = 99
    with pytest.raises(ValueError, match="version"):
        kernel_from_dict(data)


def test_deserialized_kernel_is_validated():
    data = {"format": 1, "name": "bad", "warps": [[]]}
    with pytest.raises(ValueError):
        kernel_from_dict(data)
