"""Tests for the kernel JSON codec: ``Kernel.to_dict`` / ``from_dict``."""

import json

import pytest

from repro.config import GPUConfig, Protocol
from repro.trace import Kernel, atomic, compute, fence, load, store
from repro.workloads import ALL_NAMES, build_workload

from tests.conftest import run_gpu


def sample_kernel():
    return Kernel("sample", [
        [load(0, 1), compute(4), store(2), fence()],
        [atomic(5), load(3), fence()],
    ])


def one_warp(*rows):
    """A JSON kernel whose only warp is ``rows``."""
    return {"format": 1, "name": "k", "cta_size": 1, "warps": [list(rows)]}


def rows_of(kernel):
    return [list(trace) for trace in kernel.traces]


def test_instr_round_trip():
    for row in (load(1, 2, 3), store(9), compute(7), fence(),
                atomic(4)):
        kernel = Kernel("k", [[row]])
        assert rows_of(Kernel.from_dict(kernel.to_dict())) == [[row]]


def test_kernel_round_trip():
    kernel = sample_kernel()
    rebuilt = Kernel.from_dict(kernel.to_dict())
    assert rebuilt.name == kernel.name
    assert rows_of(rebuilt) == rows_of(kernel)


def test_file_round_trip(tmp_path):
    path = tmp_path / "kernel.json"
    kernel = sample_kernel()
    path.write_text(json.dumps(kernel.to_dict()))
    rebuilt = Kernel.from_dict(json.loads(path.read_text()))
    assert rows_of(rebuilt) == rows_of(kernel)
    # file is honest JSON
    data = json.loads(path.read_text())
    assert data["name"] == "sample"


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_workload_round_trips(name):
    kernel = build_workload(name, scale=0.15, seed=4)
    rebuilt = Kernel.from_dict(json.loads(json.dumps(kernel.to_dict())))
    assert rows_of(rebuilt) == rows_of(kernel)


def test_replayed_kernel_gives_identical_stats(tmp_path):
    path = tmp_path / "trace.json"
    kernel = build_workload("STN", scale=0.15, seed=2)
    path.write_text(json.dumps(kernel.to_dict()))
    rebuilt = Kernel.from_dict(json.loads(path.read_text()))
    config = GPUConfig.tiny(protocol=Protocol.GTSC)
    _, original = run_gpu(config, kernel)
    _, replayed = run_gpu(config, rebuilt)
    assert original.cycles == replayed.cycles
    assert original.counters == replayed.counters


def test_malformed_instruction_rejected():
    for bad in (["jump", [1]], "load", ["compute"], [["load"]],
                ["load", 5], ["load", ["1"]], ["compute", "5"],
                ["compute", None]):
        with pytest.raises(ValueError):
            Kernel.from_dict(one_warp(bad))


@pytest.mark.parametrize("row, message", [
    (["load", []], "load needs at least one address"),
    (["compute", 0], "compute needs a positive cycle count"),
    (["compute", -3], "compute needs a positive cycle count"),
    (["load", [1], 2], "malformed instruction"),
    (["fence", 5], "malformed instruction"),
    (["load"], "malformed instruction"),
    ([], "malformed instruction"),
], ids=["load-no-address", "compute-zero", "compute-negative",
        "load-extra-operand", "fence-operand", "load-no-operand",
        "empty"])
def test_from_dict_rejects_malformed_row(row, message):
    """Each of these rows was once packed as written (or failed with
    an IndexError); a kernel holding one must not reach the SMs."""
    with pytest.raises(ValueError, match=message):
        Kernel.from_dict(one_warp(row, ["fence"]))


def test_unsupported_format_version_rejected():
    data = sample_kernel().to_dict()
    data["format"] = 99
    with pytest.raises(ValueError, match="version"):
        Kernel.from_dict(data)


def test_deserialized_kernel_is_validated():
    data = {"format": 1, "name": "bad", "warps": [[]]}
    with pytest.raises(ValueError):
        Kernel.from_dict(data)
