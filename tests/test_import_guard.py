"""Nothing in the simulator or its front ends tries to import numpy.

Every fresh interpreter that runs the model — each CLI command, each
serve worker — would otherwise pay numpy's import time and resident
memory.  The check runs in a fresh interpreter behind a ``sys.meta_path``
finder that records every attempt to import numpy and fails it as if
numpy were absent.  Trapping the attempt (rather than inspecting
``sys.modules`` afterwards) catches an optional ``try: import numpy``
too, whether or not numpy is installed.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = r"""
import sys

attempts = []


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
            raise ImportError(f"{name} is blocked by the import guard")
        return None


sys.meta_path.insert(0, BlockNumpy())

import repro
import repro.cli
import repro.harness.report
import repro.multigpu
import repro.serve.fleet
from repro.config import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.workloads import build_workload

config = GPUConfig.tiny(protocol=Protocol.GTSC, consistency=Consistency.RC)
kernel = build_workload("BFS", scale=0.1, seed=2018)
stats = make_gpu(config, record_accesses=False).run(kernel)
assert stats.cycles > 0
print("numpy import attempts:", attempts)
"""


def test_no_module_attempts_to_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("numpy import attempts: []"), \
        result.stdout
