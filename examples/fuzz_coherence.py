#!/usr/bin/env python3
"""Coherence fuzzer: random kernels, exhaustively checked.

Generates random mixed load/store/atomic/fence kernels over a small
hot footprint, runs each on a tiny machine under G-TSC, and verifies
*every* recorded operation against the timestamp-ordering invariants —
including runs forced through timestamp-overflow resets.  Prints the
number of proof obligations discharged.

This is the library's correctness story in one command: thousands of
checked loads across MSHR combining, update-visibility locking,
evictions, renewals, resets and atomics.

Run:  python examples/fuzz_coherence.py [ITERATIONS]
"""

import random
import sys

from repro import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import Kernel, atomic, compute, fence, load, store
from repro.validate import (
    check_atomicity,
    check_gtsc_log,
    check_single_writer_logical,
    check_warp_monotonicity,
)


def random_kernel(rng: random.Random) -> Kernel:
    warps = rng.randrange(2, 6)
    lines = rng.choice([3, 6, 12, 48])
    traces = []
    for _ in range(warps):
        trace = []
        for _ in range(rng.randrange(20, 60)):
            roll = rng.random()
            if roll < 0.45:
                trace.append(load(rng.randrange(lines)))
            elif roll < 0.70:
                trace.append(store(rng.randrange(lines)))
            elif roll < 0.80:
                trace.append(atomic(rng.randrange(lines)))
            elif roll < 0.90:
                trace.append(fence())
            else:
                trace.append(compute(rng.randrange(1, 6)))
        trace.append(fence())
        traces.append(trace)
    return Kernel("fuzz", traces)


def random_config(rng: random.Random) -> GPUConfig:
    return GPUConfig.tiny(
        protocol=Protocol.GTSC,
        consistency=rng.choice([Consistency.SC, Consistency.RC]),
        lease=rng.choice([4, 10, 20]),
        ts_max=rng.choice([511, 2047, 65535]),
    )


def main() -> None:
    iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    rng = random.Random(20180224)  # HPCA'18 conference date
    totals = {"loads": 0, "stores": 0, "atomics": 0, "overflows": 0}
    for index in range(iterations):
        kernel = random_kernel(rng)
        config = random_config(rng)
        gpu = GPU(config)
        stats = gpu.run(kernel)
        log, versions = gpu.machine.log, gpu.machine.versions

        totals["loads"] += check_gtsc_log(log, versions)
        totals["stores"] += check_single_writer_logical(log, versions)
        totals["atomics"] += check_atomicity(log, versions)
        if config.consistency is Consistency.SC:
            check_warp_monotonicity(log)
        totals["overflows"] += stats.counter("ts_overflows")

        if (index + 1) % 10 == 0:
            print(f"  {index + 1}/{iterations} kernels: "
                  f"{totals['loads']} loads, {totals['stores']} stores, "
                  f"{totals['atomics']} atomics verified "
                  f"({totals['overflows']} timestamp resets exercised)")

    print()
    print(f"fuzzed {iterations} random kernels under G-TSC:")
    print(f"  loads checked against timestamp order: {totals['loads']}")
    print(f"  stores checked for logical single-writer: "
          f"{totals['stores']}")
    print(f"  atomics checked for tear-freedom:       "
          f"{totals['atomics']}")
    print(f"  timestamp-overflow resets survived:     "
          f"{totals['overflows']}")
    print("no violations.")


if __name__ == "__main__":
    main()
