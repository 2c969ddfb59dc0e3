#!/usr/bin/env python3
"""Timestamp inspector: watch G-TSC order memory operations.

Runs the paper's Section IV example — two SMs cross-accessing X and Y
(Figure 9) — and prints the logical-time story of the execution: every
version's write timestamp, every load's logical time, and the total
order G-TSC constructed.  A compact way to see "time travel" happen:
the store is physically early but logically late (or vice versa).

Run:  python examples/timestamp_inspector.py
"""

from repro import Consistency, GPUConfig, Protocol
from repro.gpu.gpu import GPU
from repro.trace import Kernel, fence, load, store

X, Y = 0, 1


def main() -> None:
    config = GPUConfig.tiny(protocol=Protocol.GTSC,
                            consistency=Consistency.SC, lease=10)
    kernel = Kernel("figure9", [
        [load(X), store(Y), load(X), fence()],   # warp A on SM0
        [load(Y), store(X), load(Y), fence()],   # warp B on SM1
    ])
    gpu = GPU(config)
    gpu.run(kernel)
    log, versions = gpu.machine.log, gpu.machine.versions

    def line_name(addr):
        return {X: "X", Y: "Y"}[addr]

    print("stores (global write order per line):")
    for addr in (X, Y):
        for epoch, wts, version in versions.write_order(addr):
            writer = next(s.warp_uid for s in log.stores
                          if s.addr == addr and s.version == version)
            cycle = next(s.complete_cycle for s in log.stores
                         if s.addr == addr and s.version == version)
            print(f"  {line_name(addr)} <- v{version} by warp {writer}: "
                  f"logical ts {wts:3d}, physical cycle {cycle:4d}")

    print("\nloads:")
    for record in sorted(log.loads, key=lambda r: r.complete_cycle):
        print(f"  warp {record.warp_uid} read "
              f"{line_name(record.addr)}=v{record.version} at logical "
              f"ts {record.logical_ts:3d}, physical cycle "
              f"{record.complete_cycle:4d} "
              f"({'hit' if record.l1_hit else 'miss'})")

    print("\nglobal memory order implied by the timestamps "
          "(ties broken by physical time):")
    events = []
    for record in log.loads:
        events.append((record.logical_ts, record.complete_cycle,
                       f"warp {record.warp_uid}: LD "
                       f"{line_name(record.addr)} -> v{record.version}"))
    for record in log.stores:
        events.append((record.logical_ts, record.complete_cycle,
                       f"warp {record.warp_uid}: ST "
                       f"{line_name(record.addr)} = v{record.version}"))
    for logical, physical, text in sorted(events):
        print(f"  ts {logical:3d} (cycle {physical:4d})  {text}")

    print("\nNote how a store can be *physically* early yet ordered "
          "*logically* after reads whose leases it respected — the "
          "time-travel trick that removes TC's write stalls.")


if __name__ == "__main__":
    main()
