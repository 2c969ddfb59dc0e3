"""Litmus-test kernels for consistency-model validation.

Classic two-warp shapes (message passing, store buffering, coherence
of a single location) written by hand: each warp is a list of rows
made by the :mod:`repro.trace` row functions, which :class:`Kernel`
packs.  The test helpers run them many times with randomised timing
padding and check the *outcomes* against what each consistency model
permits:

* message passing with fences must never show the stale-data outcome
  under G-TSC (SC or RC-with-fences) or TC-Strong;
* a single location must never appear to go backwards in any coherent
  configuration.

Outcome extraction works on the recorded access log: the helper
returns, for each observing load, the version it consumed.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.trace.compiled import Kernel, Row, compute, fence, load, store
from repro.validate.versions import AccessLog


# fixed, well-separated line addresses for the two variables
X_LINE = 3
Y_LINE = 10


def _pad(rng: random.Random, limit: int) -> List[Row]:
    """Random compute padding to perturb interleavings."""
    cycles = rng.randrange(1, limit + 1)
    return [compute(cycles)]


def message_passing(rng: random.Random, with_fences: bool = True) -> Kernel:
    """MP: W0 writes data then flag; W1 polls flag then reads data.

    With fences, a reader that observes the flag write must also
    observe the data write.  The reader polls the flag several times
    so at least one observation usually lands after the writer.
    """
    writer: List[Row] = []
    writer += _pad(rng, 30)
    writer.append(store(X_LINE))            # data
    if with_fences:
        writer.append(fence())
    writer.append(store(Y_LINE))            # flag
    writer.append(fence())

    reader: List[Row] = []
    reader += _pad(rng, 30)
    for _ in range(12):
        reader.append(load(Y_LINE))         # poll the flag
        if with_fences:
            reader.append(fence())
        reader.append(load(X_LINE))         # read the data
        reader += _pad(rng, 8)
    reader.append(fence())
    return Kernel("litmus-mp", [writer, reader])


def store_buffering(rng: random.Random) -> Kernel:
    """SB: W0 writes X then reads Y; W1 writes Y then reads X.

    Under SC at most one warp may read the initial value (0); both
    reading 0 would require reordering that SC forbids.
    """
    w0: List[Row] = []
    w0 += _pad(rng, 10)
    w0.append(store(X_LINE))
    w0.append(load(Y_LINE))
    w0.append(fence())

    w1: List[Row] = []
    w1 += _pad(rng, 10)
    w1.append(store(Y_LINE))
    w1.append(load(X_LINE))
    w1.append(fence())
    return Kernel("litmus-sb", [w0, w1])


def single_location(rng: random.Random, writers: int = 2,
                    readers: int = 2, stores_per_writer: int = 6,
                    loads_per_reader: int = 12) -> Kernel:
    """Coherence litmus: many writers and readers of one line.

    Every reader's observed version sequence must be non-decreasing —
    a location never appears to travel back in time.
    """
    traces: List[List[Row]] = []
    for _w in range(writers):
        t: List[Row] = []
        for _ in range(stores_per_writer):
            t += _pad(rng, 12)
            t.append(store(X_LINE))
        t.append(fence())
        traces.append(t)
    for _r in range(readers):
        t = []
        for _ in range(loads_per_reader):
            t += _pad(rng, 6)
            t.append(load(X_LINE))
        t.append(fence())
        traces.append(t)
    return Kernel("litmus-1loc", traces)


def iriw(rng: random.Random) -> Kernel:
    """IRIW: independent readers, independent writers.

    W0 writes X, W1 writes Y; R2 reads X then Y, R3 reads Y then X.
    Under a write-atomic model (SC) the two readers can never disagree
    about the order of the independent writes: the combined outcome
    "R2 saw X-before-Y *and* R3 saw Y-before-X" is forbidden.

    Note: with the tiny config's 2 warps/SM, the four warps land on
    two SMs (writer+reader pairs), which is the harder variant —
    readers may share an L1 with a writer.
    """
    w0: List[Row] = _pad(rng, 20) + [store(X_LINE), fence()]
    w1: List[Row] = _pad(rng, 20) + [store(Y_LINE), fence()]
    r2: List[Row] = _pad(rng, 25) + [load(X_LINE), load(Y_LINE),
                                       fence()]
    r3: List[Row] = _pad(rng, 25) + [load(Y_LINE), load(X_LINE),
                                       fence()]
    return Kernel("litmus-iriw", [w0, w1, r2, r3])


def iriw_outcome(log: AccessLog) -> Tuple[Tuple[int, int],
                                          Tuple[int, int]]:
    """((r2_x, r2_y), (r3_y, r3_x)) in each reader's program order."""
    def reads_of(uid):
        records = sorted((r for r in log.loads if r.warp_uid == uid),
                         key=lambda r: r.complete_cycle)
        return [(r.addr, r.version) for r in records]

    r2 = reads_of(2)
    r3 = reads_of(3)
    r2_x = next(v for a, v in r2 if a == X_LINE)
    r2_y = next(v for a, v in r2 if a == Y_LINE)
    r3_y = next(v for a, v in r3 if a == Y_LINE)
    r3_x = next(v for a, v in r3 if a == X_LINE)
    return (r2_x, r2_y), (r3_y, r3_x)


# ---------------------------------------------------------------------------
# outcome extraction
# ---------------------------------------------------------------------------

def mp_outcomes(log: AccessLog) -> List[Tuple[int, int]]:
    """(flag_version, data_version) pairs seen by the MP reader.

    The reader alternates flag/data loads, so pairing consecutive
    (Y, X) observations in completion order recovers each poll.
    """
    reader_loads = sorted(
        (r for r in log.loads if r.addr in (X_LINE, Y_LINE)),
        key=lambda r: (r.warp_uid, r.complete_cycle),
    )
    pairs: List[Tuple[int, int]] = []
    flag_version = None
    for record in reader_loads:
        if record.warp_uid != 1:
            continue
        if record.addr == Y_LINE:
            flag_version = record.version
        elif flag_version is not None:
            pairs.append((flag_version, record.version))
            flag_version = None
    return pairs


def observed_versions(log: AccessLog, warp_uid: int,
                      addr: int = X_LINE) -> List[int]:
    """The version sequence one warp observed for ``addr``."""
    loads = [r for r in log.loads
             if r.warp_uid == warp_uid and r.addr == addr]
    loads.sort(key=lambda r: r.complete_cycle)
    return [r.version for r in loads]
