"""Tests for the validators themselves — they must catch real
violations, not just bless everything."""

import pytest

from repro.config import GPUConfig, Protocol
from repro.gpu.gpu import make_gpu
from repro.validate.checker import (
    CoherenceViolation,
    check_gtsc_log,
    check_single_writer_logical,
    check_warp_monotonicity,
)
from repro.validate.versions import (
    AccessLog,
    LoadRecord,
    StoreRecord,
    VersionStore,
)

from tests.conftest import racing_atomics


def make_load(warp=0, addr=0, version=0, ts=1, epoch=0, cycle=10,
              hit=False):
    return LoadRecord(warp_uid=warp, addr=addr, version=version,
                      logical_ts=ts, epoch=epoch, issue_cycle=cycle - 5,
                      complete_cycle=cycle, l1_hit=hit)


def make_store(warp=0, addr=0, version=1, ts=10, epoch=0, cycle=10):
    return StoreRecord(warp_uid=warp, addr=addr, version=version,
                       logical_ts=ts, epoch=epoch, issue_cycle=cycle - 5,
                       complete_cycle=cycle)


# ---------------------------------------------------------------------------
# VersionStore
# ---------------------------------------------------------------------------

def test_version_numbers_increase_per_address():
    store = VersionStore()
    assert store.new_version(0) == 1
    assert store.new_version(0) == 2
    assert store.new_version(1) == 1
    assert store.latest(0) == 2
    assert store.latest(99) == 0


def test_wts_bookkeeping():
    store = VersionStore()
    store.new_version(0)
    store.record_wts(0, 1, wts=12, epoch=0)
    assert store.wts_of(0, 1) == (0, 12)
    assert store.wts_of(0, 0) == (0, 0)  # initial memory
    assert store.write_order(0) == [(0, 12, 1)]


def test_wts_of_unrecorded_version_raises():
    store = VersionStore()
    store.new_version(0)
    with pytest.raises(KeyError):
        store.wts_of(0, 1)


# ---------------------------------------------------------------------------
# timestamp-order value check
# ---------------------------------------------------------------------------

def _store_with_wts(versions, addr, version, wts, epoch=0):
    assert versions.new_version(addr) == version
    versions.record_wts(addr, version, wts, epoch)


def test_value_check_accepts_correct_window():
    versions = VersionStore()
    _store_with_wts(versions, 0, 1, wts=10)
    log = AccessLog()
    log.loads.append(make_load(version=0, ts=5))    # before the store
    log.loads.append(make_load(version=1, ts=10))   # at the store
    log.loads.append(make_load(version=1, ts=50))   # after
    assert check_gtsc_log(log, versions) == 3


def test_value_check_rejects_future_read():
    """A load must not observe a version from its logical future."""
    versions = VersionStore()
    _store_with_wts(versions, 0, 1, wts=10)
    log = AccessLog()
    log.loads.append(make_load(version=1, ts=5))  # reads v1 before wts 10
    with pytest.raises(CoherenceViolation, match="requires version 0"):
        check_gtsc_log(log, versions)


def test_value_check_rejects_stale_read():
    versions = VersionStore()
    _store_with_wts(versions, 0, 1, wts=10)
    log = AccessLog()
    log.loads.append(make_load(version=0, ts=20))  # v1 window covers 20
    with pytest.raises(CoherenceViolation, match="requires version 1"):
        check_gtsc_log(log, versions)


def test_value_check_handles_out_of_mint_order_timestamps():
    """Versions processed at the L2 out of mint order still validate."""
    versions = VersionStore()
    _store_with_wts(versions, 0, 1, wts=30)   # minted first, later wts
    assert versions.new_version(0) == 2
    versions.record_wts(0, 2, wts=12)         # minted second, earlier wts
    log = AccessLog()
    log.loads.append(make_load(version=2, ts=20))
    log.loads.append(make_load(version=1, ts=40))
    assert check_gtsc_log(log, versions) == 2


def test_value_check_epoch_boundaries():
    versions = VersionStore()
    _store_with_wts(versions, 0, 1, wts=100, epoch=0)
    assert versions.new_version(0) == 2
    versions.record_wts(0, 2, wts=5, epoch=1)  # after a reset
    log = AccessLog()
    log.loads.append(make_load(version=1, ts=3, epoch=1))   # pre-v2 window
    log.loads.append(make_load(version=2, ts=6, epoch=1))
    assert check_gtsc_log(log, versions) == 2


# ---------------------------------------------------------------------------
# monotonicity (SC) check
# ---------------------------------------------------------------------------

def test_monotonicity_accepts_nondecreasing():
    log = AccessLog()
    log.loads.append(make_load(ts=1, cycle=10))
    log.stores.append(make_store(ts=5, cycle=20))
    log.loads.append(make_load(ts=5, cycle=30))
    check_warp_monotonicity(log)


def test_monotonicity_rejects_backwards_clock():
    log = AccessLog()
    log.stores.append(make_store(ts=50, cycle=10))
    log.loads.append(make_load(ts=20, cycle=20))
    with pytest.raises(CoherenceViolation, match="backwards"):
        check_warp_monotonicity(log)


def test_monotonicity_resets_across_epochs():
    log = AccessLog()
    log.stores.append(make_store(ts=500, cycle=10, epoch=0))
    log.loads.append(make_load(ts=2, cycle=20, epoch=1))  # after a reset
    check_warp_monotonicity(log)


def test_monotonicity_tracks_warps_independently():
    log = AccessLog()
    log.stores.append(make_store(warp=0, ts=50, cycle=10))
    log.loads.append(make_load(warp=1, ts=5, cycle=20))
    check_warp_monotonicity(log)


# ---------------------------------------------------------------------------
# single-writer check
# ---------------------------------------------------------------------------

def test_single_writer_accepts_increasing_processing_order():
    versions = VersionStore()
    _store_with_wts(versions, 0, 1, wts=10)
    assert versions.new_version(0) == 2
    versions.record_wts(0, 2, wts=25)
    log = AccessLog()
    log.stores.append(make_store(version=1))
    assert check_single_writer_logical(log, versions) == 2


def test_single_writer_rejects_equal_timestamps():
    versions = VersionStore()
    _store_with_wts(versions, 0, 1, wts=10)
    assert versions.new_version(0) == 2
    versions.record_wts(0, 2, wts=10)  # duplicate wts: forbidden
    log = AccessLog()
    log.stores.append(make_store(version=1))
    with pytest.raises(CoherenceViolation, match="processing order"):
        check_single_writer_logical(log, versions)


# ---------------------------------------------------------------------------
# AccessLog plumbing
# ---------------------------------------------------------------------------

def test_disabled_log_records_nothing():
    """Every protocol checks ``log.enabled`` before it records, so an
    unrecorded run of loads, stores and atomics leaves the log empty."""
    for protocol in Protocol:
        gpu = make_gpu(GPUConfig.tiny(protocol=protocol),
                       record_accesses=False)
        gpu.run(racing_atomics())
        log = gpu.machine.log
        assert (log.loads, log.stores, log.atomics) == ([], [], []), \
            protocol


def test_loads_of_filters_by_address():
    log = AccessLog()
    log.loads.append(make_load(addr=1))
    log.loads.append(make_load(addr=2))
    log.loads.append(make_load(addr=1))
    assert len(log.loads_of(1)) == 2
