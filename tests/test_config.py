"""Unit tests for GPUConfig."""

import pytest

from repro.config import (
    CombiningPolicy,
    Consistency,
    GPUConfig,
    Protocol,
    VisibilityPolicy,
)


def test_paper_preset_matches_section_vi_a():
    config = GPUConfig.paper()
    assert config.num_sms == 16
    assert config.max_warps_per_sm == 48
    assert config.threads_per_warp == 32
    assert config.l1_size == 16 * 1024
    assert config.num_l2_banks == 8
    assert config.total_l2_size == 1024 * 1024  # 1MB overall


def test_default_protocol_is_gtsc_rc():
    config = GPUConfig()
    assert config.protocol is Protocol.GTSC
    assert config.consistency is Consistency.RC
    assert config.visibility is VisibilityPolicy.DELAY
    assert config.combining is CombiningPolicy.MSHR


def test_derived_geometry():
    config = GPUConfig.paper()
    assert config.l1_sets * config.l1_assoc * config.line_size \
        == config.l1_size
    assert config.l2_sets * config.l2_assoc * config.line_size \
        == config.l2_bank_size


def test_bank_interleaving_covers_all_banks():
    config = GPUConfig.paper()
    banks = {config.bank_of(addr) for addr in range(64)}
    assert banks == set(range(config.num_l2_banks))


def test_sixteen_bit_timestamps_by_default():
    assert GPUConfig().ts_max == 65535


def test_invalid_l1_geometry_rejected():
    with pytest.raises(ValueError):
        GPUConfig(l1_size=1000)  # not a multiple of assoc*line


def test_invalid_l2_geometry_rejected():
    with pytest.raises(ValueError):
        GPUConfig(l2_bank_size=1000)


def test_nonpositive_lease_rejected():
    with pytest.raises(ValueError):
        GPUConfig(lease=0)


def test_ts_max_must_exceed_lease():
    with pytest.raises(ValueError):
        GPUConfig(lease=100, ts_max=150)


@pytest.mark.parametrize("interval", [0, -1])
def test_mshr_retry_interval_below_one_rejected(interval):
    # 0 would retry a refused access in the cycle that refused it, and
    # a negative delay would fail part-way through a run
    with pytest.raises(ValueError, match="mshr_retry_interval"):
        GPUConfig(mshr_retry_interval=interval)


def test_with_changes_returns_new_frozen_instance():
    base = GPUConfig.small()
    changed = base.with_changes(lease=16)
    assert changed.lease == 16
    assert base.lease != 16 or base.lease == 10
    with pytest.raises(Exception):
        base.lease = 99  # frozen dataclass


def test_presets_accept_overrides():
    config = GPUConfig.small(protocol=Protocol.TC,
                             consistency=Consistency.SC)
    assert config.protocol is Protocol.TC
    assert config.consistency is Consistency.SC


def test_tiny_preset_is_smaller_than_small():
    tiny, small = GPUConfig.tiny(), GPUConfig.small()
    assert tiny.num_sms < small.num_sms
    assert tiny.l1_size < small.l1_size


def test_describe_mentions_protocol_and_lease():
    text = GPUConfig.small(lease=12).describe()
    assert "gtsc" in text
    assert "lease=12" in text
