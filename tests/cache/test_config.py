"""Cache configuration derivations and validation."""

import pytest

from repro.cache.config import (
    STATUS_BITS,
    CacheConfig,
    kib_to_bytes,
    l1_config,
    l2_config,
)
from repro.errors import ConfigurationError


class TestDerived:
    def test_16k_two_way(self):
        config = CacheConfig(
            size_bytes=16 * 1024, block_bytes=32, associativity=2
        )
        assert config.n_blocks == 512
        assert config.n_sets == 256
        assert config.offset_bits == 5
        assert config.index_bits == 8
        assert config.tag_bits == 32 - 8 - 5

    def test_direct_mapped(self):
        config = CacheConfig(
            size_bytes=8 * 1024, block_bytes=64, associativity=1
        )
        assert config.n_sets == config.n_blocks == 128

    def test_fully_associative(self):
        config = CacheConfig(
            size_bytes=4 * 1024, block_bytes=64, associativity=64
        )
        assert config.n_sets == 1
        assert config.index_bits == 0

    def test_bits_per_way(self):
        config = CacheConfig(
            size_bytes=16 * 1024, block_bytes=32, associativity=2
        )
        assert config.bits_per_way == 32 * 8 + config.tag_bits + STATUS_BITS

    def test_total_storage_exceeds_data(self):
        config = CacheConfig(size_bytes=16 * 1024)
        assert config.total_storage_bits > 16 * 1024 * 8

    def test_size_kb(self):
        assert CacheConfig(size_bytes=16 * 1024).size_kb == 16.0

    def test_describe_mentions_shape(self):
        text = CacheConfig(size_bytes=16 * 1024, name="L1").describe()
        assert "L1" in text and "16 KB" in text


class TestValidation:
    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=10_000)

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=16 * 1024, block_bytes=48)

    def test_rejects_block_bigger_than_cache(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=64, block_bytes=128)

    def test_rejects_excess_associativity(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(
                size_bytes=1024, block_bytes=64, associativity=32
            )

    def test_rejects_sub_byte_port(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=16 * 1024, output_bits=4)

    def test_rejects_address_too_narrow(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(
                size_bytes=16 * 1024 * 1024,
                block_bytes=64,
                associativity=1,
                address_bits=24,
            )


class TestPresets:
    def test_l1_preset(self):
        config = l1_config(16)
        assert config.size_bytes == 16 * 1024
        assert config.name == "L1"

    def test_l2_preset(self):
        config = l2_config(1024)
        assert config.size_bytes == 1024 * 1024
        assert config.associativity == 8
        assert config.output_bits == 256

    def test_presets_are_valid_configs(self):
        for kb in (4, 64):
            l1_config(kb)
        for kb in (128, 4096):
            l2_config(kb)


class TestKibToBytes:
    @pytest.mark.parametrize("size_kb", [16, 16.0])
    def test_whole_bytes_accepted(self, size_kb):
        assert kib_to_bytes(size_kb) == 16384
        assert l1_config(size_kb).size_bytes == 16384

    @pytest.mark.parametrize("size_kb", [16.0004, float("nan"),
                                         float("inf")])
    def test_fractional_bytes_rejected(self, size_kb):
        with pytest.raises(ConfigurationError):
            kib_to_bytes(size_kb)
        with pytest.raises(ConfigurationError):
            l2_config(size_kb)

