"""Tests for repro.units helpers."""

import pytest

from repro import units


class TestConstants:
    def test_binary_sizes(self):
        assert units.KIB == 1024
        assert units.MIB == 1024 ** 2
        assert units.GIB == 1024 ** 3
        assert units.TIB == 1024 ** 4

    def test_cacheline(self):
        assert units.CACHELINE_BYTES == 64


class TestConversions:
    def test_ns_to_s(self):
        assert units.ns_to_s(1_000_000_000) == 1.0

    def test_s_to_ns(self):
        assert units.s_to_ns(2.0) == 2_000_000_000

    def test_s_to_ns_rounds_to_an_int_once(self):
        assert type(units.s_to_ns(2.0)) is int
        assert units.s_to_ns(1e-6 / 3) == 333
        assert units.s_to_ns(0.0100000002) == 10_000_000

    def test_roundtrip(self):
        assert units.ns_to_s(units.s_to_ns(3.5)) == pytest.approx(3.5)


class TestPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 1024, 1 << 40])
    def test_true_for_powers(self, value):
        assert units.is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 1023])
    def test_false_otherwise(self, value):
        assert not units.is_power_of_two(value)

    @pytest.mark.parametrize("value,expected", [(1, 0), (2, 1), (1024, 10)])
    def test_log2_int(self, value, expected):
        assert units.log2_int(value) == expected

    def test_log2_int_rejects_non_power(self):
        with pytest.raises(ValueError):
            units.log2_int(10)


class TestFormatBytes:
    @pytest.mark.parametrize("value,expected", [
        (512, "512B"),
        (2 * units.MIB, "2.0MiB"),
        (units.GIB, "1.0GiB"),
        (3 * units.TIB, "3.0TiB"),
    ])
    def test_formats(self, value, expected):
        assert units.format_bytes(value) == expected
