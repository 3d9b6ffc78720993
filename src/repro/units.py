"""Common unit constants and helpers.

Sizes are **bytes**.  Simulated time below the drivers (controller,
DRAM, fault injector, shards) is one clock of **integer nanoseconds**.
Drivers keep their own units (a schedule's seconds, a request's ``t``)
and enter the clock through :func:`s_to_ns`, the one rounding;
:func:`ns_to_s` prices a duration in seconds.  Modelled latencies are
costs, not clock readings, and stay float ns.  A name says its unit.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

CACHELINE_BYTES = 64

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def ns_to_s(ns: float) -> float:
    """Nanoseconds as (float) seconds, for pricing energy or power."""
    return ns / NS_PER_S


def s_to_ns(seconds: float) -> int:
    """Seconds as a clock reading: the nearest integer nanosecond."""
    return round(seconds * NS_PER_S)


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Return log2 of a power-of-two integer, raising ``ValueError`` otherwise."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def format_bytes(num_bytes: int) -> str:
    """Render a byte count using binary units (e.g. ``'2.0MiB'``)."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024
    raise AssertionError("unreachable")
