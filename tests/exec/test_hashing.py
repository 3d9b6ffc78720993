"""Stable hashing of config dataclasses and seed derivation."""

from dataclasses import dataclass, field

import pytest

from repro.exec.hashing import derive_seed, stable_hash, task_key
from repro.sim.powerdown_sim import PowerDownSimConfig


@dataclass(frozen=True)
class _Config:
    name: str = "x"
    seed: int = 0
    weights: tuple = (1.0, 2.0)
    extras: dict = field(default_factory=dict)


def test_equal_configs_hash_equal():
    assert stable_hash(_Config()) == stable_hash(_Config())
    assert stable_hash(_Config(extras={"a": 1, "b": 2})) == stable_hash(
        _Config(extras={"b": 2, "a": 1}))  # dict order must not matter


def test_any_field_change_changes_hash():
    base = stable_hash(_Config())
    assert stable_hash(_Config(seed=1)) != base
    assert stable_hash(_Config(name="y")) != base
    assert stable_hash(_Config(weights=(1.0,))) != base


def test_nested_dataclasses_hash():
    config = PowerDownSimConfig()
    assert stable_hash(config) == stable_hash(PowerDownSimConfig())
    assert stable_hash(config.with_seed(3)) != stable_hash(config)


def test_type_distinguishes_hash():
    @dataclass(frozen=True)
    class _Other:
        name: str = "x"
        seed: int = 0
        weights: tuple = (1.0, 2.0)
        extras: dict = field(default_factory=dict)

    assert stable_hash(_Other()) != stable_hash(_Config())


def test_unstable_values_rejected():
    with pytest.raises(TypeError):
        stable_hash(object())


def test_task_key_shape():
    key = task_key("fleet", _Config())
    assert key.startswith("fleet-")
    assert key == task_key("fleet", _Config())
    assert key != task_key("other", _Config())


def test_task_key_without_context_keeps_historical_format():
    # The key format is pinned byte-for-byte so cached results written
    # by earlier revisions stay addressable.
    key = task_key("fleet", _Config())
    assert key == f"fleet-{stable_hash(_Config())[:32]}"


def test_derive_seed_deterministic_and_bounded():
    seeds = {derive_seed(0, "node", i) for i in range(100)}
    assert len(seeds) == 100  # no collisions on a small fan-out
    assert all(0 <= seed < 2 ** 31 for seed in seeds)
    assert derive_seed(7, "node", 3) == derive_seed(7, "node", 3)
    assert derive_seed(7, "node", 3) != derive_seed(8, "node", 3)
