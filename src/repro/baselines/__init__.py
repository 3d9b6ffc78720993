"""Baseline systems the paper compares against (or relates to)."""

from repro.baselines.ramzzz import RamzzzConfig, RamzzzPolicy

__all__ = ["RamzzzConfig", "RamzzzPolicy"]
