"""Experiment simulators: performance model, power-down schedule,
self-refresh replay, and the combined Figure 15 summary.

Every simulator — and every closed-form row of the paper
(:mod:`repro.sim.analytic`) — exposes the unified ``run(config) ->
Result`` shape (:class:`~repro.sim.base.Experiment`) and registers in
:data:`~repro.sim.experiments.EXPERIMENTS` — the registry both the CLI
and :mod:`repro.exec` dispatch from.  The package re-exports only that
registry surface; everything else imports from its own submodule
(``repro.sim.fleet``, ``repro.sim.results``, ...)."""

from repro.sim.experiments import (EXPERIMENTS, run_experiment,
                                   run_experiments)
from repro.sim.selfrefresh_sim import config_for_point
from repro.sim.tournament import PolicyTournament, TournamentConfig

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
    "config_for_point",
    "PolicyTournament",
    "TournamentConfig",
]
