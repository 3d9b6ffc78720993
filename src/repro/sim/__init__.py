"""Experiment simulators: performance model, power-down schedule,
self-refresh replay, and the combined Figure 15 summary.

Every simulator — and every closed-form row of the paper
(:mod:`repro.sim.analytic`) — is a
:class:`~repro.checkpoint.stepping.Stepper` (``begin`` / ``advance`` /
``finish`` and the shared ``run()`` over them) and registers in
:data:`~repro.sim.experiments.EXPERIMENTS` — the registry the CLI,
:mod:`repro.exec` and the checkpoint drivers all dispatch from.  The
package re-exports only that registry surface; everything else imports
from its own submodule (``repro.sim.fleet``, ``repro.sim.results``,
...)."""

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
