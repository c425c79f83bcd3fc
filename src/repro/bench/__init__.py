"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.bench.harness` — run one application under a set of
  strategies and collect :class:`StrategyOutcome` rows,
* :mod:`repro.bench.experiments` — one driver per paper table/figure,
* :mod:`repro.bench.tables` — plain-text rendering of result tables,
* :mod:`repro.bench.speedup` — Figure 12 (best strategy vs Only-GPU /
  Only-CPU speedups),
* :mod:`repro.bench.matchup` — measured tournament rankings vs Table I,
  proposition violations and new-family upsets.
"""

from repro.bench.harness import (
    ScenarioResult,
    StrategyOutcome,
    SweepCell,
    run_scenario,
    run_sweep,
    sk_strategies,
    mk_strategies,
)
from repro.bench.experiments import (
    EXPERIMENTS,
    Experiment,
    empirical_ranking,
    run_experiment,
)
from repro.bench.matchup import (
    CellVerdict,
    MatchupReport,
    check_propositions,
    compare_to_table,
    format_matchup,
)
from repro.bench.speedup import SpeedupRow, figure12
from repro.bench.tables import format_ratio_table, format_time_table

__all__ = [
    "ScenarioResult",
    "StrategyOutcome",
    "SweepCell",
    "run_scenario",
    "run_sweep",
    "sk_strategies",
    "mk_strategies",
    "EXPERIMENTS",
    "Experiment",
    "empirical_ranking",
    "run_experiment",
    "CellVerdict",
    "MatchupReport",
    "check_propositions",
    "compare_to_table",
    "format_matchup",
    "SpeedupRow",
    "figure12",
    "format_ratio_table",
    "format_time_table",
]
