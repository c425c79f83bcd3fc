"""repro — reproduction of "Matchmaking Applications and Partitioning
Strategies for Efficient Execution on Heterogeneous Platforms"
(Shen, Varbanescu, Martorell, Sips — ICPP 2015).

Quickstart::

    from repro import shen_icpp15_platform, get_application, match

    platform = shen_icpp15_platform()
    app = get_application("MatrixMul")
    outcome = match(app, platform, n=2048)
    print(outcome.report.app_class, outcome.strategy, outcome.makespan_ms)

Package map:

* :mod:`repro.platform` — the simulated heterogeneous platform (Table III)
* :mod:`repro.sim` — the discrete-event engine and traces
* :mod:`repro.runtime` — the OmpSs-like task runtime and schedulers
* :mod:`repro.partition` — the five partitioning strategies + baselines
* :mod:`repro.core` — the application analyzer and matchmaker
* :mod:`repro.apps` — the evaluation workloads (Table II)
* :mod:`repro.bench` — experiment drivers regenerating the paper's figures
"""

from repro.platform import (
    Platform,
    balanced_platform,
    fusion_platform,
    shen_icpp15_platform,
)
from repro.apps import all_applications, get_application, paper_applications
from repro.core import (
    AnalysisReport,
    AppClass,
    MatchResult,
    analyze,
    classify_program,
    format_analysis,
    format_match,
    match,
    ranking,
    run_best,
)
from repro.partition import (
    ExecutionPlan,
    PlanConfig,
    get_strategy,
    list_strategies,
    run_plan,
)
from repro.artifact import RunArtifact, TraceSummary
from repro.runtime import RuntimeConfig

__version__ = "1.0.0"

__all__ = [
    "Platform",
    "balanced_platform",
    "fusion_platform",
    "shen_icpp15_platform",
    "all_applications",
    "get_application",
    "paper_applications",
    "AnalysisReport",
    "AppClass",
    "MatchResult",
    "analyze",
    "classify_program",
    "format_analysis",
    "format_match",
    "match",
    "ranking",
    "run_best",
    "ExecutionPlan",
    "PlanConfig",
    "get_strategy",
    "list_strategies",
    "run_plan",
    "RunArtifact",
    "RuntimeConfig",
    "TraceSummary",
    "__version__",
]
