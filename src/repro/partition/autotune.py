"""Task-size auto-tuning for dynamic strategies (paper §V).

"The task size (the granularity of partitioning) impacts performance as
well. ... the task size variation leads to performance variation.  Thus,
auto-tuning is recommended to find the best performing one."

:func:`autotune_task_count` sweeps candidate task counts (multiples of the
thread count, as the paper varies ``m``) for a dynamic strategy that chunks
by task count and returns the best-performing one together with the sweep
results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import PartitioningError
from repro.partition.base import PlanConfig, Strategy
from repro.partition.search import TASK_COUNT_STRATEGIES
from repro.platform.topology import Platform
from repro.runtime.executor import RuntimeConfig
from repro.runtime.graph import Program


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of a task-count sweep."""

    best_task_count: int
    best_makespan_s: float
    #: task count -> measured makespan in seconds
    sweep: dict[int, float]

    @property
    def speedup_over_worst(self) -> float:
        return max(self.sweep.values()) / self.best_makespan_s


def autotune_task_count(
    strategy: Strategy,
    program: Program,
    platform: Platform,
    *,
    config: PlanConfig | None = None,
    multipliers: tuple[int, ...] = (1, 2, 4, 8),
) -> AutotuneResult:
    """Sweep dynamic task counts ``m * multiplier`` and pick the fastest.

    The strategy is re-planned for every candidate (its profiling is
    cheap), and every candidate is executed on the simulated runtime with
    the same thread count.  Only :data:`TASK_COUNT_STRATEGIES` read the
    task count; any other strategy, static ones included, raises, since
    its sweep would repeat one plan.
    """
    if strategy.name not in TASK_COUNT_STRATEGIES:
        raise PartitioningError(
            f"{strategy.name} does not chunk by task count; task-size "
            f"tuning applies to {', '.join(TASK_COUNT_STRATEGIES)}"
        )
    if not multipliers:
        raise PartitioningError("need at least one multiplier")
    base = config or PlanConfig()
    m = base.threads(platform)
    sweep: dict[int, float] = {}
    for mult in multipliers:
        if mult <= 0:
            raise PartitioningError("multipliers must be positive")
        count = m * mult
        result = strategy.run(
            program,
            platform,
            config=replace(base, task_count=count),
            runtime_config=RuntimeConfig(cpu_threads=m),
        )
        sweep[count] = result.makespan_s
    best = min(sweep, key=lambda c: (sweep[c], c))
    return AutotuneResult(
        best_task_count=best, best_makespan_s=sweep[best], sweep=sweep
    )
