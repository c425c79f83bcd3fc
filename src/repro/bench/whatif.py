"""What-if exploration: the measured response curve T(β) of a split.

The Glinda papers argue from the shape of ``T(β)`` — execution time as a
function of the GPU fraction — that the optimum is the intersection of the
(rising) GPU line and the (falling) CPU line.  This module *measures* that
curve on the simulator by pinning every candidate split and running it,
then locates the empirical optimum so it can be compared against the
model's prediction.  If the model and the executor ever drift apart, the
predicted β stops sitting in the measured valley — the strongest
end-to-end validation of the static-partitioning stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ExperimentError
from repro.partition._static_common import forced_plan
from repro.partition.base import PlanConfig, run_plan
from repro.platform.topology import Platform
from repro.runtime.graph import Program


@dataclass(frozen=True)
class ResponseCurve:
    """Measured makespans over a sweep of GPU fractions."""

    fractions: tuple[float, ...]
    makespans_ms: tuple[float, ...]

    @property
    def best_fraction(self) -> float:
        idx = min(range(len(self.fractions)),
                  key=lambda i: self.makespans_ms[i])
        return self.fractions[idx]

    @property
    def best_ms(self) -> float:
        return min(self.makespans_ms)

    def makespan_at(self, fraction: float) -> float:
        return self.makespans_ms[self.fractions.index(fraction)]

    def valley_contains(self, fraction: float, *, tolerance: float = 0.05
                        ) -> bool:
        """Whether ``fraction``'s measured time is within ``tolerance`` of
        the sweep minimum — i.e., it sits in the response curve's valley."""
        nearest = min(self.fractions, key=lambda f: abs(f - fraction))
        return self.makespan_at(nearest) <= self.best_ms * (1 + tolerance)


def split_response_curve(
    program: Program,
    platform: Platform,
    *,
    fractions: tuple[float, ...] = (
        0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
    ),
    config: PlanConfig | None = None,
) -> ResponseCurve:
    """Measure the makespan at every candidate GPU fraction.

    Each fraction is a forced, warp-rounded static split of every
    invocation (no Glinda involved), exactly as the SP-* strategies
    split under ``PlanConfig(gpu_fraction=...)``.
    """
    if not fractions:
        raise ExperimentError("need at least one fraction")
    config = config or PlanConfig()
    makespans = []
    for fraction in fractions:
        plan = forced_plan(
            f"pinned-{fraction:.2f}", program, platform,
            replace(config, gpu_fraction=fraction),
        )
        makespans.append(run_plan(plan, platform).makespan_ms)
    return ResponseCurve(
        fractions=tuple(fractions), makespans_ms=tuple(makespans)
    )


def format_curve(curve: ResponseCurve, *, predicted: float | None = None,
                 width: int = 40) -> str:
    """ASCII rendering of the response curve."""
    worst = max(curve.makespans_ms)
    lines = []
    for fraction, ms in zip(curve.fractions, curve.makespans_ms):
        bar = "#" * max(1, int(ms / worst * width))
        markers = []
        if fraction == curve.best_fraction:
            markers.append("measured optimum")
        if predicted is not None and abs(fraction - predicted) <= (
            0.5 * min(
                abs(a - b)
                for a, b in zip(curve.fractions, curve.fractions[1:])
            )
        ):
            markers.append(f"Glinda predicts {predicted:.1%}")
        suffix = ("   <- " + ", ".join(markers)) if markers else ""
        lines.append(f"  GPU {fraction:>5.0%} {ms:>10.1f} ms {bar}{suffix}")
    return "\n".join(lines)
