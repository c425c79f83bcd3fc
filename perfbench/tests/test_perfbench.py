"""Self-tests of the benchmark code: ``python3 -m pytest perfbench/tests``."""

import math

import pytest

import run
import spans
import workloads as wl
from calibrate import SpeedGauge


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_maps_to_the_same_op_sequence(name):
    workload = wl.WORKLOADS[name]
    assert workload.draw(7) == workload.draw(7)
    assert wl.describe(workload.draw(7)) == wl.describe(workload.draw(7))
    drawn = {repr(workload.draw(seed)) for seed in range(8)}
    assert len(drawn) > 1


def test_self_time_subtracts_the_covered_part_of_each_span():
    op_spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["a", 5.0, 6.0, 0, 0],
    ]
    totals = spans.layer_totals(op_spans)
    assert totals == {"op": [6.0, 1], "a": [3.0, 2], "b": [1.0, 1]}
    assert sum(self_s for self_s, _ in totals.values()) == 10.0


def test_covered_time_is_a_union_clipped_to_the_parent():
    assert spans._covered(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0


def test_split_ops_reindexes_parents_per_op():
    tracer = spans.Tracer()
    for op_id in (0, 1):
        with tracer.op(op_id):
            tracer.open("a")
            tracer.open("b")
            tracer.close()
            tracer.close()
    by_op = spans.split_ops(tracer.spans)
    assert sorted(by_op) == [0, 1]
    assert [s[3] for s in by_op[1]] == [-1, 0, 1]
    for op_spans in by_op.values():
        wall = op_spans[0][2] - op_spans[0][1]
        total = sum(s for s, _ in spans.layer_totals(op_spans).values())
        assert math.isclose(total, wall, rel_tol=1e-9)


def test_tracer_wraps_every_holder_and_restores_them():
    import repro.partition.base
    import repro.runtime.graph

    original = repro.runtime.graph.expand_program
    assert repro.partition.base.expand_program is original
    with spans.Tracer() as tracer:
        assert repro.runtime.graph.expand_program is not original
        assert repro.partition.base.expand_program is not original
        with tracer.op(0):
            from repro import get_application

            get_application("HotSpot").program(256, iterations=1)
    assert repro.runtime.graph.expand_program is original
    assert [s[0] for s in tracer.spans] == ["op", "apps.program"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)
    samples = [float(i) for i in range(40)]
    value, percentile = run.tail(samples)
    assert (value, percentile) == (29.0, 75.0)
    assert sum(1 for s in samples if s > value) == 10


def test_gate_flags_a_best_worse_than_baseline():
    workload = wl.WORKLOADS["search"]
    outputs = {"HotSpot": {"candidates": [("SP-Single", 1.0)],
                           "best_le_baseline": False}}
    assert wl.check(workload, outputs, outputs) == ["HotSpot: best > baseline"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_ops_pass_the_gate_and_repeat_their_exact_counts(name):
    workload, platform, scenario = wl.prepare(name, 3)
    runner = run.Runner(workload, platform, scenario, SpeedGauge())
    runner.compute_reference()
    first, second = runner.op(0), runner.op(1)
    assert first.problems == [] and second.problems == []
    assert first.counts == second.counts
    assert first.work == second.work > 0

    runner.reference = _perturb_first_makespan(runner.reference)
    assert runner.op(2).problems


def _perturb_first_makespan(obj):
    """A copy of ``obj`` with its first float moved by one ulp."""
    done = []

    def walk(value):
        if isinstance(value, float) and not done:
            done.append(value)
            return math.nextafter(value, math.inf)
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return type(value)(walk(v) for v in value)
        return value

    perturbed = walk(obj)
    assert done
    return perturbed
