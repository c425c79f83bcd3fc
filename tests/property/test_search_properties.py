"""The search's result does not depend on the drain.

``search_plan`` lets static candidates drain when ``plan_eval`` is on
and refuses the drain on every cell (``RuntimeConfig.drain=False``) when
it is off.  On random small scenarios both must return the same
candidates, in the same order, with bit-identical makespans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import shen_icpp15_platform
from repro.partition.search import search_plan

PLATFORM = shen_icpp15_platform()

#: app -> (problem-size range, whether it loops)
APPS = {
    "HotSpot": ((128, 320), True),
    "STREAM-Loop": ((512, 2048), True),
    "FDTD": ((256, 1024), True),
    "MatrixMul": ((64, 160), False),
    "SpMV": ((256, 1024), False),
}


@st.composite
def scenarios(draw):
    app = draw(st.sampled_from(sorted(APPS)))
    (lo, hi), loops = APPS[app]
    return {
        "app_name": app,
        "n": draw(st.integers(lo, hi)),
        "iterations": draw(st.integers(1, 3)) if loops else None,
        "sync": draw(st.booleans()),
    }


@settings(max_examples=4, deadline=None)
@given(scenarios())
def test_plan_eval_on_and_off_agree(scenario):
    def candidates(plan_eval):
        result = search_plan(
            **scenario, platform=PLATFORM, grid=3, rounds=1,
            plan_eval=plan_eval,
        )
        return [(r.candidate.label(), r.makespan_ms.hex())
                for r in result.evaluated]

    assert candidates(True) == candidates(False)
