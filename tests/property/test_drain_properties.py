"""The epoch drain is invisible in every summary artifact.

Random programs from :mod:`repro.runtime.generate`, planned by the SP-*
families at random forced GPU fractions (every instance pinned), run at
summary detail with the drain on and with ``RuntimeConfig(drain=False)``
on both event engines: the artifacts must pickle to the same bytes.
"""

import os
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import clear_all
from repro.errors import StrategyInapplicableError
from repro.partition import PlanConfig, get_strategy
from repro.platform import shen_icpp15_platform
from repro.runtime.executor import RuntimeConfig, RuntimeEngine
from repro.runtime.generate import GeneratorConfig, random_program
from repro.sim.plan import drain_stats

PLATFORM = shen_icpp15_platform()
STRATEGIES = ("SP-Single", "SP-Unified", "SP-Varied")


def _summary_bytes(program, strategy, fraction, *, drain):
    clear_all()
    plan = get_strategy(strategy).plan(
        program, PLATFORM, PlanConfig(gpu_fraction=fraction)
    )
    config = replace(RuntimeConfig(drain=drain), **plan.runtime_overrides)
    artifact = RuntimeEngine(PLATFORM, config=config).execute(
        plan.graph, plan.scheduler, detail="summary"
    )
    return pickle.dumps(artifact, 5)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(64, 1024),
    fraction=st.floats(0.0, 1.0),
    oracle=st.booleans(),
)
def test_drain_on_and_off_pickle_identically(seed, n, fraction, oracle):
    program = random_program(np.random.default_rng(seed), GeneratorConfig(n=n))
    with mock.patch.dict(os.environ):
        os.environ["REPRO_NO_FAST_ENGINE"] = "1" if oracle else "0"
        for strategy in STRATEGIES:
            try:
                refused = _summary_bytes(program, strategy, fraction,
                                         drain=False)
            except StrategyInapplicableError:
                continue
            before = drain_stats()
            drained = _summary_bytes(program, strategy, fraction, drain=True)
            after = drain_stats()
            assert drained == refused, strategy
            # every SP-* plan pins each instance to one resource
            assert after["compile_errors"] == before["compile_errors"]
