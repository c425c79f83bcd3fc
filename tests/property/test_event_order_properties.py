"""Property tests: event ordering is total and engine-independent.

Both engines promise the same contract — events fire in strictly
increasing ``(time, priority, seq)`` order, every ``at``, ``after`` and
``schedule_call`` consumes exactly one sequence number, and a randomized
schedule (ties and mid-run spawns included, through all three calls)
produces the *identical* firing sequence on the oracle ``Simulator`` and
the ``FastSimulator``.  This is the semantic half of the differential
suite: if interleaving ever diverged, artifacts could no longer be
byte-identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.fast_engine import FastSimulator

#: a small time grid so ties are common, not a measure-zero accident
TIMES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 2.5, 5.0, 7.75])
PRIORITIES = st.sampled_from([0, 5, 10])
METHODS = st.sampled_from(["at", "after", "call"])


@st.composite
def schedules(draw):
    """A script of root events: ``(time, priority, method, spawn)``.

    ``method`` is the scheduling call (``at``, ``after`` or
    ``schedule_call``); ``spawn`` makes the event schedule a child
    ``(delay, priority, method)`` relative to ``now`` when it fires.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    rows = st.tuples(
        TIMES,
        PRIORITIES,
        METHODS,
        st.tuples(st.sampled_from([0.0, 0.5, 1.0]), PRIORITIES, METHODS)
        | st.none(),
    )
    return draw(st.lists(rows, min_size=n, max_size=n))


def run_script(engine, script):
    """Drive ``script`` on ``engine``; return the firing log and keys.

    The log records which event fired in order; ``keys`` records each
    fired event's ``(time, priority, seq)`` in firing order, with ``seq``
    counted here as one per scheduling call.
    """
    sim = engine()
    log = []
    keys = []
    seq = [0]

    def schedule(method, delay, prio, fire):
        key = (sim.now + delay, prio, seq[0])
        seq[0] += 1
        if method == "at":
            sim.at(sim.now + delay, lambda: fire(key), priority=prio)
        elif method == "after":
            sim.after(delay, lambda: fire(key), priority=prio)
        else:
            sim.schedule_call(sim.now + delay, fire, key, priority=prio)

    def root(i, spawn):
        def fire(key):
            log.append(("root", i, sim.now))
            keys.append(key)
            if spawn is not None:
                delay, prio, method = spawn

                def child(child_key):
                    log.append(("child", i, sim.now))
                    keys.append(child_key)

                schedule(method, delay, prio, child)
        return fire

    for i, (time, prio, method, spawn) in enumerate(script):
        schedule(method, time, prio, root(i, spawn))
    final = sim.run()
    assert sim._seq == seq[0]
    return log, keys, final


@settings(max_examples=120, deadline=None)
@given(schedules())
def test_engines_fire_identical_sequences(script):
    oracle = run_script(Simulator, script)
    fast = run_script(FastSimulator, script)
    assert fast == oracle


@settings(max_examples=120, deadline=None)
@given(schedules())
def test_static_firing_order_is_exactly_sorted_keys(script):
    # spawns stripped: for a schedule fixed before run(), the heap must
    # yield events in exactly sorted (time, priority, seq) order
    script = [(t, p, method, None) for t, p, method, _spawn in script]
    for engine in (Simulator, FastSimulator):
        _, keys, final = run_script(engine, script)
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys) == len(script)
        assert final == max(k[0] for k in keys)


@settings(max_examples=120, deadline=None)
@given(schedules())
def test_dynamic_keys_unique_and_time_monotonic(script):
    # with mid-run spawns a later-scheduled event may carry a smaller
    # (time, priority) than its spawner, but keys stay unique and the
    # clock never moves backwards
    for engine in (Simulator, FastSimulator):
        log, keys, _final = run_script(engine, script)
        assert len(set(keys)) == len(keys)
        times = [t for _kind, _i, t in log]
        assert times == sorted(times)
