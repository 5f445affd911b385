"""Equivalence of the calendar-queue core and the frozen heap loop.

The calendar queue (:class:`repro.sim.core.Simulator`) must be
observationally identical to the pre-calendar binary heap
(:class:`repro.sim.reference.HeapSimulator`): same fire order — global
``(time, seq)``, FIFO among same-time events — for any interleaving of
schedules, cancels, and stops, including re-entrant scheduling from
inside callbacks.  Hypothesis drives random programs through both
engines; the golden test pins a whole rendered figure across the swap.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Simulator
from repro.sim.reference import HeapSimulator

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# one scripted action per scheduled callback: how far ahead to schedule
# (0 .. beyond the near-future ring horizon), how many children each
# callback spawns, and which previously-created handles get cancelled.
# The µs-scale draws land children inside the bucket being drained,
# ahead of its tail, which exercises the in-drain side heap (the run
# loop's fast path serves its head as well as the staged run's).
_DELAYS = st.one_of(
    st.integers(min_value=0, max_value=2_000),
    st.integers(min_value=0, max_value=30_000_000),
)
_ACTIONS = st.lists(
    st.tuples(
        _DELAYS,
        st.integers(min_value=0, max_value=3),      # children per fire
        st.lists(st.integers(min_value=0, max_value=200), max_size=3),
    ),
    min_size=1,
    max_size=60,
)


def _execute(sim_cls, actions, until, stop_at):
    """Run one scripted program; return the fire log ``(time, action_id)``."""
    sim = sim_cls()
    log = []
    handles = []

    def fire(action_id):
        log.append((sim.now, action_id))
        if stop_at is not None and len(log) >= stop_at:
            sim.stop()
            return
        if len(log) >= 400:   # bound the program: no infinite 0-delay chains
            return
        delay, children, cancels = actions[action_id % len(actions)]
        for c in range(children):
            child_id = action_id * 7 + c + 1
            handles.append(sim.call_after(delay + c, fire, child_id))
        for idx in cancels:
            if idx < len(handles):
                handles[idx].cancel()

    for i, (delay, _children, _cancels) in enumerate(actions):
        handles.append(sim.call_after(delay, fire, i))
    sim.run(until=until)
    return log, sim.now


@settings(max_examples=60, deadline=None)
@given(actions=_ACTIONS,
       until=st.one_of(st.none(), st.integers(0, 40_000_000)),
       stop_at=st.one_of(st.none(), st.integers(1, 120)))
def test_property_fire_order_matches_heap(actions, until, stop_at):
    new_log, new_now = _execute(Simulator, actions, until, stop_at)
    old_log, old_now = _execute(HeapSimulator, actions, until, stop_at)
    assert new_log == old_log
    assert new_now == old_now


@settings(max_examples=30, deadline=None)
@given(actions=_ACTIONS, until=st.integers(0, 40_000_000))
def test_property_resumed_runs_match_heap(actions, until):
    """Scheduling continues correctly across a run(until)/run() boundary
    (entries landing behind the staged drain cursor must still fire in
    global order)."""
    def split_run(sim_cls):
        sim = sim_cls()
        log = []
        for i, (delay, _c, _x) in enumerate(actions):
            sim.call_after(delay, lambda i=i: log.append((sim.now, i)))
        sim.run(until=until)
        # schedule more from the paused clock, then drain fully
        for i, (delay, _c, _x) in enumerate(actions):
            sim.call_after(delay // 2, lambda i=i: log.append((sim.now, -i)))
        sim.run()
        return log

    assert split_run(Simulator) == split_run(HeapSimulator)


def test_fig7_byte_identical_to_pre_calendar_golden():
    """Whole-figure witness: fig7 rendered from a pinned seed matches the
    output captured with the pre-calendar heap core, byte for byte."""
    from repro.campaign import render_figure, run_figure

    with open(os.path.join(_GOLDEN, "fig7_scale025_seed2020.txt")) as fh:
        golden = fh.read()
    text = render_figure("fig7", run_figure("fig7", scale=0.25, seed=2020))
    assert text == golden
