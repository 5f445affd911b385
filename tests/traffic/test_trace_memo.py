"""Tests for the immutable trace and the replay schedule shared per trace.

A :class:`Trace` computes its validation verdict and jitter-free replay
schedules once; every replay of one trace at one speedup shares one
schedule.  Jittered replays build their own, drawing exactly as
before.
"""

import gc
import hashlib
import random
import weakref

import pytest

from repro.sim.units import MS
from repro.traffic import (
    SHIPPED_TRACES,
    Phase,
    Trace,
    TraceError,
    TraceReplayProcess,
    generate,
)


def make_trace() -> Trace:
    return Trace(
        phases=[Phase("a", 0, 500), Phase("b", 500, 1000)],
        records=[(100, 64, 3), (200, 128, 5), (400, 64, 3), (900, 256, 9)],
        meta={"generator": "test"},
    )


def schedule_of(p: TraceReplayProcess):
    return (p.schedule_times, p.schedule_flows, p.schedule_lens, p.cycle_ns)


def test_jitter_free_replays_share_one_schedule():
    trace = make_trace()
    a = TraceReplayProcess(trace)
    b = TraceReplayProcess(trace, loop=True, start=5_000)
    for x, y in zip(schedule_of(a)[:3], schedule_of(b)[:3]):
        assert x is y
    # the shared schedule is the one a fresh copy of the trace builds
    fresh = TraceReplayProcess(Trace(trace.phases, trace.records, trace.meta))
    assert schedule_of(fresh) == schedule_of(a)
    assert schedule_of(fresh)[0] is not schedule_of(a)[0]


def test_shared_schedule_keeps_cursors_independent():
    trace = make_trace()
    a = TraceReplayProcess(trace)
    b = TraceReplayProcess(trace)
    assert a.advance(250) == 2
    assert b.total == 0 and b.advance(1000) == 4
    assert a.advance(1000) == 2


def test_other_speedup_does_not_share():
    trace = make_trace()
    base = TraceReplayProcess(trace)
    fast = TraceReplayProcess(trace, speedup=2.0)
    assert fast.schedule_times is not base.schedule_times
    assert fast.schedule_times == (50, 100, 200, 450)
    assert TraceReplayProcess(trace, speedup=2.0).schedule_times \
        is fast.schedule_times


def test_jittered_replay_neither_shares_nor_changes_its_draws():
    trace = make_trace()
    base = TraceReplayProcess(trace, speedup=1.5)
    rng = random.Random(11)
    p = TraceReplayProcess(trace, speedup=1.5, jitter=0.3, jitter_rng=rng)
    assert p.schedule_times is not base.schedule_times
    # pinned before the schedule was shared: one draw per record, in
    # record order, and nothing else taken from the stream
    assert list(p.schedule_times) == [64, 133, 301, 627]
    assert p.cycle_ns == 666
    assert rng.random() == 0.5078412730622711
    # and the jitter-free cache was left alone
    assert TraceReplayProcess(trace, speedup=1.5).schedule_times \
        is base.schedule_times


def test_jittered_generated_schedule_is_pinned():
    trace = generate(SHIPPED_TRACES["benign"](5 * MS), 2020)
    p = TraceReplayProcess(trace, speedup=2.0, jitter=0.2,
                           jitter_rng=random.Random(7))
    digest = hashlib.sha256(repr(list(p.schedule_times)).encode())
    assert digest.hexdigest() == (
        "72c0baa01cfc60ca0be006f8654c1c3bbe0ddd41edf5d1682f75bd42bde48f1e")
    assert p.cycle_ns == 2508519


def test_records_and_phases_are_immutable():
    trace = make_trace()
    with pytest.raises(TypeError):
        trace.records[0] = (101, 64, 3)
    with pytest.raises(TypeError):
        trace.phases[0] = Phase("z", 0, 10)
    with pytest.raises(AttributeError):
        trace.records = ()
    with pytest.raises(AttributeError):
        trace.phases = ()


def test_constructor_still_coerces_to_int():
    trace = Trace(records=[(1.5, 64.0, True)])
    assert trace.records == ((1, 64, 1),)
    assert all(type(v) is int for v in trace.records[0])


def test_sha_matches_the_dumped_bytes():
    trace = make_trace()
    for _ in range(2):
        assert trace.sha256() == hashlib.sha256(
            trace.dumps().encode()).hexdigest()
        assert TraceReplayProcess(trace).trace_sha == trace.sha256()
        trace.meta["note"] = "edited"


def test_schedule_cache_does_not_keep_the_trace_alive():
    trace = make_trace()
    replay = TraceReplayProcess(trace)
    ref = weakref.ref(trace)
    del trace, replay
    gc.collect()
    assert ref() is None


def test_invalid_trace_raises_on_every_validate():
    trace = Trace(records=[(10, 64, 0), (5, 64, 0)])
    for _ in range(2):
        with pytest.raises(TraceError, match="before previous"):
            trace.validate()
    for _ in range(2):
        with pytest.raises(TraceError):
            TraceReplayProcess(trace)
