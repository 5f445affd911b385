"""Timestamp-faithful trace replay as an :class:`ArrivalProcess`.

:class:`TraceReplayProcess` turns a :class:`~repro.traffic.trace.Trace`
into the lazy monotonic counter the NIC layer consumes, reproducing the
DPDK PCAP sender v2 knob set (SNIPPETS.md §1):

* ``speedup=`` divides every inter-packet gap (2.0 → twice as fast);
* ``jitter=`` multiplies each gap by ``U(1-j, 1+j)`` drawn from a
  dedicated ``traffic.jitter`` RNG stream, so adding jitter never
  perturbs any other stochastic component;
* ``loop=`` repeats the trace end-to-end with exact cycle arithmetic.

The schedule is fixed at construction (one pass over the records), and
the counting is the shared :class:`~repro.nic.traffic.ScheduleProcess`
cursor: ``advance`` and ``next_arrival_after`` are binary searches and
``time_for_count`` is exact index arithmetic — same complexity class as
the synthetic processes.  Because a :class:`Trace` is immutable, a
jitter-free schedule is a pure function of ``(trace, speedup)``: it is
built once, cached here per trace, and shared by every replay of it
(the paper's §5 offers one trace to three receivers).  ``loop`` and
``start`` only move the cursor, so they do not enter the cache key.  A
jittered schedule is built at construction, uncached, drawing from the
caller's stream in record order.  Either way the schedule never
changes after construction, so a replayed run re-derives it
identically, which is what makes mid-trace :mod:`repro.sim.snapshot`
checkpoints verify byte-for-byte.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, List, Optional, Tuple

from repro.nic.traffic import ScheduleProcess
from repro.sim.units import SEC
from repro.traffic.trace import Trace

#: ``(times, flows, lens, cycle)`` — one replay's arrival schedule
Schedule = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], int]

#: jitter-free schedules per trace, by speedup; an entry lives as long
#: as its trace
_SCHEDULES: "weakref.WeakKeyDictionary[Trace, Dict[float, Schedule]]" = (
    weakref.WeakKeyDictionary())


def _build_schedule(
    trace: Trace,
    speedup: float,
    jitter: float = 0.0,
    jitter_rng: Optional[random.Random] = None,
) -> Schedule:
    """One pass over the records: scaled, jittered offsets relative to
    the replay start, non-decreasing, >= 1 so the first packet is
    countable (arrivals live in ``(start, t]``)."""
    times: List[int] = []
    t_f = 0.0
    prev_rec = 0
    prev_out = 1
    for t_ns, _length, _flow in trace.records:
        gap = (t_ns - prev_rec) / speedup
        if jitter > 0:
            gap *= 1.0 + jitter * (2.0 * jitter_rng.random() - 1.0)
        t_f += gap
        prev_rec = t_ns
        prev_out = max(prev_out, int(t_f))
        times.append(prev_out)
    flows = tuple(r[2] for r in trace.records)
    lens = tuple(r[1] for r in trace.records)
    scaled_dur = int(trace.duration_ns / speedup)
    cycle = max(scaled_dur, (times[-1] + 1) if times else 1)
    return tuple(times), flows, lens, cycle


class TraceReplayProcess(ScheduleProcess):
    """Replay a trace's packet schedule through the ArrivalProcess API."""

    def __init__(
        self,
        trace: Trace,
        speedup: float = 1.0,
        loop: bool = False,
        jitter: float = 0.0,
        jitter_rng: Optional[random.Random] = None,
        start: int = 0,
    ):
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if jitter > 0 and jitter_rng is None:
            raise ValueError(
                "jitter requires a dedicated RNG stream "
                "(streams.stream('traffic.jitter'))"
            )
        trace.validate()
        if jitter > 0:
            schedule = _build_schedule(trace, speedup, jitter, jitter_rng)
        else:
            by_speedup = _SCHEDULES.setdefault(trace, {})
            schedule = by_speedup.get(speedup)
            if schedule is None:
                schedule = _build_schedule(trace, speedup)
                by_speedup[speedup] = schedule
        super().__init__(*schedule, loop, start)
        self.trace = trace
        self.speedup = speedup
        self.jitter = jitter
        self._phase_windows = self._build_phase_windows()

    @property
    def trace_sha(self) -> str:
        """Content digest of the replayed trace, computed on demand."""
        return self.trace.sha256()

    # -- phase bookkeeping ------------------------------------------------ #

    def _build_phase_windows(self) -> List[Tuple[int, int, float]]:
        """Scaled ``(start, end, nominal_pps)`` windows for rate_at()."""
        windows: List[Tuple[int, int, float]] = []
        if self.trace.phases:
            for phase, lo, hi in self.trace.phase_slices():
                s = int(phase.start_ns / self.speedup)
                e = max(s + 1, int(phase.end_ns / self.speedup))
                pps = (hi - lo) * SEC / (e - s)
                windows.append((s, e, pps))
        elif self._n:
            windows.append((0, self._cycle, self._n * SEC / self._cycle))
        return windows

    def phases_abs(self) -> List[Tuple[str, int, int]]:
        """Scaled phase windows in absolute sim time (first pass only).

        ``(name, start_ns, end_ns)`` per phase — the hook figures use to
        place phase-boundary probes and mark transitions.
        """
        out: List[Tuple[str, int, int]] = []
        for phase in self.trace.phases:
            s = self.start + int(phase.start_ns / self.speedup)
            e = self.start + max(s - self.start + 1,
                                 int(phase.end_ns / self.speedup))
            out.append((phase.name, s, e))
        return out

    def phase_boundaries(self) -> List[Tuple[int, str]]:
        """Absolute ``(t_ns, phase name)`` transition marks."""
        return [(s, name) for name, s, _e in self.phases_abs()]

    def rate_at(self, t: int) -> float:
        if self._n == 0:
            return 0.0
        rel = t - self.start
        if self.loop:
            rel %= self._cycle
        for s, e, pps in self._phase_windows:
            if s <= rel < e:
                return pps
        return 0.0

    # -- checkpointing ---------------------------------------------------- #

    def snapshot_state(self) -> dict:
        """Exact replay-cursor state for :mod:`repro.sim.snapshot`.

        The schedule itself is pinned by the trace content digest plus
        the replay knobs; the dynamic state is just the two counters.
        """
        return {
            "kind": "trace-replay",
            "trace_sha": self.trace_sha[:16],
            "n": self._n,
            "speedup": self.speedup,
            "loop": self.loop,
            "jitter": self.jitter,
            "start": self.start,
            "total": self.total,
            "last_t": self.last_t,
        }
