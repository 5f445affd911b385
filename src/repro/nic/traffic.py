"""Traffic generators (the MoonGen stand-in).

Arrival processes are *monotonic lazy counters*: the Rx queue calls
``advance(t1)`` whenever it touches the ring, receiving the number of
packets that arrived since the previous touch, in O(1) — this is what
makes 14.88 Mpps simulable (DESIGN.md §4, "lazy arrival counting").

``next_arrival_after(t)`` supports the empty-poll fast-forward and the
XDP interrupt model, which need to know when the wire next becomes
non-idle.

Implementations:

* :class:`CbrProcess` — constant bit rate, exact integer arithmetic
  (the paper's throughput/latency tests);
* :class:`PoissonProcess` — memoryless arrivals for model validation;
* :class:`RampProfile` — piecewise-CBR, e.g. the 60 s up/down ramp of
  §5.3's rate-control-methods.lua experiment, or a step burst for the
  XDP reactivity test;
* :class:`ScheduleProcess` — a fixed per-packet schedule, the cursor
  behind trace replay and its RSS shards.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.units import SEC


def gbps_to_pps(gbps: float, frame_len: int = 64) -> int:
    """Packets/s on an Ethernet wire at ``gbps`` with ``frame_len`` frames.

    Accounts for the 20B per-frame overhead (preamble + IPG), so
    ``gbps_to_pps(10, 64)`` = 14,880,952 — the paper's line rate.
    """
    return int(gbps * 1e9 / ((frame_len + 20) * 8))


def mpps(million: float) -> int:
    """Convenience: mega-packets-per-second to pps."""
    return int(million * 1e6)


#: the link speeds production NICs actually ship (ROADMAP item 2)
STANDARD_LINK_RATES_GBPS = (10, 25, 40, 100)


def serialization_ns(frame_len: int, gbps: float) -> float:
    """Wire serialization time of one frame, in nanoseconds.

    The :func:`gbps_to_pps` companion: counts the same 20B preamble+IPG
    overhead, so ``SEC / serialization_ns`` equals the pps of a
    saturated wire.  ``serialization_ns(1518, 10)`` ≈ 1230.4 ns — the
    ~1.23 µs/frame figure of the 10G link-rate table — and 100G cuts it
    to ~123 ns.
    """
    if frame_len <= 0:
        raise ValueError("frame_len must be positive")
    if gbps <= 0:
        raise ValueError("gbps must be positive")
    return (frame_len + 20) * 8 / gbps


def link_rate_table(frame_len: int = 64) -> List[Tuple[float, int, float]]:
    """``(gbps, line-rate pps, serialization ns)`` for the standard rates."""
    return [
        (float(gbps), gbps_to_pps(gbps, frame_len),
         serialization_ns(frame_len, gbps))
        for gbps in STANDARD_LINK_RATES_GBPS
    ]


class ArrivalProcess:
    """Interface: a monotonic counting process of packet arrivals."""

    #: total arrivals delivered through advance() so far
    total = 0
    #: the time up to which arrivals have been counted
    last_t = 0

    def advance(self, t1: int) -> int:
        """Arrivals in ``(last_t, t1]``.  ``t1`` must be >= ``last_t``."""
        raise NotImplementedError

    def next_arrival_after(self, t: int) -> Optional[int]:
        """Earliest arrival strictly after ``t`` (>= ``last_t``), if any."""
        raise NotImplementedError

    def rate_at(self, t: int) -> float:
        """Nominal rate (pps) at time ``t`` (reporting only)."""
        raise NotImplementedError

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        """Approximate time ≥ t by which ~k more arrivals will exist.

        Used only for *pacing* (the poll-mode driver's event batching),
        never for statistics, so the generic rate-based estimate is
        acceptable; subclasses may provide exact versions.
        """
        if k <= 0:
            return t
        rate = self.rate_at(t)
        if rate <= 0:
            return self.next_arrival_after(t)
        return t + int(k * SEC / rate) + 1

    def flow_of(self, seq: int) -> Optional[int]:
        """Flow id of arrival ``seq``, when the source dictates one.

        ``None`` (the default) lets the Rx queue fall back to its
        :class:`~repro.nic.flows.FlowSet` hash; trace replay overrides
        this so tagged packets carry the trace's own flow keys.
        """
        return None


class ScheduleProcess(ArrivalProcess):
    """A fixed per-packet arrival schedule replayed as a lazy counter.

    ``times`` are non-decreasing offsets (>= 1) from ``start``, aligned
    with per-arrival ``flows`` and ``lens``; under ``loop`` the schedule
    repeats every ``cycle`` ns.  ``advance`` is a binary search,
    ``next_arrival_after`` too, and ``time_for_count`` is exact index
    arithmetic.  Subclasses supply ``rate_at`` and ``snapshot_state``.
    """

    def __init__(
        self,
        times: Sequence[int],
        flows: Sequence[int],
        lens: Sequence[int],
        cycle: int,
        loop: bool,
        start: int = 0,
    ):
        self._times = times
        self._flows = flows
        self._lens = lens
        self._n = len(times)
        self._cycle = max(1, cycle)
        self.loop = loop
        self.start = start
        self.last_t = start
        self.total = 0

    # -- counting --------------------------------------------------------- #

    def _count_at(self, t: int) -> int:
        rel = t - self.start
        if rel <= 0 or self._n == 0:
            return 0
        if not self.loop:
            return bisect_right(self._times, rel)
        cycles, rem = divmod(rel, self._cycle)
        return cycles * self._n + bisect_right(self._times, rem)

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = self._count_at(t1) - self.total
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if self._n == 0:
            return None
        rel = t - self.start
        if rel < 0:
            return self.start + self._times[0]
        if not self.loop:
            idx = bisect_right(self._times, rel)
            if idx >= self._n:
                return None
            return self.start + self._times[idx]
        cycles, rem = divmod(rel, self._cycle)
        idx = bisect_right(self._times, rem)
        if idx < self._n:
            return self.start + cycles * self._cycle + self._times[idx]
        return self.start + (cycles + 1) * self._cycle + self._times[0]

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        """Exact: the arrival time of the k-th packet after ``t``."""
        if k <= 0:
            return t
        if self._n == 0:
            return None
        idx = self._count_at(t) + k - 1
        if not self.loop:
            if idx >= self._n:
                return None
            return self.start + self._times[idx]
        cycles, j = divmod(idx, self._n)
        return self.start + cycles * self._cycle + self._times[j]

    # -- schedule access (read-only; RSS sharding) ------------------------ #

    @property
    def schedule_times(self) -> Sequence[int]:
        """The arrival-offset schedule (relative to ``start``).

        Consumers that partition the schedule across RSS queues
        (:func:`repro.nic.topology.rss_shard`) read it; it is shared,
        so it is never to be mutated.
        """
        return self._times

    @property
    def schedule_flows(self) -> Sequence[int]:
        """Per-arrival flow ids aligned with :attr:`schedule_times`."""
        return self._flows

    @property
    def schedule_lens(self) -> Sequence[int]:
        """Per-arrival frame lengths aligned with :attr:`schedule_times`."""
        return self._lens

    @property
    def cycle_ns(self) -> int:
        """Length of one loop cycle in scaled nanoseconds."""
        return self._cycle

    # -- flow plumbing ---------------------------------------------------- #

    def flow_of(self, seq: int) -> Optional[int]:
        """The scheduled flow id of arrival ``seq`` (None past the end)."""
        if self._n == 0:
            return None
        if self.loop:
            return self._flows[seq % self._n]
        if seq >= self._n:
            return None
        return self._flows[seq]

    def len_of(self, seq: int) -> Optional[int]:
        """The scheduled frame length of arrival ``seq``."""
        if self._n == 0:
            return None
        if self.loop:
            return self._lens[seq % self._n]
        if seq >= self._n:
            return None
        return self._lens[seq]


class CbrProcess(ArrivalProcess):
    """Constant-rate arrivals: packet k arrives at ``start + ceil(k/rate)``."""

    def __init__(self, rate_pps: int, start: int = 0, end: Optional[int] = None):
        if rate_pps < 0:
            raise ValueError("negative rate")
        self.rate_pps = rate_pps
        self.start = start
        self.end = end
        self.last_t = start
        self.total = 0

    def _count_at(self, t: int) -> int:
        if self.rate_pps == 0 or t <= self.start:
            return 0
        if self.end is not None:
            t = min(t, self.end)
        return (t - self.start) * self.rate_pps // SEC

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = self._count_at(t1) - self.total
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if self.rate_pps == 0:
            return None
        k = self._count_at(t) + 1
        when = self.start + (k * SEC + self.rate_pps - 1) // self.rate_pps
        if self.end is not None and when > self.end:
            return None
        return when

    def rate_at(self, t: int) -> float:
        if t < self.start or (self.end is not None and t > self.end):
            return 0.0
        return float(self.rate_pps)

    def time_for_count(self, t: int, k: int) -> Optional[int]:
        """Exact: time at which the (count_at(t)+k)-th arrival lands."""
        if k <= 0:
            return t
        if self.rate_pps == 0:
            return None
        target = self._count_at(t) + k
        when = self.start + (target * SEC + self.rate_pps - 1) // self.rate_pps
        if self.end is not None and when > self.end:
            return None
        return when


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals at mean rate ``rate_pps``.

    ``next_arrival_after`` samples and *commits* the next arrival time so
    that a later ``advance`` past it stays consistent with what the
    caller was told.
    """

    def __init__(self, rate_pps: int, rng: np.random.Generator, start: int = 0):
        if rate_pps < 0:
            raise ValueError("negative rate")
        self.rate_pps = rate_pps
        self._rng = rng
        self.last_t = start
        self.total = 0
        self._committed_next: Optional[int] = None

    def _poisson(self, dt: int) -> int:
        if dt <= 0 or self.rate_pps == 0:
            return 0
        return int(self._rng.poisson(dt * self.rate_pps / SEC))

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = 0
        if self._committed_next is not None and self._committed_next <= t1:
            n = 1 + self._poisson(t1 - self._committed_next)
            self._committed_next = None
        elif self._committed_next is None:
            n = self._poisson(t1 - self.last_t)
        # else: committed arrival still in the future — nothing yet
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if self.rate_pps == 0:
            return None
        if self._committed_next is not None and self._committed_next > t:
            return self._committed_next
        gap = self._rng.exponential(SEC / self.rate_pps)
        self._committed_next = t + max(1, int(gap))
        return self._committed_next

    def rate_at(self, t: int) -> float:
        return float(self.rate_pps)


class RampProfile(ArrivalProcess):
    """Piecewise-constant rate: ``segments = [(start_ns, rate_pps), ...]``.

    Exact integer fluid accumulator: the fractional packet position is
    carried in units of pps·ns so segment boundaries never drop or
    duplicate arrivals.
    """

    def __init__(self, segments: Sequence[Tuple[int, int]]):
        if not segments:
            raise ValueError("empty profile")
        starts = [s for s, _r in segments]
        if starts != sorted(starts) or len(set(starts)) != len(starts):
            raise ValueError("segment starts must be strictly increasing")
        self.segments: List[Tuple[int, int]] = list(segments)
        self.last_t = segments[0][0]
        self.total = 0
        self._acc = 0  # pps·ns accumulated

    # -- helpers --------------------------------------------------------- #

    def _segment_rate(self, t: int) -> int:
        rate = 0
        for start, seg_rate in self.segments:
            if t >= start:
                rate = seg_rate
            else:
                break
        return rate

    def _iter_pieces(self, t0: int, t1: int):
        """Yield (piece_start, piece_end, rate) covering (t0, t1]."""
        boundaries = [s for s, _ in self.segments if t0 < s < t1]
        edges = [t0] + boundaries + [t1]
        for a, b in zip(edges, edges[1:]):
            yield a, b, self._segment_rate(a)

    # -- ArrivalProcess -------------------------------------------------- #

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        for a, b, rate in self._iter_pieces(self.last_t, t1):
            self._acc += (b - a) * rate
        new_total = self._acc // SEC
        n = new_total - self.total
        self.total = new_total
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        if t < self.last_t:
            raise ValueError("next_arrival_after before sync point")
        # accumulate virtually from last_t to t, then walk forward
        acc = self._acc
        for a, b, rate in self._iter_pieces(self.last_t, t):
            acc += (b - a) * rate
        needed = (self.total_at_acc(acc) + 1) * SEC
        cursor = t
        # walk segments until the accumulator can reach `needed`
        remaining_starts = [s for s, _ in self.segments if s > cursor]
        while True:
            rate = self._segment_rate(cursor)
            seg_end = remaining_starts[0] if remaining_starts else None
            if rate > 0:
                dt = (needed - acc + rate - 1) // rate
                when = cursor + dt
                if seg_end is None or when <= seg_end:
                    return when
                acc += (seg_end - cursor) * rate
            elif seg_end is None:
                return None
            if seg_end is None:
                return None
            cursor = seg_end
            remaining_starts.pop(0)

    @staticmethod
    def total_at_acc(acc: int) -> int:
        return acc // SEC

    def rate_at(self, t: int) -> float:
        return float(self._segment_rate(t))


class OnOffProcess(ArrivalProcess):
    """Bursty traffic: exponential ON/OFF phases, CBR while ON.

    The classic interrupted-Poisson-style burst model: ON periods of
    mean ``mean_on_ns`` at ``burst_rate_pps``, silent OFF periods of
    mean ``mean_off_ns``.  Used by the burst-reactivity extension
    (Metronome vs XDP on cold bursts) and for stressing the adaptive
    controller with load swings faster than the paper's 2 s ramp steps.
    """

    def __init__(
        self,
        burst_rate_pps: int,
        mean_on_ns: int,
        mean_off_ns: int,
        rng: "random.Random",
        start: int = 0,
        start_on: bool = False,
    ):
        if burst_rate_pps < 0:
            raise ValueError("negative rate")
        if mean_on_ns <= 0 or mean_off_ns <= 0:
            raise ValueError("phase means must be positive")
        self.burst_rate_pps = burst_rate_pps
        self.mean_on_ns = mean_on_ns
        self.mean_off_ns = mean_off_ns
        self._rng = rng
        self.last_t = start
        self.total = 0
        self._acc = 0
        # committed phase timeline: list of (start, rate); extended lazily
        self._segments: List[Tuple[int, int]] = [
            (start, burst_rate_pps if start_on else 0)
        ]
        self._horizon = start  # time at which the next phase begins

    def mean_rate_pps(self) -> float:
        """Long-run average rate (duty cycle × burst rate)."""
        duty = self.mean_on_ns / (self.mean_on_ns + self.mean_off_ns)
        return self.burst_rate_pps * duty

    def _extend_to(self, t: int) -> None:
        """Commit phase boundaries until the timeline covers ``t``."""
        while self._horizon <= t:
            _last_start, last_rate = self._segments[-1]
            if last_rate:
                gap = self._rng.expovariate(1.0 / self.mean_on_ns)
                next_rate = 0
            else:
                gap = self._rng.expovariate(1.0 / self.mean_off_ns)
                next_rate = self.burst_rate_pps
            self._horizon = max(self._horizon + max(1, int(gap)),
                                self._segments[-1][0] + 1)
            self._segments.append((self._horizon, next_rate))

    def _rate_at(self, t: int) -> int:
        rate = 0
        for seg_start, seg_rate in self._segments:
            if t >= seg_start:
                rate = seg_rate
            else:
                break
        return rate

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        self._extend_to(t1)
        boundaries = [s for s, _r in self._segments
                      if self.last_t < s < t1]
        edges = [self.last_t] + boundaries + [t1]
        for a, b in zip(edges, edges[1:]):
            self._acc += (b - a) * self._rate_at(a)
        new_total = self._acc // SEC
        n = new_total - self.total
        self.total = new_total
        self.last_t = t1
        # trim consumed segments (keep the one covering last_t)
        while len(self._segments) > 1 and self._segments[1][0] <= self.last_t:
            self._segments.pop(0)
        return n

    def _next_boundary(self, cursor: int) -> int:
        """First committed phase boundary strictly after ``cursor``."""
        while True:
            for seg_start, _rate in self._segments:
                if seg_start > cursor:
                    return seg_start
            self._extend_to(self._horizon + 1)

    def next_arrival_after(self, t: int) -> Optional[int]:
        if t < self.last_t:
            raise ValueError("next_arrival_after before sync point")
        self._extend_to(t)
        # virtual accumulator value at time t
        acc = self._acc
        cursor = self.last_t
        while cursor < t:
            end = min(t, self._next_boundary(cursor))
            acc += (end - cursor) * self._rate_at(cursor)
            cursor = end
        needed = (acc // SEC + 1) * SEC
        # walk forward until the accumulator reaches the next packet
        for _ in range(100_000):  # guard against pathological parameters
            rate = self._rate_at(cursor)
            boundary = self._next_boundary(cursor)
            if rate > 0:
                dt = (needed - acc + rate - 1) // rate
                if cursor + dt <= boundary:
                    return cursor + dt
                acc += (boundary - cursor) * rate
            cursor = boundary
        raise RuntimeError("no arrival found within the search horizon")

    def rate_at(self, t: int) -> float:
        self._extend_to(t)
        return float(self._rate_at(t))


class FaultableProcess(ArrivalProcess):
    """A transparent wrapper that lets fault injectors perturb the wire.

    Two perturbations, both controlled by explicit edge calls (the
    injectors own the randomness; this class is deterministic):

    * **microburst overlay** — ``set_burst(rate_pps)`` superimposes a
      CBR stream on top of the inner process (0 switches it off);
    * **pause episode** — ``set_paused(True)`` models NIC flow-control /
      PCIe back-pressure: arrivals counted while paused are *held* and
      delivered in one slug when the pause lifts, which is exactly the
      post-pause burst real pause frames produce.

    ``checkpoint(now)`` must be called at every rate edge so the overlay
    accumulator integrates each segment at the rate actually in force.
    With no edges ever applied the wrapper is an identity: every count
    delegates to the inner process.
    """

    def __init__(self, inner: ArrivalProcess):
        self.inner = inner
        self.last_t = inner.last_t
        self.total = 0
        self._paused = False
        self._held = 0
        self._burst_rate = 0
        self._overlay_t = inner.last_t
        self._overlay_acc = 0      # pps·ns fractional accumulator
        self._overlay_total = 0
        #: episode statistics for chaos reports
        self.burst_packets = 0
        self.held_peak = 0

    # -- injector edge calls -------------------------------------------- #

    def checkpoint(self, now: int) -> None:
        """Integrate the overlay up to ``now`` at the current rate."""
        if now > self._overlay_t:
            self._overlay_acc += (now - self._overlay_t) * self._burst_rate
            self._overlay_t = now

    def set_burst(self, rate_pps: int) -> None:
        if rate_pps < 0:
            raise ValueError("negative burst rate")
        self._burst_rate = rate_pps

    def set_paused(self, paused: bool) -> None:
        self._paused = paused

    @property
    def paused(self) -> bool:
        return self._paused

    # -- ArrivalProcess -------------------------------------------------- #

    def advance(self, t1: int) -> int:
        if t1 < self.last_t:
            raise ValueError(f"advance moving backwards: {t1} < {self.last_t}")
        n = self.inner.advance(t1)
        self.checkpoint(t1)
        overlay_now = self._overlay_acc // SEC
        extra = overlay_now - self._overlay_total
        self._overlay_total = overlay_now
        self.burst_packets += extra
        n += extra
        if self._paused:
            self._held += n
            self.held_peak = max(self.held_peak, self._held)
            n = 0
        else:
            n += self._held
            self._held = 0
        self.total += n
        self.last_t = t1
        return n

    def next_arrival_after(self, t: int) -> Optional[int]:
        """Delegates to the inner process (overlay/pause ignored): the
        polling-driver fast-forward only needs a lower bound, and a
        pause can only move the first visible arrival later."""
        return self.inner.next_arrival_after(t)

    def rate_at(self, t: int) -> float:
        if self._paused:
            return 0.0
        return self.inner.rate_at(t) + float(self._burst_rate)

    def flow_of(self, seq: int) -> Optional[int]:
        """Delegates to the inner process.

        Overlay packets share the inner sequence space, so under an
        active burst the per-packet attribution is approximate — which
        matches reality: injected attack packets carry whatever flow
        keys the generator forged.
        """
        return self.inner.flow_of(seq)

    def snapshot_state(self) -> dict:
        """Wrapper counters + the inner process's own state (if any).

        Only defined state is captured: inner processes without a
        ``snapshot_state`` contribute their ``(total, last_t)`` sync
        point, which the queue already pins.
        """
        inner_extra = getattr(self.inner, "snapshot_state", None)
        return {
            "kind": "faultable",
            "total": self.total,
            "last_t": self.last_t,
            "paused": self._paused,
            "held": self._held,
            "burst_rate": self._burst_rate,
            "overlay_t": self._overlay_t,
            "overlay_acc": self._overlay_acc,
            "overlay_total": self._overlay_total,
            "burst_packets": self.burst_packets,
            "held_peak": self.held_peak,
            "inner": inner_extra() if inner_extra is not None else None,
        }


def triangle_ramp(
    duration_ns: int,
    peak_pps: int,
    steps: int = 15,
    floor_pps: int = 0,
) -> RampProfile:
    """The §5.3 MoonGen experiment: rate climbs in equal steps to the
    peak at mid-run, then descends symmetrically."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    half = duration_ns // 2
    step_ns = max(1, half // steps)
    segments: List[Tuple[int, int]] = []
    for i in range(steps):
        rate = floor_pps + (peak_pps - floor_pps) * (i + 1) // steps
        segments.append((i * step_ns, rate))
    for i in range(steps):
        rate = floor_pps + (peak_pps - floor_pps) * (steps - 1 - i) // steps
        segments.append((half + i * step_ns, rate))
    return RampProfile(segments)
