"""Declarative fault schedules.

A :class:`FaultSpec` describes one adversarial condition — its kind, the
window during which it is armed, its intensity, and which cores it
targets.  A :class:`FaultPlan` bundles specs with the invariants a run
under that plan must still satisfy (loss ceiling, starvation bound,
recovery bound).  Plans are plain data: they can round-trip through JSON
(``to_dict``/``from_dict``) so scenarios can be shipped as files and fed
to ``repro chaos --plan-file``.

Kinds and how ``magnitude`` / ``duration_ns`` / ``probability`` read:

=============  ======================================================
kind           semantics
=============  ======================================================
timer_miss     each hrtimer fire is delivered late by
               ``magnitude × U(0.5, 1.5)`` ns, with ``probability``
               per fire (hrtimer-miss / IRQ-storm delivery delay)
irq_storm      repeating IRQ bursts steal a ``magnitude`` fraction of
               the targeted cores (burst every ``period_ns``; burst
               length ``duration_ns`` or ``period_ns × magnitude``)
core_stall     an SMI-style freeze of ``duration_ns`` on each targeted
               core at window start, repeating every ``period_ns`` if
               one is given
antagonist     a CPU-hog thread is spawned on each targeted core for
               the whole window
microburst     a CBR overlay of ``magnitude`` pps rides on top of the
               registered traffic (``period_ns``/``duration_ns``
               chop the window into on/off episodes)
pause          NIC flow-control: arrivals are held and released in one
               slug (same episode chopping as microburst)
lost_wakeup    each timer callback is dropped with ``probability``
               (the wakeup race the backup timeout guards against)
clock_drift    the sleep timebase runs slow: every sleep overshoots by
               ``duration × magnitude`` (deterministic, no RNG)
=============  ======================================================
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Tuple

from repro.sim.units import MS, US

#: every fault kind the engine knows how to inject
FAULT_KINDS = (
    "timer_miss",
    "irq_storm",
    "core_stall",
    "antagonist",
    "microburst",
    "pause",
    "lost_wakeup",
    "clock_drift",
)

#: kinds whose episodes touch the traffic processes rather than cores
TRAFFIC_KINDS = ("microburst", "pause")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled adversarial condition (see module table)."""

    kind: str
    start_ns: int
    end_ns: int
    period_ns: int = 0
    duration_ns: int = 0
    magnitude: float = 1.0
    cores: Tuple[int, ...] = ()
    probability: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        # times feed the integer-ns event clock: a float (2e7) would
        # only fail once the run schedules it
        for name in ("start_ns", "end_ns", "period_ns", "duration_ns"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ValueError("need 0 <= start_ns < end_ns")
        if self.period_ns < 0 or self.duration_ns < 0:
            raise ValueError("period/duration must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not math.isfinite(self.magnitude) or self.magnitude < 0:
            raise ValueError("magnitude must be finite and >= 0")
        if self.kind == "irq_storm" and not 0.0 < self.magnitude < 1.0:
            if self.duration_ns == 0:
                raise ValueError(
                    "irq_storm needs magnitude in (0,1) or an explicit "
                    "duration_ns"
                )
        if self.kind == "core_stall" and self.duration_ns == 0:
            raise ValueError("core_stall needs duration_ns")
        if self.kind == "irq_storm" and self.period_ns == 0:
            raise ValueError("irq_storm needs period_ns")
        # frozen dataclass: normalize cores through object.__setattr__
        object.__setattr__(self, "cores", tuple(self.cores))
        if not all(isinstance(c, int) and c >= 0 for c in self.cores):
            raise ValueError("cores must be non-negative core indices")


@dataclass(frozen=True)
class FaultPlan:
    """A named bundle of fault specs plus the survival invariants.

    ``loss_ceiling`` is the tolerated packet-loss fraction over the
    whole run; ``starvation_bound_ns`` bounds the head-of-line age any
    queue may reach; ``recovery_bound_ns`` bounds how long after the
    *last* fault window closes the watchdog may stay escalated.
    """

    name: str
    specs: Tuple[FaultSpec, ...] = ()
    loss_ceiling: float = 1.0
    starvation_bound_ns: int = 10 * MS
    recovery_bound_ns: int = 5 * MS
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("plan needs a name")
        if not 0.0 <= self.loss_ceiling <= 1.0:
            raise ValueError("loss_ceiling must be in [0, 1]")
        if self.starvation_bound_ns <= 0 or self.recovery_bound_ns <= 0:
            raise ValueError("bounds must be positive")
        object.__setattr__(self, "specs", tuple(self.specs))

    def last_fault_end_ns(self) -> int:
        """When the final fault window closes (0 for an empty plan)."""
        return max((s.end_ns for s in self.specs), default=0)

    def first_fault_start_ns(self) -> int:
        """When the earliest fault window opens (0 for an empty plan).

        The anchor for ``repro chaos --checkpoint-before-fault``: a
        checkpoint just before this instant captures the entire healthy
        prefix of the run.
        """
        return min((s.start_ns for s in self.specs), default=0)

    def kinds(self) -> Tuple[str, ...]:
        """Distinct kinds present, in first-appearance order."""
        seen = []
        for s in self.specs:
            if s.kind not in seen:
                seen.append(s.kind)
        return tuple(seen)

    # -- JSON round-trip ------------------------------------------------- #

    def to_dict(self) -> Dict:
        d = asdict(self)
        d["specs"] = [asdict(s) for s in self.specs]
        return d

    @classmethod
    def from_dict(cls, d: Any) -> "FaultPlan":
        """Build a plan from parsed JSON.  A non-object, an unknown key,
        ``specs`` that is not a list of objects, a missing required key
        or a mistyped value raises :exc:`ValueError`."""
        _check_object(d, cls, "fault plan")
        raw = d.get("specs", [])
        if not isinstance(raw, list):
            raise ValueError("fault plan 'specs' must be a list of objects")
        for s in raw:
            _check_object(s, FaultSpec, "fault spec")
        try:
            return cls(specs=tuple(FaultSpec(**s) for s in raw),
                       **{k: v for k, v in d.items() if k != "specs"})
        except TypeError as exc:  # a missing key or a mistyped value
            raise ValueError(f"malformed fault plan: {exc}") from None


def _check_object(d: Any, cls: type, what: str) -> None:
    """Refuse a parsed JSON value that is not an object of ``cls``'s
    fields."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"not {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}")


# --------------------------------------------------------------------- #
# shipped adversarial scenarios
#
# All sized for the chaos harness default of a 40 ms run: fault windows
# open at 5 ms and close by 24 ms, so the back half of the run exercises
# recovery.  Bounds are calibrated against the shipped harness defaults
# (2 threads, ~40% offered load) across seeds {7, 42, 2020}.
# --------------------------------------------------------------------- #

def _plans() -> Dict[str, FaultPlan]:
    plans = [
        FaultPlan(
            name="timer-misses",
            description="hrtimer interrupts delivered ~150 us late",
            specs=(
                FaultSpec(
                    kind="timer_miss",
                    start_ns=5 * MS,
                    end_ns=20 * MS,
                    magnitude=150 * US,
                    probability=0.7,
                ),
            ),
            loss_ceiling=0.05,
            starvation_bound_ns=4 * MS,
            recovery_bound_ns=5 * MS,
        ),
        FaultPlan(
            name="irq-storm",
            description="IRQ bursts steal half of every Metronome core",
            specs=(
                FaultSpec(
                    kind="irq_storm",
                    start_ns=5 * MS,
                    end_ns=20 * MS,
                    period_ns=100 * US,
                    magnitude=0.5,
                ),
            ),
            loss_ceiling=0.05,
            starvation_bound_ns=4 * MS,
            recovery_bound_ns=5 * MS,
        ),
        FaultPlan(
            name="core-stalls",
            description="repeating 300 us SMI-style freezes",
            specs=(
                FaultSpec(
                    kind="core_stall",
                    start_ns=5 * MS,
                    end_ns=20 * MS,
                    period_ns=2 * MS,
                    duration_ns=300 * US,
                ),
            ),
            loss_ceiling=0.05,
            starvation_bound_ns=4 * MS,
            recovery_bound_ns=5 * MS,
        ),
        FaultPlan(
            name="antagonist",
            description="CPU-hog threads compete on every Metronome core",
            specs=(
                FaultSpec(
                    kind="antagonist",
                    start_ns=5 * MS,
                    end_ns=20 * MS,
                ),
            ),
            loss_ceiling=0.10,
            starvation_bound_ns=6 * MS,
            recovery_bound_ns=6 * MS,
        ),
        FaultPlan(
            name="microburst",
            description="2 Mpps overlay bursts + a NIC pause episode",
            specs=(
                FaultSpec(
                    kind="microburst",
                    start_ns=5 * MS,
                    end_ns=17 * MS,
                    period_ns=3 * MS,
                    duration_ns=500 * US,
                    magnitude=2_000_000,
                ),
                FaultSpec(
                    kind="pause",
                    start_ns=18 * MS,
                    end_ns=24 * MS,
                    period_ns=2 * MS,
                    duration_ns=400 * US,
                ),
            ),
            loss_ceiling=0.10,
            starvation_bound_ns=4 * MS,
            recovery_bound_ns=5 * MS,
        ),
        FaultPlan(
            name="lost-wakeups",
            description="30% of timer wakeups silently dropped",
            specs=(
                FaultSpec(
                    kind="lost_wakeup",
                    start_ns=5 * MS,
                    end_ns=20 * MS,
                    probability=0.3,
                ),
            ),
            loss_ceiling=0.05,
            starvation_bound_ns=4 * MS,
            recovery_bound_ns=5 * MS,
        ),
        FaultPlan(
            name="clock-drift",
            description="sleep timebase runs 10% slow",
            specs=(
                FaultSpec(
                    kind="clock_drift",
                    start_ns=1 * MS,
                    end_ns=24 * MS,
                    magnitude=0.10,
                ),
            ),
            loss_ceiling=0.02,
            starvation_bound_ns=3 * MS,
            recovery_bound_ns=5 * MS,
        ),
        FaultPlan(
            name="perfect-storm",
            description="timer misses + IRQ storm + microburst together",
            specs=(
                FaultSpec(
                    kind="timer_miss",
                    start_ns=5 * MS,
                    end_ns=18 * MS,
                    magnitude=100 * US,
                    probability=0.5,
                ),
                FaultSpec(
                    kind="irq_storm",
                    start_ns=8 * MS,
                    end_ns=20 * MS,
                    period_ns=100 * US,
                    magnitude=0.35,
                ),
                FaultSpec(
                    kind="microburst",
                    start_ns=10 * MS,
                    end_ns=22 * MS,
                    period_ns=4 * MS,
                    duration_ns=400 * US,
                    magnitude=1_500_000,
                ),
            ),
            loss_ceiling=0.15,
            starvation_bound_ns=6 * MS,
            recovery_bound_ns=6 * MS,
        ),
    ]
    return {p.name: p for p in plans}


#: the shipped adversarial scenarios, by name
SHIPPED_PLANS: Dict[str, FaultPlan] = _plans()
