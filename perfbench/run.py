"""The repository benchmark: end-to-end and per-layer figures of the
Metronome simulator on three workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload linerate_1q [--seed 2020]
        [--seconds 10] [--trace 0|1]

Each replica runs in a fresh single-threaded interpreter
(``perfbench/worker.py``), one at a time.  With ``--trace 0`` the
replicas run untraced for up to ``--seconds`` (and at least one pass
over the workload's replica seeds); the end-to-end metrics are medians
over them.  With ``--trace 1`` one untraced and two traced runs of the
first replica give the per-layer metrics, the tracing overhead and the
zero-perturbation checks.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 2020  # repro.config.DEFAULT_SEED; the parent avoids the import


@dataclass(frozen=True)
class Workload:
    #: simulated milliseconds per deployment
    sim_ms: int
    #: replica seeds per pass; simulated metrics pool all of them
    replicas: int
    #: deployments in one replica, in run order
    systems: Tuple[str, ...]


#: Why these three (BENCHMARK.json and README.md say more): each stresses
#: other layers.  All are open loop -- arrivals follow a fixed CBR or
#: trace schedule whatever the service does -- while the host side is a
#: closed loop of one replica at a time.
WORKLOADS: Dict[str, Workload] = {
    # the paper's headline deployment, per-packet path (nic, apps, core)
    "linerate_1q": Workload(50, 8, ("metronome",)),
    # busy CFS, trylock contention and NUMA penalties
    "scale_64q": Workload(8, 12, ("metronome",)),
    # trace generation/replay, dpdk, xdp, and the sleep/wake regime
    "benign_3sys": Workload(200, 5, ("metronome", "dpdk", "xdp")),
}

#: (name, unit, better, measured on) -- the end-to-end metrics in the
#: final JSON line; "host" is the simulator's own cost, "sim" the
#: simulated Metronome deployment
END_TO_END = (
    ("wall_s", "s", "lower", "host"),
    ("setup_s", "s", "lower", "host"),
    ("sim_ns_per_wall_s", "ns/s", "higher", "host"),
    ("peak_rss_mb", "MB", "lower", "host"),
    ("sim_cpu_cores", "cores", "lower", "sim"),
    ("sim_p50_us", "us", "lower", "sim"),
    ("sim_p99_us", "us", "lower", "sim"),
)

#: printed in the table but kept out of the JSON line: each can be 0 (or
#: exists on one workload only), and a relative bound on 0 is undefined
REPORT_ONLY = (
    ("failed_frac", "1", "host"),
    ("sim_loss_ppm", "ppm", "sim"),
    ("sim_latency_samples", "count", "sim"),
    ("paper_cpu_err_pct", "%", "sim"),
)

_SELF = "host self time; moves sim_ns_per_wall_s"
#: (name, unit, better, what it should move and where)
PER_LAYER = (
    ("sim.self_s", "s", "lower", f"{_SELF}, most on scale_64q"),
    ("kernel.scheduler.self_s", "s", "lower", f"{_SELF}, most on scale_64q"),
    ("kernel.sleep.self_s", "s", "lower", f"{_SELF} on benign_3sys"),
    ("kernel.hrtimer.self_s", "s", "lower", f"{_SELF} on benign_3sys"),
    ("kernel.cpu.self_s", "s", "lower", f"{_SELF} on all three"),
    ("nic.self_s", "s", "lower", f"{_SELF}, most on linerate_1q"),
    ("core.self_s", "s", "lower", f"{_SELF}, most on linerate_1q"),
    ("apps.self_s", "s", "lower", f"{_SELF}, most on linerate_1q"),
    ("dpdk.self_s", "s", "lower", f"{_SELF} on benign_3sys"),
    ("xdp.self_s", "s", "lower", f"{_SELF} on benign_3sys"),
    ("traffic.self_s", "s", "lower", f"{_SELF} on benign_3sys"),
    ("harness.self_s", "s", "lower", "host self time; moves setup_s"),
    ("runtime.self_s", "s", "lower",
     f"{_SELF}, most on linerate_1q (function-local import per burst)"),
    ("sim.events_per_pkt", "1/pkt", "lower", "moves sim_ns_per_wall_s"),
    ("sim.cancels_per_pkt", "1/pkt", "lower", "moves sim_ns_per_wall_s"),
    ("kernel.scheduler.completions_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s, most on scale_64q"),
    ("kernel.scheduler.wakes_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s, most on scale_64q"),
    ("kernel.sleep.calls_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s on benign_3sys"),
    ("kernel.hrtimer.arms_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s on benign_3sys"),
    ("nic.rx_bursts_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s on linerate_1q"),
    ("apps.handle_calls_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s on linerate_1q"),
    ("dpdk.polls_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s on benign_3sys (0 elsewhere)"),
    ("xdp.irqs_per_pkt", "1/pkt", "lower",
     "moves sim_ns_per_wall_s on benign_3sys (0 elsewhere)"),
    ("nic.empty_burst_frac", "1", "lower",
     "moves sim_cpu_cores and sim_p99_us"),
    ("core.busy_try_frac", "1", "lower",
     "moves sim_cpu_cores and sim_p99_us, most on scale_64q"),
    ("core.pkts_per_drain", "pkt", "higher",
     "moves sim_cpu_cores and sim_p99_us"),
    ("traffic.generate_s", "s", "lower",
     "moves setup_s and peak_rss_mb on benign_3sys (0 elsewhere)"),
    ("traffic.replay_build_s", "s", "lower",
     "moves setup_s and peak_rss_mb on benign_3sys (0 elsewhere)"),
    ("metrics.latency_samples", "count", "lower",
     "moves peak_rss_mb on all three"),
    ("trace_overhead", "1", "lower", "traced wall / untraced wall"),
)

#: a p99 needs at least this many pooled samples (1 in 256 is sampled)
MIN_P99_SAMPLES = 1000
#: a worker still running after this long is killed and counted failed;
#: with BUDGET_S it keeps a whole run (three traced workers, or replicas
#: started before BUDGET_S) inside 180 s
WORKER_TIMEOUT_S = 50
#: no new replica starts once this much of the run has passed
BUDGET_S = 120

DIGESTS_FILE = HERE / "digests.json"


def replica_seeds(seed: int, n: int) -> List[int]:
    """The workload seed, then ``n - 1`` seeds derived from it."""
    out = [seed]
    for k in range(1, n):
        h = hashlib.sha256(f"perfbench:{seed}:{k}".encode()).digest()
        out.append(int.from_bytes(h[:4], "big"))
    return out


@dataclass
class Rep:
    seed: int
    trace: int
    wall_s: float
    out: Optional[dict]
    error: str = ""


def run_worker(workload: str, seed: int, sim_ms: int, trace: int) -> Rep:
    """One replica in a fresh interpreter; wall time covers its whole
    life, interpreter start to verified results."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--sim-ms", str(sim_ms),
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Rep(seed, trace, time.perf_counter() - t0, None,
                   f"timed out after {WORKER_TIMEOUT_S} s")
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Rep(seed, trace, wall, None,
                   f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    if "error" in out:
        return Rep(seed, trace, wall, None, out["error"])
    return Rep(seed, trace, wall, out)


class Verdict:
    """Failure accounting over every deployment run."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(what)

    def check_rep(self, rep: Rep, expected: Optional[List[str]]) -> None:
        """Count the rep's deployments; each fails on an exception, a
        conservation breach, or a digest other than ``expected``."""
        self.attempted += len(self.wl.systems)
        if rep.out is None:
            self.fail(f"seed {rep.seed} trace={rep.trace}: {rep.error}",
                      len(self.wl.systems))
            return
        for i, dep in enumerate(rep.out["deployments"]):
            where = f"seed {rep.seed} trace={rep.trace} {dep['system']}"
            if dep["failed_checks"]:
                self.fail(f"{where}: conservation broken: "
                          + "; ".join(dep["failed_checks"]))
            elif expected is not None and dep["digest"] != expected[i]:
                self.fail(f"{where}: output digest {dep['digest'][:12]} "
                          f"!= expected {expected[i][:12]}")


def digests_of(rep: Rep) -> Optional[List[str]]:
    if rep.out is None:
        return None
    return [d["digest"] for d in rep.out["deployments"]]


def recorded_digests(workload: str, sim_ms: int, seed: int):
    """Digests committed for this workload, length and seed, if any:
    one list of per-deployment digests per replica seed."""
    table = json.loads(DIGESTS_FILE.read_text())
    entry = table.get(workload, {})
    if entry.get("sim_ms") != sim_ms:
        return None
    return entry.get("seeds", {}).get(str(seed))


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    qs = statistics.quantiles(values, n=4)
    return qs[0], qs[2]


# --------------------------------------------------------------------- #
# untraced run: end-to-end metrics
# --------------------------------------------------------------------- #


def end_to_end(name: str, wl: Workload, seed: int, sim_ms: int,
               seconds: float, verdict: Verdict) -> Optional[dict]:
    seeds = replica_seeds(seed, wl.replicas)
    recorded = recorded_digests(name, sim_ms, seed)
    first: Dict[int, Rep] = {}
    reps: List[Rep] = []
    t0 = time.perf_counter()
    while True:
        # after one pass over the replica seeds, start a replica only if
        # it should end within --seconds (the last one's wall predicts it)
        elapsed = time.perf_counter() - t0
        last = reps[-1].wall_s if reps else 0.0
        limit = seconds if len(reps) >= wl.replicas else BUDGET_S
        if elapsed + last > limit:
            break
        k = len(reps) % wl.replicas
        rep = run_worker(name, seeds[k], sim_ms, 0)
        if recorded is not None:
            expected = recorded[k]
        elif k in first:
            expected = digests_of(first[k])
        else:
            expected = None
        verdict.check_rep(rep, expected)
        first.setdefault(k, rep)
        reps.append(rep)
    ok = [r for r in reps if r.out is not None]
    if len(first) < wl.replicas or any(r.out is None for r in first.values()):
        print(f"error: only {len(ok)} of {wl.replicas} replica seeds "
              "produced results", file=sys.stderr)
        return None

    sys.path.insert(0, str(SRC))
    from repro.harness.paper_data import METRONOME_CPU_AT_LINE_RATE
    from repro.metrics.latency import LatencyStats

    pooled = LatencyStats()
    cpu, offered, drops = [], 0, 0
    for k in range(wl.replicas):
        dep = first[k].out["deployments"][wl.systems.index("metronome")]
        pooled.extend(dep["samples"])
        cpu.append(dep["cpu"])
        offered += dep["offered"]
        drops += dep["drops"]
    values = {
        "wall_s": [r.wall_s for r in ok],
        "setup_s": [r.wall_s - r.out["run_s"] for r in ok],
        "sim_ns_per_wall_s": [r.out["sim_ns"] / r.out["run_s"] for r in ok],
        "peak_rss_mb": [r.out["peak_rss_mb"] for r in ok],
    }
    metrics = {k: statistics.median(v) for k, v in values.items()}
    metrics["sim_cpu_cores"] = statistics.fmean(cpu)
    if pooled.count:
        metrics["sim_p50_us"] = pooled.percentile(50) / 1e3
        metrics["sim_p99_us"] = pooled.percentile(99) / 1e3
    report = {
        "failed_frac": verdict.failed / verdict.attempted,
        "sim_loss_ppm": drops / offered * 1e6,
        "sim_latency_samples": pooled.count,
    }
    if name == "linerate_1q":
        report["paper_cpu_err_pct"] = abs(
            metrics["sim_cpu_cores"] - METRONOME_CPU_AT_LINE_RATE
        ) / METRONOME_CPU_AT_LINE_RATE * 100
    if sim_ms == wl.sim_ms and pooled.count < MIN_P99_SAMPLES:
        verdict.fail(f"p99 from {pooled.count} samples "
                     f"(< {MIN_P99_SAMPLES})", 0)
    print(f"perfbench {name}: seed {seed}, {sim_ms} ms simulated per "
          f"deployment, {wl.replicas} replica seeds, {len(reps)} runs "
          f"({len(ok)} ok) in {time.perf_counter() - t0:.1f} s")
    for mname, unit, _better, kind in END_TO_END:
        if mname not in metrics:
            continue
        line = f"  {mname:<22}{metrics[mname]:>16.6g} {unit:<6} {kind:<5}"
        if mname in values:
            lo, hi = quartiles(values[mname])
            line += f" median of {len(values[mname])} (q1 {lo:.6g}, q3 {hi:.6g})"
        else:
            line += f" pooled over {wl.replicas} replica seeds"
        print(line)
    for mname, unit, kind in REPORT_ONLY:
        if mname in report:
            print(f"  {mname:<22}{report[mname]:>16.6g} {unit:<6} {kind:<5}"
                  " report-only")
    if "paper_cpu_err_pct" in report:
        print("  paper reference: Metronome CPU 0.60 cores at line rate "
              "(paper_data.METRONOME_CPU_AT_LINE_RATE)")
    else:
        print("  paper_cpu_err_pct: unvalidated (no paper reference for "
              "this workload in the repo)")
    print("  digests: " + json.dumps(
        {str(s): digests_of(first[k]) for k, s in enumerate(seeds)}))
    if recorded is None:
        print("  digests checked run to run (none recorded for this seed)")
    else:
        print("  digests checked against perfbench/digests.json")
    return metrics


# --------------------------------------------------------------------- #
# traced run: per-layer metrics
# --------------------------------------------------------------------- #


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(base: Rep, traced: List[Rep]) -> dict:
    deps = {d["system"]: d for d in traced[0].out["deployments"]}
    c = traced[0].out["counts"]
    pkts = sum(d["delivered"] for d in deps.values())
    met = deps["metronome"]
    m = {f"{layer}.self_s": statistics.fmean(r.out["self_s"][layer]
                                             for r in traced)
         for layer in traced[0].out["self_s"]}
    bursts = c.get("call:RxQueue.rx_burst", 0)
    tries = c.get("call:TryLock.try_acquire", 0)
    dpdk, xdp = deps.get("dpdk"), deps.get("xdp")
    m.update({
        "sim.events_per_pkt": _per(sum(d["events"] for d in deps.values()),
                                   pkts),
        "sim.cancels_per_pkt": _per(c.get("call:Handle.cancel", 0), pkts),
        "kernel.scheduler.completions_per_pkt": _per(
            c.get("fire:CfsScheduler._on_complete", 0), pkts),
        "kernel.scheduler.wakes_per_pkt": _per(
            c.get("call:CfsScheduler.wake", 0), pkts),
        "kernel.sleep.calls_per_pkt": _per(
            c.get("call:SleepService.call", 0), pkts),
        "kernel.hrtimer.arms_per_pkt": _per(
            c.get("call:HrTimerQueue.arm", 0), pkts),
        "nic.rx_bursts_per_pkt": _per(bursts, pkts),
        "apps.handle_calls_per_pkt": _per(
            c.get("call:PacketApp.handle", 0), pkts),
        "dpdk.polls_per_pkt": _per(dpdk["polls"], dpdk["delivered"])
        if dpdk else 0.0,
        "xdp.irqs_per_pkt": _per(xdp["irqs"], xdp["delivered"])
        if xdp else 0.0,
        "nic.empty_burst_frac": _per(
            c.get("outcome:RxQueue.rx_burst", 0), bursts),
        "core.busy_try_frac": _per(
            c.get("outcome:TryLock.try_acquire", 0), tries),
        "core.pkts_per_drain": _per(
            met["delivered"], c.get("call:AdaptiveTuner.observe", 0)),
        "traffic.generate_s": base.out.get("generate_s", 0.0),
        "traffic.replay_build_s": base.out.get("replay_build_s", 0.0),
        "metrics.latency_samples": sum(
            d["latency_count"] for d in base.out["deployments"]),
        "trace_overhead": statistics.fmean(r.wall_s for r in traced)
        / base.wall_s,
    })
    return m


def per_layer(name: str, wl: Workload, seed: int, sim_ms: int,
              verdict: Verdict) -> Optional[dict]:
    recorded = recorded_digests(name, sim_ms, seed)
    base = run_worker(name, seed, sim_ms, 0)
    verdict.check_rep(base, recorded[0] if recorded else None)
    reference = recorded[0] if recorded else digests_of(base)
    traced = []
    for _ in range(2):
        rep = run_worker(name, seed, sim_ms, 1)
        # zero perturbation: the traced outputs equal the untraced ones
        verdict.check_rep(rep, reference)
        traced.append(rep)
    if base.out is None or any(r.out is None for r in traced):
        print("error: a traced or untraced run produced no result",
              file=sys.stderr)
        return None
    a, b = (r.out for r in traced)
    if (a["counts"], a["edges"]) != (b["counts"], b["edges"]):
        diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                      if a["counts"].get(k) != b["counts"].get(k))
        verdict.fail("exact counts differ between the two traced runs: "
                     + ", ".join(diff[:10]), 0)
    metrics = layer_metrics(base, traced)
    print(f"perfbench {name} traced: seed {seed}, {sim_ms} ms simulated, "
          f"untraced {base.wall_s:.2f} s, traced "
          f"{traced[0].wall_s:.2f} s / {traced[1].wall_s:.2f} s")
    for mname, unit, _better, moves in PER_LAYER:
        print(f"  {mname:<38}{metrics[mname]:>14.6g} {unit:<6} {moves}")
    print("  span edges (parent>child: spans): " + ", ".join(
        f"{k}: {v}" for k, v in a["edges"].items()))
    return metrics


# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="host seconds of untraced replicas to measure (at "
                         "least one pass over the replica seeds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sim-ms", type=int, default=None,
                    help="override the simulated length (smoke tests)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    sim_ms = args.sim_ms or wl.sim_ms
    # byte-compile once so no replica pays for it (users do not either)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(HERE)], check=True, capture_output=True)

    verdict = Verdict(wl)
    if args.trace:
        metrics = per_layer(args.workload, wl, args.seed, sim_ms, verdict)
        names = [m[0] for m in PER_LAYER]
        units = {m[0]: m[1] for m in PER_LAYER}
    else:
        metrics = end_to_end(args.workload, wl, args.seed, sim_ms,
                             args.seconds, verdict)
        names = [m[0] for m in END_TO_END]
        units = {m[0]: m[1] for m in END_TO_END}
    if metrics is None or any(n not in metrics for n in names):
        for p in verdict.problems:
            print(f"  FAILED {p}", file=sys.stderr)
        return 1
    for p in verdict.problems:
        print(f"  FAILED {p}")
    print(f"  checks: {verdict.attempted - verdict.failed}/"
          f"{verdict.attempted} deployment runs passed"
          + ("" if not verdict.problems else
             f"; {len(verdict.problems)} problem(s) above"))
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
