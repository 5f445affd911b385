"""One replica of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per replica, one at a time, and
reads the single JSON line it prints.  It drives the public runners
directly (never the campaign cache or process pool), checks packet
conservation on every deployment, and digests each deployment's
simulated outputs.  With ``--trace 1`` the span wrappers of
``spans.py`` are installed around the run and removed afterwards.

Usage (normally only through ``run.py``)::

    PYTHONPATH=src python3 perfbench/worker.py --workload linerate_1q \\
        --seed 2020 --sim-ms 50 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

from run import WORKLOADS

from repro import config
from repro.harness.experiment import run_dpdk, run_metronome, run_xdp
from repro.harness.scale import run_metronome_scaled
from repro.kernel.machine import Machine
from repro.sim.units import MS
from repro.traffic import TraceReplayProcess, benign_phased, generate

from spans import LAYERS, SpanTracer


class RunClock:
    """Times every ``Machine.run`` call: host seconds spent inside it
    and simulated nanoseconds it advanced."""

    def __init__(self) -> None:
        self.host_s = 0.0
        self.sim_ns = 0
        self._orig = Machine.__dict__["run"]

    def install(self) -> None:
        orig = self._orig
        clock = self

        def run(machine, until=None):
            t_sim = machine.sim.now
            t0 = time.perf_counter()
            try:
                orig(machine, until)
            finally:
                clock.host_s += time.perf_counter() - t0
                clock.sim_ns += machine.sim.now - t_sim

        Machine.run = run

    def remove(self) -> None:
        Machine.run = self._orig


def _call(tracer, layer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.timed(layer, fn, name)(*args, **kwargs)


def _deployment(system: str, result, extra: dict) -> dict:
    """Conservation check and output digest of one finished run."""
    queues = result.machine.sim.rx_queues
    for q in queues:
        q.sync()
    arrived = sum(q.arrived_total for q in queues)
    occupancy = sum(q.ring.occupancy for q in queues)
    checks = {
        "offered == sum of queue arrivals": result.offered == arrived,
        "offered == delivered + drops + ring occupancy":
            result.offered == result.delivered + result.drops + occupancy,
    }
    samples = result.latency.samples()
    outputs = {
        "system": system,
        "offered": result.offered,
        "delivered": result.delivered,
        "drops": result.drops,
        "occupancy": occupancy,
        "cpu_utilization": repr(result.cpu_utilization),
        "energy_j": repr(result.energy_j),
        "events": result.machine.sim.events_scheduled,
        "latency_sha": hashlib.sha256(repr(samples).encode()).hexdigest(),
        **extra,
    }
    digest = hashlib.sha256(
        json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return {
        "system": system,
        "digest": digest,
        "failed_checks": [k for k, ok in checks.items() if not ok],
        "offered": result.offered,
        "delivered": result.delivered,
        "drops": result.drops,
        "latency_count": len(samples),
        "events": result.machine.sim.events_scheduled,
        "cpu": result.cpu_utilization,
        "samples": samples if system == "metronome" else None,
        **extra,
    }


def _metronome_extra(result) -> dict:
    return {
        "cycles": result.cycles,
        "busy_tries": result.busy_tries,
        "wake_rounds": result.wake_rounds,
        "rho": repr(result.rho),
        "ts_us": repr(result.ts_us),
    }


def run_linerate(seed: int, sim_ms: int, tracer, timings: dict) -> list:
    """Metronome, M=3 on one queue, CBR 14.88 Mpps, hr_sleep, adaptive."""
    res = _call(tracer, "harness", "run_metronome", run_metronome,
                config.LINE_RATE_PPS, duration_ms=sim_ms,
                cfg=config.SimConfig(seed=seed))
    return [_deployment("metronome", res, _metronome_extra(res))]


def run_scale(seed: int, sim_ms: int, tracer, timings: dict) -> list:
    """64 queues, 32 threads, 100G CBR over two NUMA nodes."""
    res = _call(tracer, "harness", "run_metronome_scaled",
                run_metronome_scaled, 64, 32, gbps=100, numa_nodes=2,
                duration_ms=sim_ms, seed=seed)
    return [_deployment("metronome", res, _metronome_extra(res))]


def run_benign(seed: int, sim_ms: int, tracer, timings: dict) -> list:
    """The benign phased trace replayed through all three systems."""
    t0 = time.perf_counter()
    trace = _call(tracer, "traffic", "generate", generate,
                  benign_phased(sim_ms * MS), seed)
    timings["generate_s"] = time.perf_counter() - t0
    timings["replay_build_s"] = 0.0
    out = []
    for system, runner in (("metronome", run_metronome),
                           ("dpdk", run_dpdk), ("xdp", run_xdp)):
        t0 = time.perf_counter()
        process = _call(tracer, "traffic", "TraceReplayProcess",
                        TraceReplayProcess, trace)
        timings["replay_build_s"] += time.perf_counter() - t0
        res = _call(tracer, "harness", runner.__name__, runner, process,
                    duration_ms=sim_ms, cfg=config.SimConfig(seed=seed))
        if system == "metronome":
            extra = _metronome_extra(res)
        elif system == "dpdk":
            extra = {"polls": res.lcore.polls}
        else:
            extra = {"irqs": res.irqs}
        out.append(_deployment(system, res, extra))
    return out


RUNNERS = {
    "linerate_1q": run_linerate,
    "scale_64q": run_scale,
    "benign_3sys": run_benign,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sim-ms", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    clock = RunClock()
    clock.install()
    tracer = SpanTracer() if args.trace else None
    timings: dict = {}
    out = {"workload": args.workload, "seed": args.seed,
           "sim_ms": args.sim_ms, "trace": args.trace}
    if tracer is not None:
        tracer.install()
    try:
        out["deployments"] = RUNNERS[args.workload](
            args.seed, args.sim_ms, tracer, timings)
    except Exception:  # reported to run.py, which counts the failure
        out["error"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.remove()
        clock.remove()
    out["run_s"] = clock.host_s
    out["sim_ns"] = clock.sim_ns
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(timings)
    if tracer is not None:
        out["self_s"] = {k: tracer.self_ns[k] / 1e9 for k in LAYERS}
        out["counts"] = tracer.counts()
        out["edges"] = {f"{p}>{c}": n
                        for (p, c), n in sorted(tracer.edges.items())}
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
