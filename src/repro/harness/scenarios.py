"""One scenario function per paper table/figure (DESIGN.md §3).

Every function returns plain data (lists of row tuples or dataclasses)
that the corresponding bench renders next to the paper's numbers.
Durations are parameterized so tests can run abbreviated versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro import config
from repro.core.model import pdf_vacation
from repro.core.tuning import FixedTuner
from repro.harness.experiment import (
    run_dpdk,
    run_metronome,
    run_xdp,
)
from repro.kernel.machine import Machine
from repro.kernel.thread import Exit
from repro.metrics.cpu import CpuSampler
from repro.metrics.latency import LatencyStats
from repro.metrics.recorder import TimeSeries
from repro.nic.traffic import CbrProcess, gbps_to_pps, triangle_ramp
from repro.sim.units import MS, SEC, US

LINE = config.LINE_RATE_PPS


# ---------------------------------------------------------------------- #
# Table 1 — sleep precision
# ---------------------------------------------------------------------- #

def table1_sleep_precision(
    samples: int = 10_000,
    targets_us: Sequence[int] = (1, 5, 10, 50, 100, 200),
    services: Sequence[str] = ("nanosleep", "hr_sleep"),
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[str, int, float, float]]:
    """Rows: (service, target_us, mean_us, p99_us).

    Method mirrors §3.3.1: a SCHED_OTHER thread on an isolated core
    timestamps around each sleep call.
    """
    rows: List[Tuple[str, int, float, float]] = []
    for service_name in services:
        for target in targets_us:
            cfg = config.SimConfig(num_cores=2, seed=seed, os_noise=False)
            machine = Machine(cfg)
            stats = LatencyStats()

            def body(kt, machine=machine, stats=stats,
                     service_name=service_name, target=target):
                service = machine.sleep_service(service_name)
                for _ in range(samples):
                    t0 = machine.sim.now
                    yield from service.call(kt, target * US)
                    stats.add(machine.sim.now - t0)
                yield Exit()

            machine.spawn(body, name=f"{service_name}-{target}us", core=0)
            machine.run()
            rows.append(
                (service_name, target,
                 stats.mean() / 1e3, stats.percentile(99) / 1e3)
            )
    return rows


# ---------------------------------------------------------------------- #
# Figure 2 — CPU and energy of 1M-iteration Metronome loops, no traffic
# ---------------------------------------------------------------------- #

@dataclass
class Fig2Point:
    service: str
    timeout_us: int
    threads: int
    cpu_seconds: float          # getrusage-style total thread CPU time
    energy_j: float
    wall_seconds: float


def fig2_cpu_energy(
    iterations: int = 20_000,
    timeouts_us: Sequence[int] = (20, 100),
    thread_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    seed: int = config.DEFAULT_SEED,
) -> List[Fig2Point]:
    """§3.3.2/.3: Metronome loop with fixed timeout, zero traffic.

    Each thread runs ``iterations`` loop iterations, then exits; CPU is
    read getrusage-style around the slaves' execution, energy via RAPL.
    """
    from repro.core.metronome import MetronomeGroup
    from repro.dpdk.app import CountingApp
    from repro.nic.rxqueue import RxQueue

    points: List[Fig2Point] = []
    for service_name in ("nanosleep", "hr_sleep"):
        for timeout in timeouts_us:
            for m in thread_counts:
                cfg = config.SimConfig(
                    num_cores=max(6, m), seed=seed, os_noise=False
                )
                machine = Machine(cfg)
                queue = RxQueue(machine.sim, CbrProcess(0))
                group = MetronomeGroup(
                    machine,
                    [queue],
                    CountingApp(),
                    tuner=FixedTuner(ts_ns=timeout * US, tl_ns=timeout * US),
                    sleep_service=service_name,
                    num_threads=m,
                    cores=list(range(m)),
                    iterations=iterations,
                )
                group.start()
                e0 = machine.energy_joules()
                done = machine.sim.event()
                remaining = {"n": m}

                def _one_done(_ev, remaining=remaining, done=done):
                    remaining["n"] -= 1
                    if remaining["n"] == 0:
                        done.succeed()

                for t in group.threads:
                    t.exited.add_callback(_one_done)
                # generous bound: iterations * (timeout + worst overhead)
                bound = iterations * (timeout + 80) * US * 2 + 10 * MS
                machine.run_until_event(done, hard_limit=bound)
                if not group.all_done():
                    raise RuntimeError("fig2 run did not finish; raise bound")
                points.append(
                    Fig2Point(
                        service=service_name,
                        timeout_us=timeout,
                        threads=m,
                        cpu_seconds=group.cpu_time_ns() / SEC,
                        energy_j=machine.energy_joules() - e0,
                        wall_seconds=machine.sim.now / SEC,
                    )
                )
    return points


# ---------------------------------------------------------------------- #
# Table 2 — V̄ sweep at line rate
# ---------------------------------------------------------------------- #

def table2_vbar_sweep(
    vbars_us: Sequence[int] = (5, 10, 12, 15, 20),
    duration_ms: int = 100,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[int, float, float, float, float]]:
    """Rows: (target V us, measured V us, measured B us, N_V, loss permille)."""
    rows = []
    for vbar in vbars_us:
        cfg = config.SimConfig(seed=seed, vbar_ns=vbar * US)
        res = run_metronome(LINE, duration_ms=duration_ms, cfg=cfg)
        rows.append(
            (vbar, res.mean_vacation_us, res.mean_busy_us,
             res.mean_n_vacation, res.loss_fraction * 1e3)
        )
    return rows


# ---------------------------------------------------------------------- #
# Figure 5 — vacation PDF, analysis vs experiment (T_S = T_L)
# ---------------------------------------------------------------------- #

@dataclass
class Fig5Series:
    m: int
    bin_centers_us: List[float]
    empirical_density: List[float]   # per-us density
    model_density: List[float]
    beyond_tl_fraction: float        # rare OS-delay tail (paper's comment)


def fig5_vacation_pdf(
    m_values: Sequence[int] = (2, 3, 5),
    timeout_us: int = 50,
    rate_pps: int = None,
    duration_ms: int = 300,
    bins: int = 25,
    seed: int = config.DEFAULT_SEED,
) -> List[Fig5Series]:
    """§4.2.4: histogram of measured V against eq. (9), T_S = T_L = 50 us.

    Traffic is Poisson: the decorrelation assumption rests on *random
    service durations* de-synchronizing the threads (§4.2.2); perfectly
    deterministic CBR lets wake phases lock instead of mixing, which is
    a real (if lab-exotic) phenomenon the model does not describe.
    """
    from repro.nic.traffic import PoissonProcess
    from repro.sim.rng import RandomStreams

    rate = rate_pps if rate_pps is not None else config.LINE_RATE_PPS
    out: List[Fig5Series] = []
    for m in m_values:
        cfg = config.SimConfig(seed=seed, num_cores=max(6, m))
        tuner = FixedTuner(ts_ns=timeout_us * US, tl_ns=timeout_us * US)
        process = PoissonProcess(
            rate, RandomStreams(seed).numpy_stream(f"fig5-m{m}")
        )
        res = run_metronome(
            process, duration_ms=duration_ms, cfg=cfg, tuner=tuner,
            num_threads=m, cores=list(range(m)),
        )
        vacations = [v / US for v in res.group.cycle_stats().vacations_ns()]
        if not vacations:
            raise RuntimeError("no vacation samples collected")
        hi = timeout_us * 1.0
        width = hi / bins
        counts = [0] * bins
        beyond = 0
        for v in vacations:
            idx = int(v / width)
            if idx < bins:
                counts[idx] += 1
            elif v > timeout_us * 1.5:
                beyond += 1
        total = len(vacations)
        centers = [(i + 0.5) * width for i in range(bins)]
        empirical = [c / total / width for c in counts]
        model = [
            pdf_vacation(x, timeout_us, timeout_us, m) for x in centers
        ]
        out.append(
            Fig5Series(
                m=m,
                bin_centers_us=centers,
                empirical_density=empirical,
                model_density=model,
                beyond_tl_fraction=beyond / total,
            )
        )
    return out


# ---------------------------------------------------------------------- #
# Figure 6 — latency & CPU vs target V̄
# ---------------------------------------------------------------------- #

def fig6_latency_cpu(
    vbars_us: Sequence[int] = (5, 10, 15, 20),
    rates_gbps: Sequence[float] = (1.0, 5.0, 10.0),
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[float, int, float, float, float]]:
    """Rows: (gbps, vbar_us, mean latency us, p99 us, cpu)."""
    rows = []
    for gbps in rates_gbps:
        for vbar in vbars_us:
            cfg = config.SimConfig(seed=seed, vbar_ns=vbar * US)
            res = run_metronome(
                gbps_to_pps(gbps), duration_ms=duration_ms, cfg=cfg
            )
            rows.append(
                (gbps, vbar, res.latency.mean() / 1e3,
                 res.latency.percentile(99) / 1e3, res.cpu_utilization)
            )
    return rows


# ---------------------------------------------------------------------- #
# Figure 7 — busy tries and CPU vs T_L
# ---------------------------------------------------------------------- #

def fig7_tl_sweep(
    tls_us: Sequence[int] = (100, 200, 300, 400, 500, 600, 700),
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[int, float, float]]:
    """Rows: (T_L us, busy-try fraction, cpu).  Line rate, V̄ = 10 us."""
    rows = []
    for tl in tls_us:
        cfg = config.SimConfig(seed=seed, tl_ns=tl * US)
        res = run_metronome(LINE, duration_ms=duration_ms, cfg=cfg)
        rows.append((tl, res.busy_try_fraction, res.cpu_utilization))
    return rows


# ---------------------------------------------------------------------- #
# Figure 8 — busy tries and CPU vs M
# ---------------------------------------------------------------------- #

def fig8_m_sweep(
    m_values: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[int, float, float]]:
    """Rows: (M, busy-try fraction, cpu).  Line rate, defaults otherwise."""
    rows = []
    for m in m_values:
        cfg = config.SimConfig(seed=seed, num_cores=max(6, m))
        res = run_metronome(
            LINE, duration_ms=duration_ms, cfg=cfg,
            num_threads=m, cores=list(range(m)),
        )
        rows.append((m, res.busy_try_fraction, res.cpu_utilization))
    return rows


# ---------------------------------------------------------------------- #
# Figure 9 — latency vs M
# ---------------------------------------------------------------------- #

def fig9_latency_vs_m(
    m_values: Sequence[int] = (2, 3, 5, 7),
    rates_mpps: Sequence[float] = (14.0, 1.0),
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[float, int, dict]]:
    """Rows: (rate Mpps, M, boxplot stats dict of latency us)."""
    rows = []
    for rate in rates_mpps:
        for m in m_values:
            cfg = config.SimConfig(seed=seed, num_cores=max(6, m))
            res = run_metronome(
                int(rate * 1e6), duration_ms=duration_ms, cfg=cfg,
                num_threads=m, cores=list(range(m)),
            )
            b = res.latency.boxplot()
            rows.append(
                (rate, m, {
                    "mean": b.mean / 1e3, "median": b.median / 1e3,
                    "q1": b.q1 / 1e3, "q3": b.q3 / 1e3,
                    "p99": res.latency.percentile(99) / 1e3,
                    "std": b.std / 1e3,
                })
            )
    return rows


# ---------------------------------------------------------------------- #
# Table 3 — nanosleep-in-Metronome packet loss
# ---------------------------------------------------------------------- #

def table3_nanosleep_loss(
    cases: Sequence[Tuple[int, int]] = ((1024, 10), (2048, 10), (4096, 10), (4096, 1)),
    duration_ms: int = 100,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[int, int, float, float]]:
    """Rows: (ring, vbar_us, nanosleep loss %, hr_sleep loss %)."""
    rows = []
    for ring, vbar in cases:
        losses = {}
        for service in ("nanosleep", "hr_sleep"):
            cfg = config.SimConfig(seed=seed, vbar_ns=vbar * US, rx_ring_size=ring)
            res = run_metronome(
                LINE, duration_ms=duration_ms, cfg=cfg, sleep_service=service
            )
            losses[service] = res.loss_fraction * 100
        rows.append((ring, vbar, losses["nanosleep"], losses["hr_sleep"]))
    return rows


# ---------------------------------------------------------------------- #
# Figure 10 — latency boxplots, hr_sleep vs nanosleep
# ---------------------------------------------------------------------- #

def fig10_latency_boxplots(
    rates_gbps: Sequence[float] = (1.0, 5.0, 10.0),
    vbars_us: Sequence[int] = (1, 10),
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
    services: Sequence[str] = ("hr_sleep", "nanosleep"),
) -> List[Tuple[str, float, int, dict]]:
    """Rows: (service, gbps, vbar_us, latency boxplot us).

    Following the paper's footnote, the nanosleep runs use the 4096 ring
    so loss does not contaminate the latency comparison.
    """
    rows = []
    for service in services:
        ring = 4096 if service == "nanosleep" else config.DEFAULT_RX_RING
        for gbps in rates_gbps:
            for vbar in vbars_us:
                cfg = config.SimConfig(
                    seed=seed, vbar_ns=vbar * US, rx_ring_size=ring
                )
                res = run_metronome(
                    gbps_to_pps(gbps), duration_ms=duration_ms, cfg=cfg,
                    sleep_service=service,
                )
                b = res.latency.boxplot()
                rows.append(
                    (service, gbps, vbar, {
                        "mean": b.mean / 1e3, "median": b.median / 1e3,
                        "q1": b.q1 / 1e3, "q3": b.q3 / 1e3,
                        "whisk_hi": b.whisker_high / 1e3,
                    })
                )
    return rows


# ---------------------------------------------------------------------- #
# Figure 11 — adaptation to a varying offered load
# ---------------------------------------------------------------------- #

@dataclass
class Fig11Result:
    series: TimeSeries          # offered_mpps, delivered_mpps, ts_us, rho, cpu
    duration_ns: int
    total_offered: int
    total_delivered: int


def fig11_adaptation(
    duration_s: float = 3.0,
    peak_mpps: float = 14.0,
    window_ms: int = 50,
    seed: int = config.DEFAULT_SEED,
) -> Fig11Result:
    """§5.3: triangle CBR ramp; Metronome tracks rate, T_S, ρ, CPU.

    The paper runs 60 s; the profile here is time-compressed (same
    shape) to keep simulation cost sane — pass ``duration_s=60`` for the
    full-length run.
    """
    duration_ns = int(duration_s * SEC)
    profile = triangle_ramp(duration_ns, int(peak_mpps * 1e6), steps=15)
    cfg = config.SimConfig(seed=seed)
    series = TimeSeries()

    state = {"last_rx": 0, "last_offered": 0}

    def setup(machine: Machine, group) -> None:
        sampler = CpuSampler(machine, window_ms * MS, cores=group.cores)
        sampler.start()
        queue = group.shared[0].queue

        def snapshot() -> None:
            now = machine.sim.now
            queue.sync()
            offered = queue.arrived_total
            rx = group.total_packets
            window = window_ms * MS
            series.record("offered_mpps", now,
                          (offered - state["last_offered"]) / (window / SEC) / 1e6)
            series.record("delivered_mpps", now,
                          (rx - state["last_rx"]) / (window / SEC) / 1e6)
            series.record("ts_us", now, group.tuner.ts_ns() / US)
            series.record("rho", now, group.tuner.rho)
            if sampler.samples:
                series.record("cpu", now, sampler.samples[-1][1])
            state["last_offered"] = offered
            state["last_rx"] = rx
            machine.sim.call_after(window, snapshot)

        machine.sim.call_after(window_ms * MS, snapshot)

    res = run_metronome(
        profile, duration_ms=int(duration_s * 1000), cfg=cfg, setup_hook=setup
    )
    return Fig11Result(
        series=series,
        duration_ns=duration_ns,
        total_offered=res.offered,
        total_delivered=res.delivered,
    )


# ---------------------------------------------------------------------- #
# Figure 12 — Metronome vs DPDK vs XDP
# ---------------------------------------------------------------------- #

def fig12_compare(
    rates_gbps: Sequence[float] = (0.5, 1.0, 5.0, 10.0),
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[str, float, float, float, float, float]]:
    """Rows: (system, gbps, mean latency us, p99 us, cpu, loss %).

    XDP core counts follow §5.5: 4 cores at 5/10 Gbps, 1 below; its
    10 Gbps offered rate is capped at the paper's measured 13.57 Mpps
    ceiling (they shaped traffic to avoid loss the same way).
    """
    rows = []
    for gbps in rates_gbps:
        pps = gbps_to_pps(gbps)
        cfg = config.SimConfig(seed=seed)
        met = run_metronome(pps, duration_ms=duration_ms, cfg=cfg)
        rows.append(("metronome", gbps, met.latency.mean() / 1e3,
                     met.latency.percentile(99) / 1e3,
                     met.cpu_utilization, met.loss_fraction * 100))
        cfg = config.SimConfig(seed=seed)
        dpdk = run_dpdk(pps, duration_ms=duration_ms, cfg=cfg)
        rows.append(("dpdk", gbps, dpdk.latency.mean() / 1e3,
                     dpdk.latency.percentile(99) / 1e3,
                     dpdk.cpu_utilization, dpdk.loss_fraction * 100))
        xdp_queues = 4 if gbps >= 5.0 else 1
        xdp_pps = min(pps, int(13.57e6))
        cfg = config.SimConfig(seed=seed)
        xdp = run_xdp(
            xdp_pps, duration_ms=duration_ms, cfg=cfg,
            num_queues=xdp_queues,
        )
        rows.append(("xdp", gbps, xdp.latency.mean() / 1e3,
                     xdp.latency.percentile(99) / 1e3,
                     xdp.cpu_utilization, xdp.loss_fraction * 100))
    return rows


# ---------------------------------------------------------------------- #
# Figure 13 — power vs rate under both governors
# ---------------------------------------------------------------------- #

def fig13_power_governors(
    rates_gbps: Sequence[float] = (0.0, 0.5, 1.0, 5.0, 10.0),
    governors: Sequence[str] = ("performance", "ondemand"),
    duration_ms: int = 80,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple[str, str, float, float, float]]:
    """Rows: (governor, system, gbps, watts, cpu)."""
    rows = []
    for governor in governors:
        for gbps in rates_gbps:
            pps = gbps_to_pps(gbps) if gbps else 0
            cfg = config.SimConfig(seed=seed, governor=governor)
            met = run_metronome(pps, duration_ms=duration_ms, cfg=cfg)
            watts = met.energy_j / (duration_ms * MS / SEC)
            rows.append((governor, "metronome", gbps, watts,
                         met.cpu_utilization))
            cfg = config.SimConfig(seed=seed, governor=governor)
            dpdk = run_dpdk(pps, duration_ms=duration_ms, cfg=cfg)
            watts = dpdk.energy_j / (duration_ms * MS / SEC)
            rows.append((governor, "dpdk", gbps, watts,
                         dpdk.cpu_utilization))
    return rows


# ---------------------------------------------------------------------- #
# Figure 14 + Table 4 — coexistence with ferret
# ---------------------------------------------------------------------- #

@dataclass
class CoexistenceResult:
    ferret_alone_ms: float
    ferret_with_dpdk_ms: float
    ferret_with_metronome_ms: float
    dpdk_shared_mpps: float
    metronome_shared_mpps: float
    metronome_shared_loss_pct: float


def ferret_coexistence(
    ferret_work_ms: int = 150,
    throughput_ms: int = 300,
    seed: int = config.DEFAULT_SEED,
) -> CoexistenceResult:
    """§5.6 (Figure 14 + Table 4).

    Completion-time runs (Figure 14):

    * ferret alone on one core (baseline);
    * ferret + static polling DPDK on the same core (both SCHED_OTHER
      nice 0 — a −20 poller would starve ferret outright under pure CFS;
      see EXPERIMENTS.md);
    * ferret (nice 19, three workers) + Metronome (nice −20) on the same
      three cores, line-rate traffic.

    Throughput runs (Table 4) use oversized ferret jobs so the sharing
    persists for the whole measurement window.
    """
    from repro.apps.ferret import FerretWorkload

    # -- baseline: ferret alone ---------------------------------------- #
    cfg = config.SimConfig(seed=seed)
    machine = Machine(cfg)
    ferret = FerretWorkload(machine, total_work_ms=ferret_work_ms,
                            num_workers=1, cores=[0], nice=0)
    ferret.start()
    machine.run(until=ferret_work_ms * 4 * MS)
    alone_ms = ferret.elapsed_ms()

    holder = {}

    def completion_bound() -> int:
        return ferret_work_ms * 10 * MS

    # -- Figure 14: ferret + static DPDK on one core -------------------- #
    def add_ferret_dpdk(machine: Machine, _lcore) -> None:
        w = FerretWorkload(machine, total_work_ms=ferret_work_ms,
                           num_workers=1, cores=[0], nice=0)
        w.start()
        holder["dpdk"] = w

    run_dpdk(LINE, duration_ms=completion_bound() // MS,
             cfg=config.SimConfig(seed=seed),
             core=0, nice=0, setup_hook=add_ferret_dpdk)
    with_dpdk_ms = holder["dpdk"].elapsed_ms()

    # -- Figure 14: ferret + Metronome on three shared cores ------------ #
    def add_ferret_met(machine: Machine, group) -> None:
        w = FerretWorkload(machine, total_work_ms=ferret_work_ms * 3,
                           num_workers=3, cores=[0, 1, 2], nice=19)
        w.start()
        holder["met"] = w

    run_metronome(LINE, duration_ms=completion_bound() // MS,
                  cfg=config.SimConfig(seed=seed),
                  nice=-20, setup_hook=add_ferret_met)
    with_met_ms = holder["met"].elapsed_ms()

    # -- Table 4: throughput while the cores stay shared ---------------- #
    oversized = throughput_ms * 3

    def add_hog_dpdk(machine: Machine, _lcore) -> None:
        FerretWorkload(machine, total_work_ms=oversized,
                       num_workers=1, cores=[0], nice=0).start()

    dpdk = run_dpdk(LINE, duration_ms=throughput_ms,
                    cfg=config.SimConfig(seed=seed),
                    core=0, nice=0, setup_hook=add_hog_dpdk)

    def add_hog_met(machine: Machine, group) -> None:
        FerretWorkload(machine, total_work_ms=oversized * 3,
                       num_workers=3, cores=[0, 1, 2], nice=19).start()

    met = run_metronome(LINE, duration_ms=throughput_ms,
                        cfg=config.SimConfig(seed=seed),
                        nice=-20, setup_hook=add_hog_met)

    return CoexistenceResult(
        ferret_alone_ms=alone_ms,
        ferret_with_dpdk_ms=with_dpdk_ms,
        ferret_with_metronome_ms=with_met_ms,
        dpdk_shared_mpps=dpdk.throughput_mpps,
        metronome_shared_mpps=met.throughput_mpps,
        metronome_shared_loss_pct=met.loss_fraction * 100,
    )


# ---------------------------------------------------------------------- #
# Figure 15 — IPsec gateway and FloWatcher CPU usage
# ---------------------------------------------------------------------- #

def fig15_apps(
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
    apps: Sequence[str] = ("ipsec", "flowatcher"),
) -> List[Tuple[str, str, float, float, float]]:
    """Rows: (app, system, rate Mpps, cpu, throughput Mpps)."""
    from repro.apps.flowatcher import FloWatcherApp
    from repro.apps.ipsec import IpsecGatewayApp

    def ipsec():
        app = IpsecGatewayApp()
        app.protect_everything()
        return app

    # each app's offered rates: up to the gateway's ceiling / line rate
    catalogue = {"ipsec": (ipsec, (1.4, 2.8, 5.61)),
                 "flowatcher": (FloWatcherApp, (0.5, 5.0, 14.88))}
    rows = []
    for name in apps:
        make_app, rates = catalogue[name]
        for rate in rates:
            for system, run in (("metronome", run_metronome),
                                ("dpdk", run_dpdk)):
                res = run(int(rate * 1e6), duration_ms=duration_ms,
                          app=make_app(), cfg=config.SimConfig(seed=seed))
                rows.append((name, system, rate, res.cpu_utilization,
                             res.throughput_mpps))
    return rows


# ---------------------------------------------------------------------- #
# §5.4 — the tuned low-latency configuration
# ---------------------------------------------------------------------- #

def tuned_low_latency(
    rate_gbps: float = 1.0,
    duration_ms: int = 60,
    seed: int = config.DEFAULT_SEED,
) -> Dict[str, dict]:
    """§5.4's tuned variant: Tx batch 1 + sub-us hr_sleep immediate
    return, compared against default Metronome and static DPDK."""
    pps = gbps_to_pps(rate_gbps)
    out: Dict[str, dict] = {}

    cfg = config.SimConfig(seed=seed)
    met = run_metronome(pps, duration_ms=duration_ms, cfg=cfg)
    out["metronome_default"] = {
        "mean_us": met.latency.mean() / 1e3,
        "std_us": met.latency.std() / 1e3,
        "cpu": met.cpu_utilization,
    }

    cfg = config.SimConfig(seed=seed, vbar_ns=800, tx_batch=1)
    tuned = run_metronome(pps, duration_ms=duration_ms, cfg=cfg,
                          setup_hook=_enable_submicro)
    out["metronome_tuned"] = {
        "mean_us": tuned.latency.mean() / 1e3,
        "std_us": tuned.latency.std() / 1e3,
        "cpu": tuned.cpu_utilization,
    }

    cfg = config.SimConfig(seed=seed)
    dpdk = run_dpdk(pps, duration_ms=duration_ms, cfg=cfg)
    out["dpdk"] = {
        "mean_us": dpdk.latency.mean() / 1e3,
        "std_us": dpdk.latency.std() / 1e3,
        "cpu": dpdk.cpu_utilization,
    }
    return out


def _enable_submicro(_machine: Machine, group) -> None:
    group.service.immediate_below_ns = 1 * US


# ---------------------------------------------------------------------- #
# Chaos — Metronome under adversarial conditions (docs/FAULTS.md)
# ---------------------------------------------------------------------- #

@dataclass
class ChaosRow:
    """One (plan, seed) cell of the chaos suite."""

    plan: str
    seed: int
    ok: bool
    loss_pct: float
    max_head_age_us: float
    escalations: int
    recovery_us: float          # -1 when the watchdog never disengaged
    overload_entries: int
    violations: List[str]


def chaos_suite(
    plans: Sequence[str] = (),
    seeds: Sequence[int] = (7, 42, 2020),
    duration_ms: int = 40,
) -> List[ChaosRow]:
    """Run every named fault plan × seed and collect the verdicts.

    ``plans`` selects by name from
    :data:`~repro.faults.plan.SHIPPED_PLANS` (empty → all shipped
    plans).  Each cell asserts the plan's bounded-loss, no-starvation
    and recovery invariants; a row with ``ok=False`` lists what broke.
    """
    from repro.faults import SHIPPED_PLANS, run_chaos

    names = list(plans) if plans else list(SHIPPED_PLANS)
    rows: List[ChaosRow] = []
    for name in names:
        plan = SHIPPED_PLANS[name]
        for seed in seeds:
            r = run_chaos(plan, seed=seed, duration_ms=duration_ms)
            rows.append(
                ChaosRow(
                    plan=name,
                    seed=seed,
                    ok=r.ok,
                    loss_pct=r.loss_fraction * 100,
                    max_head_age_us=r.max_head_age_ns / 1e3,
                    escalations=r.escalations,
                    recovery_us=(
                        r.recovery_ns / 1e3 if r.recovery_ns is not None
                        else -1.0
                    ),
                    overload_entries=r.overload_entries,
                    violations=r.violations,
                )
            )
    return rows


# ---------------------------------------------------------------------- #
# Trace-driven figures (repro.traffic)
# ---------------------------------------------------------------------- #


class _PhaseProbe:
    """Per-phase metric capture at trace phase boundaries.

    Chains onto the system's Tx completion callbacks (the run-wide
    stats keep accumulating untouched) and closes one row per phase at
    its scaled end time: offered/delivered deltas, loss, the phase's
    own latency distribution, and — for Metronome — the T_S the
    controller had converged to by the phase end.
    """

    def __init__(self, system: str, phases):
        self.system = system
        self.phases = phases  # [(name, start_abs_ns, end_abs_ns)]
        self.rows: List[Tuple] = []
        self._stats = LatencyStats()
        self._last_offered = 0
        self._last_delivered = 0

    def install(self, machine, offered_fn, delivered_fn, txbufs, ts_fn):
        for tb in txbufs:
            prev = tb.on_tx

            def on_tx(pkt, prev=prev):
                if prev is not None:
                    prev(pkt)
                self._stats.add(pkt.latency_ns)

            tb.on_tx = on_tx
        for name, s, e in self.phases:
            machine.sim.call_at(
                e, self._close, name, s, e, offered_fn, delivered_fn, ts_fn
            )

    def _close(self, name, s, e, offered_fn, delivered_fn, ts_fn):
        offered = offered_fn()
        delivered = delivered_fn()
        d_off = offered - self._last_offered
        d_del = delivered - self._last_delivered
        self._last_offered, self._last_delivered = offered, delivered
        stats, self._stats = self._stats, LatencyStats()
        dur_ns = e - s
        loss = max(0.0, 100.0 * (d_off - d_del) / d_off) if d_off else 0.0
        self.rows.append((
            self.system,
            name,
            round(dur_ns / MS, 3),
            round(d_off / (dur_ns / SEC) / 1e6, 4),
            round(loss, 4),
            round(stats.mean() / 1e3, 3) if stats.count else 0.0,
            round(stats.percentile(99) / 1e3, 3) if stats.count else 0.0,
            round(ts_fn(), 3),
        ))


def trace_phase_tracking(
    systems: Sequence[str] = ("metronome", "dpdk", "xdp"),
    duration_ms: int = 100,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple]:
    """Rows: (system, phase, dur ms, offered Mpps, loss %, mean us,
    p99 us, ts_us at phase end).

    The headline trace-replay figure (ROADMAP item 3): all three
    systems replay the same benign phased trace — HTTP peak → DNS
    burst → stable SSH → light UDP — and the per-phase rows show how
    each one's service discipline tracks the abrupt load changes.  The
    ``ts_us`` column is the adaptive controller's converged sleep at
    each phase end (0 for the baselines, which have no controller).
    """
    from repro.traffic import TraceReplayProcess, benign_phased, generate

    trace = generate(benign_phased(duration_ms * MS), seed)
    rows: List[Tuple] = []
    for system in systems:
        process = TraceReplayProcess(trace)
        probe = _PhaseProbe(system, process.phases_abs())
        if system == "metronome":

            def setup_met(machine: Machine, group, probe=probe) -> None:
                queue = group.shared[0].queue

                def offered() -> int:
                    queue.sync()
                    return queue.arrived_total

                probe.install(
                    machine, offered, lambda: group.total_packets,
                    [sq.txbuf for sq in group.shared],
                    lambda: group.tuner.ts_ns() / US,
                )

            run_metronome(process, duration_ms=duration_ms,
                          cfg=config.SimConfig(seed=seed),
                          setup_hook=setup_met)
        elif system == "dpdk":

            def setup_dpdk(machine: Machine, lcore, probe=probe) -> None:
                queue = lcore.queues[0]

                def offered() -> int:
                    queue.sync()
                    return queue.arrived_total

                probe.install(
                    machine, offered, lambda: lcore.rx_packets,
                    lcore.tx_buffers, lambda: 0.0,
                )

            run_dpdk(process, duration_ms=duration_ms,
                     cfg=config.SimConfig(seed=seed),
                     setup_hook=setup_dpdk)
        elif system == "xdp":

            def setup_xdp(machine: Machine, driver, probe=probe) -> None:
                def offered() -> int:
                    for q in driver.queues:
                        q.queue.sync()
                    return sum(q.queue.arrived_total for q in driver.queues)

                probe.install(
                    machine, offered, lambda: driver.total_packets,
                    [q.txbuf for q in driver.queues], lambda: 0.0,
                )

            run_xdp(process, duration_ms=duration_ms,
                    cfg=config.SimConfig(seed=seed), num_queues=1,
                    setup_hook=setup_xdp)
        else:
            raise ValueError(f"unknown system {system!r}")
        rows.extend(probe.rows)
    return rows


def trace_adversary(
    modes: Sequence[str] = ("aware", "naive"),
    duration_ms: int = 100,
    attack_mpps: float = 12.0,
    duty: float = 0.1,
    background_mpps: float = 0.1,
    seed: int = config.DEFAULT_SEED,
) -> List[Tuple]:
    """Rows: (mode, offered Mpps, overlay Mpps, loss %, mean us, p99 us,
    strikes).

    The worst case for the paper's adaptation rule: a T_S-aware
    adversary rides a steady background trace and lands
    ``attack_mpps`` slugs sized to the *published* T_S, just after
    sleeps are armed, at a ``duty`` duty cycle.  The ``naive`` control
    arm spends the identical average packet budget
    (``attack_mpps * duty``) as a uniform flood.  Loss and tail
    latency between the two rows are the figure.
    """
    from repro.nic.traffic import FaultableProcess
    from repro.traffic import (
        TraceReplayProcess,
        TsAwareAdversary,
        constant_flood,
        generate,
        steady_background,
    )

    trace = generate(
        steady_background(duration_ms * MS, int(background_mpps * 1e6)), seed
    )
    attack_pps = int(attack_mpps * 1e6)
    rows: List[Tuple] = []
    for mode in modes:
        process = FaultableProcess(TraceReplayProcess(trace))
        holder: Dict[str, TsAwareAdversary] = {}

        def setup(machine: Machine, group, process=process, mode=mode,
                  holder=holder) -> None:
            if mode == "aware":
                adv = TsAwareAdversary(machine, group, process,
                                       attack_pps=attack_pps, duty=duty)
                adv.start()
                holder["adv"] = adv
            elif mode == "naive":
                constant_flood(process, int(attack_pps * duty))
            else:
                raise ValueError(f"unknown adversary mode {mode!r}")

        res = run_metronome(process, duration_ms=duration_ms,
                            cfg=config.SimConfig(seed=seed),
                            setup_hook=setup)
        adv = holder.get("adv")
        seconds = duration_ms * MS / SEC
        rows.append((
            mode,
            round(res.offered / seconds / 1e6, 4),
            round(process.burst_packets / seconds / 1e6, 4),
            round(res.loss_fraction * 100, 4),
            round(res.latency.mean() / 1e3, 3),
            round(res.latency.percentile(99) / 1e3, 3),
            adv.strikes if adv is not None else 0,
        ))
    return rows


# ---------------------------------------------------------------------- #
# Scenario registry
# ---------------------------------------------------------------------- #

from repro.check.oracle import check_oracle_point  # noqa: E402
from repro.harness.extensions import pacing_comparison  # noqa: E402
from repro.harness.scale import (  # noqa: E402
    scale_queue_count,
    scale_thread_ratio,
)

#: every scenario by function name — the campaign engine
#: (:mod:`repro.campaign`) resolves task specs through this table, and
#: the result cache fingerprints each function's source individually.
SCENARIOS: Dict[str, Callable] = {
    fn.__name__: fn
    for fn in (
        table1_sleep_precision,
        fig2_cpu_energy,
        table2_vbar_sweep,
        fig5_vacation_pdf,
        fig6_latency_cpu,
        fig7_tl_sweep,
        fig8_m_sweep,
        fig9_latency_vs_m,
        table3_nanosleep_loss,
        fig10_latency_boxplots,
        fig11_adaptation,
        fig12_compare,
        fig13_power_governors,
        ferret_coexistence,
        fig15_apps,
        pacing_comparison,
        tuned_low_latency,
        chaos_suite,
        trace_phase_tracking,
        trace_adversary,
        scale_queue_count,
        scale_thread_ratio,
        check_oracle_point,
    )
}
