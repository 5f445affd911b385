"""Uniform runners for the three systems under study.

Every runner goes through one pipeline: :func:`_deployment` builds a
fresh :class:`~repro.kernel.machine.Machine` with its observers, fault
engine and a :class:`~repro.nic.topology.NicDevice` (one queue is a
1-port, 1-queue device); the runner attaches its receiver (Metronome,
a poll-mode lcore or the XDP driver); :func:`_measure` runs the warmup,
the optional checkpoint pause and the busy/energy bracket.  The result
record carries the metrics the paper reports: loss, CPU utilization
(100% = one core), latency distribution, throughput, and — for
Metronome — renewal-cycle statistics and controller state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro import config
from repro.core.metronome import MetronomeGroup, WatchdogConfig
from repro.core.tuning import AdaptiveTuner, TunerBase
from repro.dpdk.app import PacketApp
from repro.dpdk.lcore import PollModeLcore
from repro.faults.plan import TRAFFIC_KINDS, FaultPlan
from repro.kernel.machine import Machine
from repro.metrics.latency import LatencyStats
from repro.nic.flows import FlowSet
from repro.nic.topology import NicDevice, PortSpec, rss_shard
from repro.nic.traffic import ArrivalProcess, CbrProcess, FaultableProcess
from repro.sim.snapshot import MachineState
from repro.sim.units import MS, SEC, US


def default_app() -> PacketApp:
    """The default workload: l3fwd with the standard flow population."""
    from repro.apps.l3fwd import L3FwdApp

    return L3FwdApp(flows=FlowSet())


def as_arrival_process(rate: object) -> ArrivalProcess:
    """Coerce a pps count into CBR traffic; processes pass through."""
    return rate if isinstance(rate, ArrivalProcess) else CbrProcess(int(rate))


@dataclass
class BaseRunResult:
    """Metrics common to every system."""

    duration_ns: int
    offered: int
    delivered: int
    drops: int
    cpu_utilization: float
    energy_j: float
    latency: LatencyStats
    machine: Optional[Machine] = field(default=None, repr=False)
    checkpoint: Optional[MachineState] = field(default=None, repr=False)

    @property
    def loss_fraction(self) -> float:
        return self.drops / self.offered if self.offered else 0.0

    @property
    def throughput_mpps(self) -> float:
        return self.delivered / (self.duration_ns / SEC) / 1e6

    @property
    def tracer(self):
        """The machine's event tracer (NULL_TRACER unless ``trace=True``)."""
        return self.machine.tracer if self.machine is not None else None


@dataclass
class MetronomeRunResult(BaseRunResult):
    mean_vacation_us: float = 0.0
    mean_busy_us: float = 0.0
    mean_n_vacation: float = 0.0
    cycles: int = 0
    busy_tries: int = 0
    wake_rounds: int = 0
    rho: float = 0.0
    ts_us: float = 0.0
    group: Optional[MetronomeGroup] = field(default=None, repr=False)

    @property
    def busy_try_fraction(self) -> float:
        return self.busy_tries / self.wake_rounds if self.wake_rounds else 0.0


@dataclass
class DpdkRunResult(BaseRunResult):
    lcore: Optional[PollModeLcore] = field(default=None, repr=False)


@dataclass
class XdpRunResult(BaseRunResult):
    irqs: int = 0


def _deployment(
    cfg: Optional[config.SimConfig],
    ports: Sequence[PortSpec],
    ring_size: Optional[int] = None,
    trace: bool = False,
    checks: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[Machine, NicDevice]:
    """Build the machine and its NIC: the one construction path.

    Tracing and checks go on before any queue exists, so every queue
    self-registers with them.  ``fault_plan`` installs a
    :class:`~repro.faults.FaultEngine`; when it has traffic-side specs,
    every arrival process is wrapped in a :class:`FaultableProcess` and
    exposed to the injectors.
    """
    machine = Machine(cfg or config.SimConfig())
    cfg = machine.cfg
    if trace:
        machine.enable_tracing()
    if checks:
        machine.enable_checks()
    if fault_plan is not None:
        engine = machine.install_faults(fault_plan)
        if any(s.kind in TRAFFIC_KINDS for s in fault_plan.specs):
            for spec in ports:
                spec.processes = [FaultableProcess(p) for p in spec.processes]
                for process in spec.processes:
                    engine.register_process(process)
    device = NicDevice(
        machine.sim,
        ports,
        ring_size=ring_size or cfg.rx_ring_size,
        sample_every=cfg.latency_sample_every,
    )
    return machine, device


def _measure(
    machine: Machine,
    duration_ms: int,
    label: str,
    warmup_ms: int = 0,
    busy: Optional[Callable[[], int]] = None,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> Tuple[Optional[MachineState], int, float]:
    """Run the warmup, then the measured window.

    Returns ``(checkpoint, busy_delta, energy_j)``, the last two over
    the measured window only (``busy`` reads the receiver's busy ns).
    The run pauses once at ``checkpoint_at_ns``, in the warmup or the
    window, for a pure :meth:`Machine.snapshot`; ``at_checkpoint(machine,
    state)`` may then mutate the live machine (retune the controller,
    inject a workload, ...) to fork a variant future off the snapshot's
    verified prefix.
    """
    checkpoint: Optional[MachineState] = None

    def advance(until: int) -> None:
        nonlocal checkpoint
        if (checkpoint is None and checkpoint_at_ns is not None
                and machine.now <= checkpoint_at_ns <= until):
            machine.run(until=checkpoint_at_ns)
            checkpoint = machine.snapshot(label=label)
            if at_checkpoint is not None:
                at_checkpoint(machine, checkpoint)
        machine.run(until=until)

    # warmup lets the controller settle before measuring
    t_start = warmup_ms * MS
    if t_start:
        advance(t_start)
    busy0 = busy() if busy is not None else 0
    e0 = machine.energy_joules()
    advance(t_start + duration_ms * MS)
    busy_delta = busy() - busy0 if busy is not None else 0
    return checkpoint, busy_delta, machine.energy_joules() - e0


def _metronome(
    machine: Machine,
    device: NicDevice,
    duration_ms: int,
    app: Optional[PacketApp],
    tuner: Optional[TunerBase],
    num_threads: Optional[int],
    cores: Optional[List[int]],
    setup_hook: Optional[Callable[[Machine, MetronomeGroup], None]] = None,
    warmup_ms: int = 0,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
    **group_opts,
) -> MetronomeRunResult:
    """Deploy a :class:`MetronomeGroup` over every queue of ``device``,
    measure it and assemble its result."""
    cfg = machine.cfg
    app = app or default_app()
    m = num_threads if num_threads is not None else cfg.num_threads
    # seed the adaptive controller mid-range so early cycles are sane
    tuner = tuner or AdaptiveTuner(
        vbar_ns=cfg.vbar_ns, tl_ns=cfg.tl_ns, m=m, alpha=cfg.alpha,
        initial_rho=0.5,
    )
    group = MetronomeGroup(
        machine, device.queues, app, tuner=tuner, num_threads=m,
        cores=cores, **group_opts,
    )
    group.start()
    if setup_hook is not None:
        setup_hook(machine, group)

    def exec_busy() -> int:
        return sum(
            machine.cores[c].total_busy_ns() - machine.cores[c].exit_stall_ns
            for c in group.cores
        )

    checkpoint, busy_ns, energy_j = _measure(
        machine, duration_ms, "metronome", warmup_ms, exec_busy,
        checkpoint_at_ns, at_checkpoint,
    )
    offered = device.total_arrived()  # syncs every queue
    if machine.checks is not None:
        machine.checks.quiesce(consumed=group.total_packets)
    cs = group.cycle_stats()
    duration = duration_ms * MS
    return MetronomeRunResult(
        duration_ns=duration,
        offered=offered,
        delivered=group.total_packets,
        drops=device.total_drops(),
        cpu_utilization=busy_ns / duration,
        energy_j=energy_j,
        latency=group.latency,
        machine=machine,
        checkpoint=checkpoint,
        mean_vacation_us=cs.mean_vacation_ns() / US if cs.count else 0.0,
        mean_busy_us=cs.mean_busy_ns() / US if cs.count else 0.0,
        mean_n_vacation=cs.mean_n_vacation() if cs.count else 0.0,
        cycles=cs.count,
        busy_tries=group.busy_tries,
        wake_rounds=group.total_iterations,
        rho=group.tuner.rho,
        ts_us=group.tuner.ts_ns() / US,
        group=group,
    )


def run_metronome(
    rate: object,
    duration_ms: int = 100,
    app: Optional[PacketApp] = None,
    cfg: Optional[config.SimConfig] = None,
    tuner: Optional[TunerBase] = None,
    sleep_service: str = "hr_sleep",
    num_threads: Optional[int] = None,
    cores: Optional[List[int]] = None,
    ring_size: Optional[int] = None,
    tx_batch: Optional[int] = None,
    nice: int = 0,
    flush_before_sleep: bool = False,
    setup_hook: Optional[Callable[[Machine, MetronomeGroup], None]] = None,
    warmup_ms: int = 0,
    trace: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    watchdog: Optional[WatchdogConfig] = None,
    rotate_scan: bool = True,
    checks: bool = False,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> MetronomeRunResult:
    """Run Metronome over one shared Rx queue.

    ``rate`` is either a pps int (CBR traffic) or a ready
    :class:`ArrivalProcess`.  ``setup_hook`` runs after the group starts
    (e.g. to add interference workloads or samplers).  ``trace=True``
    enables nanosecond event tracing (see :mod:`repro.trace`) without
    perturbing the run; read it back via ``result.tracer``.

    ``fault_plan`` installs a :class:`~repro.faults.FaultEngine` before
    the workload is built (traffic-side faults wrap the arrival process
    in a :class:`~repro.nic.traffic.FaultableProcess`); ``watchdog``
    enables the group's starvation watchdog — together they form the
    chaos harness's adversarial setup (see :mod:`repro.faults.chaos`).

    ``checks=True`` enables the :mod:`repro.check` invariant monitors
    (zero-perturbation, like tracing) and runs their quiesce pass after
    the run; read violations back via ``result.machine.checks``.

    ``checkpoint_at_ns`` pauses the run once at that absolute virtual
    time to take a pure :meth:`Machine.snapshot` (returned as
    ``result.checkpoint``); ``at_checkpoint(machine, state)`` may then
    mutate the live machine to fork a variant future off the verified
    prefix (see :mod:`repro.sim.snapshot`).
    """
    machine, device = _deployment(
        cfg, [PortSpec([as_arrival_process(rate)])], ring_size, trace,
        checks, fault_plan,
    )
    return _metronome(
        machine, device, duration_ms, app, tuner, num_threads, cores,
        setup_hook, warmup_ms, checkpoint_at_ns, at_checkpoint,
        sleep_service=sleep_service, nice=nice, tx_batch=tx_batch,
        flush_before_sleep=flush_before_sleep, rotate_scan=rotate_scan,
        watchdog=watchdog,
    )


def run_dpdk(
    rate: object,
    duration_ms: int = 100,
    app: Optional[PacketApp] = None,
    cfg: Optional[config.SimConfig] = None,
    core: int = 0,
    nice: int = 0,
    ring_size: Optional[int] = None,
    setup_hook: Optional[Callable[[Machine, PollModeLcore], None]] = None,
    trace: bool = False,
    checks: bool = False,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> DpdkRunResult:
    """Run the static continuous-polling DPDK baseline (one lcore)."""
    machine, device = _deployment(
        cfg, [PortSpec([as_arrival_process(rate)])], ring_size, trace, checks,
    )
    latency = LatencyStats()
    lcore = PollModeLcore(
        machine, device.queues, app or default_app(), core=core, nice=nice,
    )
    lcore.tx_buffers[0].on_tx = lambda pkt: latency.add(pkt.latency_ns)
    lcore.start()
    if setup_hook is not None:
        setup_hook(machine, lcore)
    checkpoint, _, energy_j = _measure(
        machine, duration_ms, "dpdk", checkpoint_at_ns=checkpoint_at_ns,
        at_checkpoint=at_checkpoint,
    )
    offered = device.total_arrived()
    if machine.checks is not None:
        machine.checks.quiesce(consumed=lcore.rx_packets)
    return DpdkRunResult(
        duration_ns=duration_ms * MS,
        offered=offered,
        delivered=lcore.rx_packets,
        drops=device.total_drops(),
        cpu_utilization=machine.cpu_utilization([core]),
        energy_j=energy_j,
        latency=latency,
        machine=machine,
        checkpoint=checkpoint,
        lcore=lcore,
    )


def run_xdp(
    rate: object,
    duration_ms: int = 100,
    app: Optional[PacketApp] = None,
    cfg: Optional[config.SimConfig] = None,
    num_queues: int = 1,
    cores: Optional[List[int]] = None,
    ring_size: Optional[int] = None,
    prewarmed: bool = True,
    setup_hook: Optional[Callable[[Machine, "XdpDriver"], None]] = None,
    trace: bool = False,
    checks: bool = False,
    checkpoint_at_ns: Optional[int] = None,
    at_checkpoint: Optional[Callable[[Machine, MachineState], None]] = None,
) -> XdpRunResult:
    """Run the XDP baseline: ``num_queues`` queues, 1:1 queue-to-core.

    A pps ``rate`` is split evenly across the queues (the paper's
    ethtool flow steering), each queue getting ``rate // num_queues``.
    ``rate`` may also be a ready :class:`ArrivalProcess` (e.g. trace
    replay): a schedule-backed process (trace replay) is RSS
    flow-sharded across the queues via the Toeplitz redirection table
    (:func:`repro.nic.topology.rss_shard`), conserving the master
    schedule exactly; a synthetic stateful process without a fixed
    schedule still requires ``num_queues=1``.  ``prewarmed=False``
    starts with a cold page pool, for the burst-reactivity experiment.
    """
    from repro.xdp.driver import XdpDriver

    flows = None
    if not isinstance(rate, ArrivalProcess):
        processes = [CbrProcess(int(rate) // num_queues)
                     for _ in range(num_queues)]
    elif num_queues == 1:
        processes = [rate]
    else:
        # the shard mapping and the Rx tagger must resolve flow ids
        # through the same population, so share one FlowSet
        flows = FlowSet()
        processes = rss_shard(rate, num_queues, flows=flows)
    machine, device = _deployment(
        cfg, [PortSpec(processes, flows=flows)], ring_size, trace, checks,
    )
    if app is None:
        # same functional workload, XDP-calibrated per-packet cost
        # (page handling + eBPF program + DMA sync; see config)
        app = default_app()
        app.per_packet_ns = config.XDP_PKT_NS
    driver = XdpDriver(machine, device.ports[0], app, cores=cores)
    if prewarmed:
        for q in driver.queues:
            q._warm_remaining = 0
            q._last_active_ns = 0
    driver.start()
    if setup_hook is not None:
        setup_hook(machine, driver)
    checkpoint, _, energy_j = _measure(
        machine, duration_ms, "xdp", checkpoint_at_ns=checkpoint_at_ns,
        at_checkpoint=at_checkpoint,
    )
    offered = device.total_arrived()
    if machine.checks is not None:
        machine.checks.quiesce()
    return XdpRunResult(
        duration_ns=duration_ms * MS,
        offered=offered,
        delivered=driver.total_packets,
        drops=device.total_drops(),
        cpu_utilization=driver.cpu_utilization(),
        energy_j=energy_j,
        latency=driver.latency,
        machine=machine,
        checkpoint=checkpoint,
        irqs=driver.total_irqs,
    )
