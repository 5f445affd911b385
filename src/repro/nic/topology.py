"""Multi-port, multi-socket NIC topology (ROADMAP item 2).

The paper's testbed is one port with 2 RSS queues on one NUMA node
(§3.3); production 100G deployments spread 16–64 queues across sockets.
This module generalizes the NIC layer without touching the single-port
fast path:

* :class:`PortSpec` / :class:`NicDevice` — a device aggregating several
  :class:`~repro.nic.device.NicPort` objects with globally contiguous
  queue numbering and per-queue NUMA placement;
* :func:`rss_shard` — partition one replayed trace across N queues via
  the real Toeplitz redirection table, lifting ``run_xdp``'s
  single-queue restriction for stateful arrival processes;
* :class:`ReplayShard` — the per-queue arrival process a shard becomes:
  a subsequence of the master schedule that shares the master's loop
  cycle, so the shards stay mutually aligned forever.

Everything here is pure construction-time arithmetic: no simulator
events, no RNG draws, so building a topology never perturbs a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import config
from repro.nic.device import NicPort
from repro.nic.flows import FlowSet
from repro.nic.rss import MICROSOFT_KEY, RssSteering
from repro.nic.rxqueue import RxQueue
from repro.nic.traffic import ArrivalProcess, ScheduleProcess
from repro.sim.core import Simulator
from repro.sim.units import SEC


@dataclass
class PortSpec:
    """Recipe for one port of a :class:`NicDevice`.

    ``queue_nodes`` places individual queues on NUMA nodes (default:
    every queue on the port's ``node``).  ``rss`` attaches a steering
    function; ``flows`` shares a flow population with other ports
    (needed when a sharded trace and the tagger must agree on headers).
    """

    processes: List[ArrivalProcess]
    node: int = 0
    queue_nodes: Optional[List[int]] = None
    flows: Optional[FlowSet] = None
    rss: Optional[RssSteering] = None


@dataclass
class NicDevice:
    """Several ports, queues numbered contiguously across all of them.

    The flattened :attr:`queues` list is what a
    :class:`~repro.core.metronome.MetronomeGroup` consumes — a group
    draining a whole device is exactly the many-queue scale-out
    configuration the scale figures measure.
    """

    sim: Simulator
    specs: Sequence[PortSpec]
    ring_size: int = config.DEFAULT_RX_RING
    sample_every: int = config.LATENCY_SAMPLE_EVERY
    ports: List[NicPort] = field(init=False)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a device needs at least one port")
        self.ports = []
        first = 0
        for spec in self.specs:
            port = NicPort(
                self.sim,
                spec.processes,
                flows=spec.flows,
                ring_size=self.ring_size,
                sample_every=self.sample_every,
                node=spec.node,
                rss=spec.rss,
                queue_nodes=spec.queue_nodes,
                first_queue_index=first,
            )
            self.ports.append(port)
            first += len(port.queues)

    @property
    def queues(self) -> List[RxQueue]:
        """All queues of all ports, in global index order."""
        return [q for port in self.ports for q in port.queues]

    @property
    def num_queues(self) -> int:
        return sum(len(port.queues) for port in self.ports)

    def total_drops(self) -> int:
        return sum(port.total_drops() for port in self.ports)

    def total_arrived(self) -> int:
        return sum(port.total_arrived() for port in self.ports)

    def loss_fraction(self) -> float:
        arrived = self.total_arrived()
        if arrived == 0:
            return 0.0
        return self.total_drops() / arrived


class ReplayShard(ScheduleProcess):
    """One RSS queue's slice of a replayed trace.

    Holds the subsequence of the master schedule steered to this queue
    but keeps the *master's* loop cycle, so on every loop iteration the
    shards replay their slices in mutual alignment — the union of all
    shards reproduces the master schedule exactly (tested in
    ``tests/scale``).  The cursor is the same :class:`ScheduleProcess`
    as :class:`~repro.traffic.replay.TraceReplayProcess`.
    """

    def __init__(
        self,
        times: List[int],
        flows: List[int],
        lens: List[int],
        cycle: int,
        loop: bool,
        start: int = 0,
        label: str = "shard",
    ):
        super().__init__(times, flows, lens, cycle, loop, start)
        self.label = label

    def rate_at(self, t: int) -> float:
        """Nominal mean rate of the shard (reporting/pacing only)."""
        if self._n == 0:
            return 0.0
        rel = t - self.start
        if self.loop:
            return self._n * SEC / self._cycle
        if 0 <= rel <= self._times[-1]:
            return self._n * SEC / max(1, self._times[-1])
        return 0.0

    # -- checkpointing ---------------------------------------------------- #

    def snapshot_state(self) -> dict:
        return {
            "kind": "replay-shard",
            "label": self.label,
            "n": self._n,
            "cycle": self._cycle,
            "loop": self.loop,
            "start": self.start,
            "total": self.total,
            "last_t": self.last_t,
        }


def rss_shard(
    process: ArrivalProcess,
    num_queues: int,
    flows: Optional[FlowSet] = None,
    key: bytes = MICROSOFT_KEY,
    table_size: int = 128,
) -> List[ReplayShard]:
    """Partition a replayed trace across ``num_queues`` RSS queues.

    Resolves each scheduled arrival's flow id to a header through
    ``flows`` (the same mapping :meth:`RxQueue._tag_interval` applies:
    ``flow % flows.num_flows``), steers the header through a default
    round-robin Toeplitz redirection table, and emits one
    :class:`ReplayShard` per queue.  The shards conserve packets: their
    schedule lengths sum to the master's, and under ``loop`` they share
    the master cycle so alignment holds across iterations.

    Only schedule-backed processes can be sharded — the process must
    expose ``schedule_times``/``schedule_flows``/``schedule_lens`` and
    ``cycle_ns`` (every :class:`~repro.nic.traffic.ScheduleProcess`,
    such as :class:`~repro.traffic.replay.TraceReplayProcess`, does).  Synthetic processes (CBR/Poisson) have no per-packet flow
    schedule; split their *rate* across queues instead.
    """
    if num_queues < 1:
        raise ValueError("need at least one queue")
    times = getattr(process, "schedule_times", None)
    flow_ids = getattr(process, "schedule_flows", None)
    lens = getattr(process, "schedule_lens", None)
    cycle = getattr(process, "cycle_ns", None)
    if times is None or flow_ids is None or lens is None or cycle is None:
        raise ValueError(
            f"cannot RSS-shard {type(process).__name__}: the process has "
            "no fixed per-packet schedule (only trace replays do); for "
            "synthetic sources split the rate across queues instead"
        )
    flows = flows or FlowSet()
    steering = RssSteering(num_queues, key=key, table_size=table_size)
    nf = flows.num_flows
    # flow id -> queue, cached: traces carry few distinct flows relative
    # to packets, and the Toeplitz hash is the expensive part
    queue_of_flow: dict = {}
    per_times: List[List[int]] = [[] for _ in range(num_queues)]
    per_flows: List[List[int]] = [[] for _ in range(num_queues)]
    per_lens: List[List[int]] = [[] for _ in range(num_queues)]
    for t, flow, length in zip(times, flow_ids, lens):
        q = queue_of_flow.get(flow)
        if q is None:
            q = steering.queue_for(flows.header_of_flow(flow % nf))
            queue_of_flow[flow] = q
        per_times[q].append(t)
        per_flows[q].append(flow)
        per_lens[q].append(length)
    loop = bool(getattr(process, "loop", False))
    start = getattr(process, "start", 0)
    return [
        ReplayShard(
            per_times[q],
            per_flows[q],
            per_lens[q],
            cycle,
            loop,
            start=start,
            label=f"shard{q}",
        )
        for q in range(num_queues)
    ]
