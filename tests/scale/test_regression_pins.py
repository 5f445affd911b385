"""Byte-identity pins guarding the multi-queue/NUMA refactor (ISSUE 9).

The scale-out tentpole touched the hot loops (`_body`, the sleep arm
path, RxQueue/NicPort construction).  These pins were captured on the
commit *before* the refactor; the paper's single-node configs must
reproduce them bit-for-bit, proving the NUMA penalties are structurally
inert at their defaults.

The runner pins below were captured the same way, before the four
runners were collapsed onto one build/measure pipeline: each runner
must keep its per-queue split, CPU measure and fault wrap exactly.
"""

import hashlib
import json

import pytest

from repro import config
from repro.campaign import FIGURES
from repro.campaign.executor import execute_task
from repro.core.metronome import MetronomeGroup
from repro.faults.chaos import run_chaos
from repro.faults.plan import SHIPPED_PLANS
from repro.harness.experiment import default_app, run_dpdk, run_xdp
from repro.harness.scale import run_metronome_scaled
from repro.kernel.machine import Machine
from repro.nic.flows import FlowSet
from repro.nic.rxqueue import RxQueue
from repro.nic.traffic import CbrProcess

# captured pre-refactor (commit f625643), fig7 fast task at scale=0.25
FIG7_GOLDEN_RECORD = [[100, 0.327217125382263, 0.6037465]]
FIG7_GOLDEN_SHA = (
    "ef6e5b2dd94071467445c09e76ee98e21b36d58113a94b32be2f6228f1b4d464"
)
# captured pre-refactor: the 2-queue / 3-thread paper testbed fingerprint
TWO_QUEUE_SHA = (
    "9ff4aeba8e518f14b06392e014bf9e9bf278551e96a9fb39686b86e90f9a3d9d"
)

# captured pre-refactor: (offered, delivered, drops, repr(cpu),
# repr(energy), events scheduled, sha256 of the latency samples)
RUNNER_PINS = {
    "scaled": (
        595232, 446355, 146816, "6.0", "0.224", 263426,
        "e689ac20969819c212119e6931e743c2e007c4d1318962f776a92d18aa79c02d",
    ),
    "dpdk": (
        10000, 9997, 0, "1.0", "0.11622346840000002", 3848,
        "85e9050fdf3159290f5a40339a1d7cf684178a3a4c4aa7e8d045905d8fc610d9",
    ),
    # 403 pps over 4 queues floors to 100 pps each (600 offered in
    # 1.5 s); spreading the remainder would offer 603
    "xdp": (
        600, 596, 0, "0.03257103733333333", "25.076328883800024", 5601,
        "3c3b2277668900b3c04391336f502684312e31d362d9bcaffa9c8b542ad92ffa",
    ),
    # microburst + pause are traffic-side: exercises the fault wrap
    "chaos": (
        60000, 60000, 0, "0.189172", "0.5376688123999996", 19302,
        "2b6542e03070aa392de62095de353b290759b518321d2dc700a5a6e213e8e724",
    ),
}

RUNNERS = {
    "scaled": lambda: run_metronome_scaled(8, 6, duration_ms=4, checks=True),
    "dpdk": lambda: run_dpdk(
        2_000_000, duration_ms=5, cfg=config.SimConfig(seed=2020)),
    "xdp": lambda: run_xdp(
        403, duration_ms=1500, cfg=config.SimConfig(seed=2020),
        num_queues=4),
    "chaos": lambda: run_chaos(
        SHIPPED_PLANS["microburst"], seed=7, duration_ms=28,
        keep_result=True).result,
}


def canonical_sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_fig7_golden_byte_identical_to_pre_refactor():
    spec = FIGURES["fig7"].tasks(scale=0.25)[0]
    record = execute_task(spec)
    assert record == FIG7_GOLDEN_RECORD
    assert canonical_sha(record) == FIG7_GOLDEN_SHA


def test_two_queue_scenario_byte_identical_to_pre_refactor():
    cfg = config.SimConfig(seed=2020)
    machine = Machine(cfg)
    machine.enable_checks()
    flows = FlowSet()
    queues = [
        RxQueue(machine.sim, CbrProcess(4_000_000), flows=flows, index=i)
        for i in range(2)
    ]
    group = MetronomeGroup(machine, queues, default_app(), num_threads=3,
                           cores=[0, 1, 2])
    group.start()
    machine.run(until=20_000_000)
    for q in queues:
        q.sync()
    machine.checks.quiesce(consumed=group.total_packets)
    assert machine.checks.ok, [str(v) for v in machine.checks.violations]
    fingerprint = {
        "arrived": sum(q.arrived_total for q in queues),
        "busy_tries": group.busy_tries,
        "cpu_ns": group.cpu_time_ns(),
        "cycles": [group.cycle_stats(i).count for i in range(2)],
        "drops": group.total_drops(),
        "iterations": group.total_iterations,
        "packets": group.total_packets,
    }
    assert canonical_sha(fingerprint) == TWO_QUEUE_SHA, fingerprint


def test_numa_defaults_are_inert():
    """The default config models the paper's single-node testbed: one
    NUMA node, every core and queue on node 0, zero penalties."""
    cfg = config.SimConfig()
    assert cfg.numa_nodes == 1
    machine = Machine(cfg)
    assert machine.numa_nodes == 1
    assert all(c.node == 0 for c in machine.cores)
    assert all(machine.wake_penalty_ns(c) == 0 for c in machine.cores)
    queue = RxQueue(machine.sim, CbrProcess(0))
    assert queue.node == 0


def runner_fingerprint(res) -> tuple:
    samples = json.dumps(res.latency.samples()).encode()
    return (
        res.offered, res.delivered, res.drops,
        repr(res.cpu_utilization), repr(res.energy_j),
        res.machine.sim.events_scheduled,
        hashlib.sha256(samples).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(RUNNER_PINS))
def test_runner_byte_identical_to_pre_refactor(name):
    assert runner_fingerprint(RUNNERS[name]()) == RUNNER_PINS[name]
