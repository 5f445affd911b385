"""Determinism across process boundaries.

The ISSUE's acceptance bar: the same spec + seed produce identical
records whether run in-process or in a worker subprocess, and a
multi-worker campaign's merged tables are byte-identical to the serial
run.
"""

import multiprocessing

import pytest

from repro.campaign import FIGURES, json_normalize, run_campaign, run_figure
from repro.campaign.executor import execute_task, run_tasks
from repro.harness.extensions import pacing_comparison
from repro.harness.scaling import FAST_SCALE
from repro.harness.scenarios import fig10_latency_boxplots

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="subprocess determinism tests exercise forked workers",
)


@fork_only
def test_in_process_equals_subprocess():
    spec = FIGURES["fig7"].tasks(scale=0.25)[2]
    local = execute_task(spec)
    (outcome,) = run_tasks([spec], workers=1)
    assert outcome.ok
    assert outcome.record == local


@fork_only
def test_four_workers_byte_identical_to_serial():
    serial = run_campaign(["fig7", "fig8"], workers=0, scale=0.25)
    parallel = run_campaign(["fig7", "fig8"], workers=4, scale=0.25)
    for name in ("fig7", "fig8"):
        s_rec = serial.record_for(name)
        p_rec = parallel.record_for(name)
        assert s_rec == p_rec
        assert FIGURES[name].render(p_rec) == FIGURES[name].render(s_rec)


def test_repeat_serial_runs_identical():
    spec = FIGURES["fig8"].tasks(scale=0.25)[0]
    assert execute_task(spec) == execute_task(spec)


@pytest.mark.parametrize("name, serial", [
    ("pacing", lambda: pacing_comparison(count=75)),
    ("fig10", lambda: fig10_latency_boxplots(duration_ms=20)),
])
def test_one_serial_call_equals_the_sharded_figure(name, serial):
    # the registry shards the scenario's own loops: concatenating the
    # one-point tasks must give the unsharded call's records, in order
    assert json_normalize(serial()) == run_figure(name, FAST_SCALE)
