"""Determinism audit: every registered figure, byte-for-byte.

test_campaign_determinism.py spot-checks fig7/fig8; this audit sweeps
the *whole* registry so a newly added figure cannot quietly ship a
nondeterministic scenario.  Records are compared as canonical JSON —
the exact bytes the cache and the artifact writer persist — in-process
and through a forked worker."""

import json
import multiprocessing

import pytest

from repro.campaign import FIGURES
from repro.campaign.executor import execute_task, run_tasks

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="subprocess determinism tests exercise forked workers",
)


def canonical(record) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode()


def first_task(name):
    return FIGURES[name].tasks(scale=0.25)[0]


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_repeats_byte_identical_in_process(name):
    spec = first_task(name)
    assert canonical(execute_task(spec)) == canonical(execute_task(spec))


@fork_only
@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_forked_worker_matches_in_process(name):
    spec = first_task(name)
    (outcome,) = run_tasks([spec], workers=1)
    assert outcome.ok, outcome.error
    assert canonical(outcome.record) == canonical(execute_task(spec))


def test_audit_covers_the_whole_registry():
    # the paper's deliverables; extend this set when adding figures so
    # the audit's parametrization is known to track the registry
    assert set(FIGURES) == {
        "table1", "table2", "table3",
        "fig6", "fig7", "fig8", "fig9", "fig10", "fig12", "fig13",
        "fig15", "pacing",
        "trace_phases", "trace_adversary",
        "scale_queue_count", "scale_thread_ratio",
    }
