"""Smoke test of the benchmark itself, at a tiny simulated length.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs untraced and traced; every named metric must be
printed with its unit and every check must pass.  A held-out seed must
give other output digests than the default seed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_MS = "2"
HELD_OUT_SEED = "7"


def bench(workload: str, trace: int, seed: str = "2020"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", "0", "--sim-ms", TINY_MS,
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(line: str, name: str, unit: str) -> bool:
    """A table line that gives ``name`` a number in ``unit``."""
    return re.match(rf"\s+{re.escape(name)}\s+\S+ {re.escape(unit)}(\s|$)",
                    line) is not None


def digests(table_lines):
    line = next(x for x in table_lines if x.strip().startswith("digests:"))
    return json.loads(line.split("digests:", 1)[1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == [m[:3] for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [m[:3] for m in run.PER_LAYER]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_and_passes(workload, trace):
    table, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in named]
    for name, unit, *_ in named:
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(printed(line, name, unit) for line in table), name
    if not trace:
        for name, unit, *_ in run.REPORT_ONLY:
            if name == "paper_cpu_err_pct" and workload != "linerate_1q":
                assert any("unvalidated" in line for line in table)
                continue
            assert any(printed(line, name, unit) for line in table), name


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_held_out_seed_gives_new_digests(workload):
    table, result = bench(workload, 0, seed=HELD_OUT_SEED)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m[0] for m in run.END_TO_END]
    default_table, _ = bench(workload, 0)
    held_out = {d for ds in digests(table).values() for d in ds}
    default = {d for ds in digests(default_table).values() for d in ds}
    assert held_out and not held_out & default


def test_recorded_digests_differ_between_seeds():
    table = json.loads((HERE / "digests.json").read_text())
    for workload in run.WORKLOADS:
        entry = table[workload]
        assert entry["sim_ms"] == run.WORKLOADS[workload].sim_ms
        seeds = entry["seeds"]
        assert {"2020", HELD_OUT_SEED} <= set(seeds)
        flat = {s: {d for ds in seeds[s] for d in ds} for s in seeds}
        assert not flat["2020"] & flat[HELD_OUT_SEED]


def test_replica_seeds_are_stable():
    seeds = run.replica_seeds(2020, 4)
    assert seeds[0] == 2020 and len(set(seeds)) == 4
    assert run.replica_seeds(2020, 4) == seeds
    assert run.replica_seeds(7, 4)[1:] != seeds[1:]
