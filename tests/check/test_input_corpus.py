"""Malformed fault-plan and tolerance-policy files end in one clean line.

Every file under ``corpus/`` is a malformed ``repro chaos --plan-file``
input (``plan_*``) or ``repro check --policy`` input (``policy_*``).
Parsing one must raise :exc:`ValueError` — JSON, UTF-8 and schema
errors alike — and the CLI must print one ``INVALID:`` line and exit 2
with no traceback.  A seeded byte-mutation fuzz extends the contract to
inputs nobody wrote by hand: each mutant parses or raises ValueError.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from repro.check.oracle import TolerancePolicy
from repro.cli import main
from repro.faults import SHIPPED_PLANS, FaultPlan

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

MALFORMED = sorted(os.listdir(CORPUS))

#: corpus prefix -> (parser, the CLI argv that reads such a file)
PARSERS = {
    "plan": (FaultPlan.from_dict, ["chaos", "--plan-file"]),
    "policy": (TolerancePolicy.from_dict, ["check", "--oracle", "--policy"]),
}


def _kind(name):
    return name.split("_", 1)[0]


def _parse(name, data: bytes):
    return PARSERS[_kind(name)][0](json.loads(data.decode("utf-8")))


def test_corpus_covers_each_malformation():
    assert MALFORMED == [
        "plan_float_time.json", "plan_nan_magnitude.json",
        "plan_negative_core.json", "plan_non_utf8.json",
        "plan_spec_missing_key.json",
        "plan_spec_not_object.json", "plan_specs_not_list.json",
        "plan_string_time.json", "plan_top_level_list.json",
        "plan_truncated.json", "plan_unknown_key.json",
        "plan_unknown_spec_key.json",
        "policy_non_numeric.json", "policy_top_level_list.json",
        "policy_truncated.json", "policy_unknown_key.json",
    ]


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_file_raises_value_error(name):
    with open(os.path.join(CORPUS, name), "rb") as fh:
        data = fh.read()
    with pytest.raises(ValueError):
        _parse(name, data)


@pytest.mark.parametrize("name", MALFORMED)
def test_cli_rejects_malformed_file_in_one_line(name, capsys):
    path = os.path.join(CORPUS, name)
    assert main(PARSERS[_kind(name)][1] + [path]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"INVALID: {path}: ")
    assert out.count("\n") == 1


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_cli_missing_file_exits_2(kind, tmp_path, capsys):
    path = str(tmp_path / "absent.json")
    assert main(PARSERS[kind][1] + [path]) == 2
    assert capsys.readouterr().out.startswith(f"cannot read {path}: ")


@pytest.mark.parametrize("name", ["plan_top_level_list.json",
                                  "policy_non_numeric.json"])
def test_cli_entry_point_exits_2_without_traceback(name):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *PARSERS[_kind(name)][1],
         os.path.join(CORPUS, name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "INVALID: " in proc.stdout


def _mutate(rng: random.Random, data: bytes) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        pos = rng.randrange(len(buf)) if buf else 0
        if op == 0 and buf:
            buf[pos] = rng.randrange(256)
        elif op == 1 and buf:
            del buf[pos]
        elif op == 2:
            buf.insert(pos, rng.choice(b'0123456789.-e,[]{}":\n\xff'))
        else:
            del buf[pos:]
    return bytes(buf)


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_seeded_mutations_parse_or_raise_value_error(kind):
    good = (SHIPPED_PLANS["perfect-storm"].to_dict() if kind == "plan"
            else TolerancePolicy().to_dict())
    data = json.dumps(good).encode()
    rng = random.Random(2020)
    rejected = 0
    for _ in range(500):
        try:
            _parse(kind, _mutate(rng, data))
        except ValueError:
            rejected += 1
    assert rejected > 0
