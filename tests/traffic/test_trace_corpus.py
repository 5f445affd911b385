"""Golden digests of the generator catalogue, and a malformed-input corpus.

The digests pin the canonical trace bytes of every shipped generator
(5 ms, seed 2020): a change to the serialisation or to a generator's
draws shows up here even when "same seed, same sha" still holds.

Every file under ``corpus/`` is a malformed trace.  Loading one must end
in :exc:`TraceError`, and ``repro traffic validate`` must exit 2 with an
``INVALID:`` line and no traceback.  A seeded byte-mutation fuzz extends
the same contract to inputs nobody wrote by hand.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.cli import main
from repro.sim.units import MS
from repro.traffic import SHIPPED_TRACES, Phase, Trace, TraceError, generate

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

GOLDEN_SHA = {
    "benign":
        "a37d33c8d7a0c7a1fcb592512d0a5a2c6825a2a28afb4a9403e851bd5ebc39f2",
    "http-flood":
        "353af768d52c4dc078afd43cb218feab54236f4cfb45e050ebf6bb0d3ac8985d",
    "microburst-ddos":
        "ebb74f619acef2f01f481a74fd4e4cd5588345006ec844de39ad26f5f9392595",
    "slow-drip":
        "aa58401de69d50762a4c1d4f4b6b77d82ed08dffb45722ab7418c66f4871b33e",
    "steady-background":
        "bdfe9199a69355030c4b9ef9f8f149694c807714824fbdb18a9dbfca01669711",
}

MALFORMED = sorted(os.listdir(CORPUS))


def test_golden_covers_the_catalogue():
    assert sorted(GOLDEN_SHA) == sorted(SHIPPED_TRACES)


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA))
def test_shipped_trace_sha_is_pinned(name):
    trace = generate(SHIPPED_TRACES[name](5 * MS), 2020)
    assert trace.sha256() == GOLDEN_SHA[name]


def test_corpus_covers_each_malformation():
    assert MALFORMED == [
        "bool_field.jsonl", "float_time.jsonl", "huge_int.jsonl",
        "meta_not_object.jsonl", "non_utf8.jsonl", "not_gzip.jsonl.gz",
        "null_field.jsonl", "overflow_field.jsonl", "phase_missing_key.jsonl",
        "phases_not_list.jsonl", "string_field.jsonl", "truncated.jsonl.gz",
    ]


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_file_raises_trace_error(name):
    with pytest.raises(TraceError):
        Trace.load(os.path.join(CORPUS, name))


@pytest.mark.parametrize("name", MALFORMED)
def test_cli_validate_rejects_malformed_file(name, capsys):
    assert main(["traffic", "validate", os.path.join(CORPUS, name)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("INVALID: ")
    assert "Traceback" not in captured.err


def test_cli_entry_point_exits_2_without_traceback():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "traffic", "validate",
         os.path.join(CORPUS, "string_field.jsonl")],
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


@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
def test_seeded_mutations_load_or_raise_trace_error(tmp_path, suffix):
    good = Trace(
        phases=[Phase("warm", 0, 500), Phase("hot", 500, 1200)],
        records=[(100, 64, 1), (250, 512, 7), (500, 96, 2), (1100, 64, 7)],
        meta={"generator": "fuzz", "seed": 2020},
    )
    path = str(tmp_path / ("good" + suffix))
    good.dump(path)
    with open(path, "rb") as fh:
        data = fh.read()
    rng = random.Random(2020)
    rejected = 0
    for i in range(300):
        bad = str(tmp_path / f"m{i}{suffix}")
        with open(bad, "wb") as fh:
            fh.write(_mutate(rng, data))
        try:
            Trace.load(bad)
        except TraceError:
            rejected += 1
    assert rejected > 0
