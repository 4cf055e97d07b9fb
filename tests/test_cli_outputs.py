"""The CLI's exact stdout, stderr and exit status on a fixed table of calls.

The table covers what a refactor of the induction or of the image order can
silently change: the walk's steps and case names, the letter names in theta,
the return words, the language order and the verify report with its trace.
Each call runs in process from ``tests/data``, so instance paths in the
output are relative.  The recording is ``tests/data/expected/cli_outputs.json``;
after an intended output change, rewrite it with

    PYTHONPATH=src python tests/test_cli_outputs.py

and review the diff.
"""

import hashlib
import io
import json
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ietkit.cli import main
from ietkit.instance import parse_iet_file

DATA = pathlib.Path(__file__).parent / "data"
RECORDING = DATA / "expected" / "cli_outputs.json"

# The nonempty words of length at most 2 of each instance.
WORDS = {
    "golden.iet": ["a", "b", "c", "ac", "ba", "bb", "cb", "cc"],
    "sqrt2_4.iet": ["a", "b", "c", "d", "ad", "bc", "bd", "cb", "cc", "da", "db"],
}


def calls() -> list[list[str]]:
    table = []
    for name in ("golden.iet", "sqrt2_4.iet"):
        table.append(["verify", name, "--max-len", "6", "--trace"])
        table.append(["verify", name, "--max-len", "6", "--trace", "--format", "json"])
        for w in WORDS[name]:
            table.append(["iet", "rauzy", name, "--steps", "auto", "--word", w])
            table.append(["iet", "returns", name, "--word", w, "--trace"])
        table.append(["iet", "rauzy", name, "--steps", "rrll"])
        table.append(["iet", "rauzy", name, "--steps", "lrlr"])
        table.append(["iet", "language", name, "--max-len", "8"])
        table.append(["iet", "check", name, "--depth", "50"])
    table.append(["diet", "--composition", "4,2,1", "--pi", "cba", "--orbits", "--words", "--cylinder", "ab"])
    table.append(["extgraph", "--source", "iet:golden.iet", "--word", "a", "--orders", "pi:A", "--layout"])
    table.append(["classify", "--source", "iet:sqrt2_4.iet", "--depth", "4", "--orders", "pi:A"])
    return table


def run(argv: list[str]) -> dict:
    """One in-process call from ``tests/data``: argv, stdout, stderr, status."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


def recorded() -> list[dict]:
    """The recording, or no records before the first one is written (which
    the coverage test then reports)."""
    if not RECORDING.exists():
        return []
    return json.loads(RECORDING.read_text(encoding="utf-8"))


def test_the_recording_covers_the_table():
    assert [r["argv"] for r in recorded()] == calls()


def test_the_table_holds_every_short_word():
    for name, words in WORDS.items():
        language = parse_iet_file(str(DATA / name)).language(2)
        assert sorted(words) == sorted(w for w in language if w)


@pytest.mark.parametrize("record", recorded(), ids=lambda r: " ".join(r["argv"]))
def test_output_is_unchanged(monkeypatch, record):
    monkeypatch.delenv("IETKIT_KEANE_DEPTH", raising=False)
    monkeypatch.delenv("IETKIT_INDUCTION_CAP", raising=False)
    assert run(record["argv"]) == record


# sha256 of stdout and the exit status of the benchmark's orbit calls at the
# benchmark's sizes, recorded before the orbit loops were refined in image order.
ORBIT_BYTES = [
    ("iet language golden.iet --max-len 60", 0, "dccb7e109b4cf9e3f941e4efdef57046f9eeb99721388877da0744d1d7762be1"),
    ("iet check golden.iet --depth 5000", 0, "bc18c39110a658c505c5ea70b9f752d612788ef398722fee2f28f7d9fc6ad02e"),
    ("iet traj golden.iet --point (1,1,7) --steps 10000", 0,
     "3bd0ae81f6a1750ec2ac4a05b0343d85e21c1191d07489666a0e3c7e2a9372e0"),
    ("iet language sqrt2_even.iet --max-len 60", 0, "ea6e70134ab49587056e73bbd4e63a513bb8989c0027c946f9d3c917f1388740"),
    ("iet check sqrt2_even.iet --depth 5000", 0, "583a8eed0b5a449e5202e18c0a4bb67a74ec04376b90e5ed7d67a385a81dbddf"),
    ("iet traj sqrt2_even.iet --point (5,1,3) --steps 10000", 0,
     "5733f57cbb9ae04e9a8fc2ca64cdeace1db8aeba649a20761f0c15a4a18183a4"),
]


@pytest.mark.parametrize("command, status, digest", ORBIT_BYTES, ids=[c for c, _, _ in ORBIT_BYTES])
def test_the_benchmark_orbit_calls_keep_their_bytes(command, status, digest):
    result = run(command.split())
    assert (result["status"], result["stderr"]) == (status, "")
    assert hashlib.sha256(result["stdout"].encode()).hexdigest() == digest


if __name__ == "__main__":
    for name in ("IETKIT_KEANE_DEPTH", "IETKIT_INDUCTION_CAP"):
        os.environ.pop(name, None)
    text = json.dumps([run(argv) for argv in calls()], indent=1, ensure_ascii=False) + "\n"
    RECORDING.write_text(text, encoding="utf-8")
