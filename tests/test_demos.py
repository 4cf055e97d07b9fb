"""Each demo prints exactly the output recorded in tests/data/expected/demos."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "tests" / "data" / "expected" / "demos"


def test_every_demo_has_a_recording():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
