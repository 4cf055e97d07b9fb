"""A small traced run: every span and counter of the benchmark's tracer fires.

``perfbench/run.py --trace 1`` exits 1 when a span or counter that a
workload must hit never fires, for instance because the function it patches
is no longer called on that path.  This runs a few tiny CLI calls of each
workload under the tracer, loaded from its file as in
``test_perfbench_spans.py``, so such a change fails here first.
"""

import contextlib
import importlib.util
import io
import pathlib

import pytest

from ietkit import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
GOLDEN = str(ROOT / "tests" / "data" / "golden.iet")

CALLS = {
    "verify": [["verify", GOLDEN, "--max-len", "3", "--format", "json"]],
    "orbit": [
        ["iet", "check", GOLDEN, "--depth", "20"],
        ["iet", "traj", GOLDEN, "--point", "(1, 0, 3)", "--steps", "20"],
        ["iet", "language", GOLDEN, "--max-len", "3"],
    ],
    "words": [
        ["bwt", "--alphabet", "abc", "abcab"],
        ["cluster", "--alphabet", "abc", "acbcab"],
        ["ebwt", "--alphabet", "ab", "ab", "aab"],
        ["ebwt-inverse", "--alphabet", "ab", "bbaaa"],
        ["diet", "--composition", "4,2,1", "--pi", "cba", "--words"],
        ["classify", "--source", "periodic:aabcb", "--depth", "3", "--orders", "abc:A"],
        ["classify", "--source", "multiset:ab,aab", "--depth", "3", "--orders", "A:A"],
        ["classify", "--source", "iet:" + GOLDEN, "--depth", "4", "--orders", "pi:A"],
    ],
}


@pytest.mark.parametrize("workload", sorted(CALLS))
def test_every_span_and_counter_fires(workload):
    with tracer.Tracer().install(counters=True) as t:
        for argv in CALLS[workload]:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, argv
    assert tracer.missing_hits(workload, t, t) == []
