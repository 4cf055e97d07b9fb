"""The JSON report writer against ``json.dumps``, and the report bytes of the
benchmark's own ``verify`` calls.

``emit_report(report, "structured")`` writes the report's fixed schema
directly.  The oracle below is the payload dictionary it replaced, serialized
by ``json.dumps(sort_keys=True, indent=2)``; the two must agree byte for byte
on any report, including strings that need escaping.
"""

import hashlib
import io
import json
import os
import pathlib
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from ietkit.cli import main
from ietkit.verify import Failure, ReturnWordCheck, VerificationReport, WordRecord, emit_report

DATA = pathlib.Path(__file__).parent / "data"


def payload_oracle(report: VerificationReport) -> bytes:
    payload = {
        "instance": report.instance,
        "max_len": report.max_len,
        "keane_depth": report.keane_depth,
        "words_checked": report.words_checked,
        "failures": [
            {"word": f.word, "return_word": f.return_word, "transform": f.transform, "reason": f.reason}
            for f in report.failures
        ],
        "records": [
            {
                "word": r.word,
                "method_agreement": r.method_agreement,
                "return_words": list(r.return_words),
                "checks": [
                    {
                        "word": c.word,
                        "transform": c.transform,
                        "clustering": c.is_clustering,
                        "blocks": c.blocks,
                        "matches_instance_permutation": c.matches_instance_permutation,
                    }
                    for c in r.checks
                ],
                **({"theta": dict(r.theta)} if r.theta is not None else {}),
            }
            for r in report.records
        ],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


# Quotes, backslashes, control characters, non-ASCII (including outside the
# basic plane, which json writes as a surrogate pair), or any character.
texts = st.text(
    alphabet=st.sampled_from(list('ab"\\/\n\t\r\b\f\x00\x1f\x7f') + ["é", "€", " ", "😀"]) | st.characters(),
    max_size=8,
)
checks = st.builds(ReturnWordCheck, texts, texts, st.booleans(), texts, st.booleans())


@st.composite
def records(draw, pool):
    # Letters may repeat: the payload keeps the last image of each.
    letters = st.sampled_from(["a", "b", '"', "é"]) | texts
    theta = draw(st.none() | st.lists(st.tuples(letters, texts), max_size=4).map(tuple))
    return WordRecord(
        word=draw(texts),
        method_agreement=draw(st.booleans()),
        return_words=tuple(draw(st.lists(texts, max_size=4))),
        # Checks drawn from a shared pool recur across records, as in verify.
        checks=tuple(draw(st.lists(st.sampled_from(pool), max_size=5))) if pool else (),
        theta=theta,
    )


@st.composite
def reports(draw):
    pool = draw(st.lists(checks, max_size=4))
    return VerificationReport(
        instance=draw(texts),
        max_len=draw(st.integers(0, 10**6)),
        keane_depth=draw(st.integers(0, 10**6)),
        words_checked=draw(st.integers(0, 10**6)),
        failures=tuple(draw(st.lists(st.builds(Failure, texts, st.none() | texts, st.none() | texts, texts), max_size=3))),
        records=tuple(draw(st.lists(records(pool), max_size=4))),
    )


@settings(max_examples=120, deadline=None)
@given(reports())
def test_writer_matches_json_dumps(report):
    assert emit_report(report, "structured") == payload_oracle(report)


def test_writer_on_an_empty_report():
    report = VerificationReport("", 0, 0, 0, (), ())
    assert emit_report(report, "structured") == payload_oracle(report)
    # A record with no return words, no checks and an empty theta.
    report = VerificationReport("x", 1, 2, 3, (), (WordRecord("a", False, (), (), ()),))
    assert emit_report(report, "structured") == payload_oracle(report)


# sha256 of `verify FILE --max-len N --format json`: the benchmark's `verify`
# calls, recorded before the writer and the step check were rewritten.
BENCHMARK_BYTES = [
    ("golden.iet", 10, 0, "b11e11aad70923067e535a02a43abb15fdd2db1f3345705e223f310a6ed2f739"),
    ("sqrt2_even.iet", 6, 1, "1bfd0ea9183c0cb02f0bc5f21211e62ca8853c01f2366c74bed05225964f17d8"),
]


def test_the_benchmark_verify_calls_keep_their_bytes():
    for name, max_len, status, digest in BENCHMARK_BYTES:
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(DATA)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                got = main(["verify", name, "--max-len", str(max_len), "--format", "json"])
        finally:
            os.chdir(cwd)
        assert (got, err.getvalue()) == (status, "")
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, name
