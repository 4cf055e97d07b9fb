"""`verify` output pinned byte for byte, as JSON and as text.

The digests were recorded while `verify` still transformed every distinct
return word, before it checked one word of each conjugacy class, so they
hold the reports to the output of the per-word checks.  Those of
`sqrt2_4.iet@16`, `golden.iet@60` and the `--trace` call were recorded while
`verify` still scanned every word for its return words, before it derived
them from a shorter word's where the language's extensions force them;
`sqrt2_4.iet@16` has words whose source scans are incomplete.
"""

import hashlib
import io
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ietkit.cli import main

DATA = pathlib.Path(__file__).parent / "data"

# (file, --max-len, exit status, sha256 of the JSON report, sha256 of the text report)
PINNED = [
    ("golden.iet", 10, 0,
     "b11e11aad70923067e535a02a43abb15fdd2db1f3345705e223f310a6ed2f739",
     "5d26df9a64cb58dabd992d5aadabf71f374e08038bcc3fa6dcc05640992c6dc7"),
    ("golden.iet", 30, 0,
     "22acd4f27ddcfe7cfb44faadac26f4172b39bb22d24beedfd4ff512bf5b8e101",
     "30fe7dab532053d2f179f296219410654490c194c8000c9d17c9e281a42a21e4"),
    ("sqrt2_even.iet", 6, 1,
     "1bfd0ea9183c0cb02f0bc5f21211e62ca8853c01f2366c74bed05225964f17d8",
     "81510ad6f61d149c4f9bf8a6b7f3d55a992cff3a7486261a393d254c072dd906"),
    ("sqrt2_4.iet", 12, 1,
     "79bb71d5f396a375aeb0fb62dbd8c21452d9d58e18bec8618ee612c680372be6",
     "161f50af8aa769c5c5944159dbaa602f7c2038866b1276fb49be04c55a6f70ff"),
    ("sqrt2_4.iet", 16, 1,
     "5d4f5f68438943c5a3f720656a76d6b5c3e332656a6bd3456e462c6d69e61956",
     "75f53ad22b0999ca9d56dee021b181e99939def4bf6dfd448d1ec342243cd39f"),
    ("golden.iet", 60, 0,
     "974c67c3aad1829ab9d774916d617e7124492b7e080d2ec6324aed86678a8258",
     "462aac80098682fde33dbbf8e13a8e5fa36b5d5f323a11755d08fa3232a2f9d4"),
]
# The same, with --trace.
TRACED = [
    ("sqrt2_4.iet", 8, 1,
     "12d8ee3b513b5651ee90ec7cee30740a51531923e18e912b634ae687c6ece58c",
     "c8759445d1e8843e61eed7795ab83b4ef2a6c66b66c00ec63239597caafa298b"),
]


@pytest.mark.parametrize(
    "name, max_len, status, json_digest, text_digest", PINNED, ids=[f"{p[0]}@{p[1]}" for p in PINNED]
)
def test_verify_keeps_its_bytes(monkeypatch, name, max_len, status, json_digest, text_digest):
    monkeypatch.chdir(DATA)
    for fmt, digest in (("json", json_digest), ("text", text_digest)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            got = main(["verify", name, "--max-len", str(max_len), "--format", fmt])
        assert (got, err.getvalue()) == (status, ""), fmt
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, fmt


@pytest.mark.parametrize(
    "name, max_len, status, json_digest, text_digest", TRACED, ids=[f"{p[0]}@{p[1]}" for p in TRACED]
)
def test_verify_with_trace_keeps_its_bytes(monkeypatch, name, max_len, status, json_digest, text_digest):
    monkeypatch.chdir(DATA)
    for fmt, digest in (("json", json_digest), ("text", text_digest)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            got = main(["verify", name, "--max-len", str(max_len), "--trace", "--format", fmt])
        assert (got, err.getvalue()) == (status, ""), fmt
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, fmt
