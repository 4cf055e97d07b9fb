"""`verify`'s derived return words against induction and a long scan.

`verify_return_words` scans the return words of the letters and of the fresh
words, those ``bva`` with v bispecial.  Every other word takes a shorter
word's complete set: its prefix's, when the prefix has one right extension,
or its suffix's conjugated by the first letter, when the suffix has one left
extension.  On every word up to length 8 of the four instance files and of
irrational exchanges drawn from the strategies of `test_iet_lattice.py`, each
derived set is checked against induction and, where it completes, a scan at
a horizon far past `verify`'s.  A call-count guard pins the scans that
`verify` makes.
"""

import pathlib
from collections import Counter
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from test_iet_lattice import FIXED, rational_iets  # noqa: E402

from ietkit import Iet, IncompleteScanError, QuadNum  # noqa: E402
from ietkit.cli import main, parse_iet_file  # noqa: E402
from ietkit.verify import verify_return_words  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
FILES = {name: parse_iet_file(str(DATA / name)) for name in ("one_letter.iet", "sqrt2_even.iet")}
MAX_LEN = 8
# Letters of trajectory per letter of the word for the long scan: 100 times
# `verify`'s horizon on a four-letter exchange.
LONG = 80_000


@st.composite
def irrational_iets(draw) -> Iet:
    """An exchange of `rational_iets` with each length moved by a positive
    multiple of √2, kept when it shows no connection."""
    base = draw(rational_iets())
    lengths = {c: base.length(c) + QuadNum(0, draw(st.integers(1, 5)), draw(st.integers(1, 7)), 2)
               for c in base.alphabet}
    iet = Iet(base.alphabet, base.permutation, lengths, base.origin)
    assume(iet.check_keane().is_regular)
    return iet


EXCHANGES = {**FIXED, **FILES}
instances = st.one_of(st.sampled_from(sorted(EXCHANGES)).map(EXCHANGES.get), irrational_iets())


def scanned_by_verify(iet: Iet, max_len: int):
    """The report of `verify_return_words` and the words it scanned."""
    with mock.patch.object(Iet, "return_words_scan", autospec=True, side_effect=Iet.return_words_scan) as scan:
        report = verify_return_words(iet, max_len)
    return report, [call.args[1] for call in scan.call_args_list]


@settings(max_examples=40, deadline=None)
@given(instances)
def test_each_derived_set_equals_induction_and_a_long_scan(iet):
    report, scanned = scanned_by_verify(iet, MAX_LEN)
    assert len(scanned) == len(set(scanned))
    words = [r.word for r in report.records]
    rights, lefts = Counter(w[:-1] for w in words), Counter(w[1:] for w in words)
    fresh = [w for w in words if len(w) == 1 or rights[w[:-1]] > 1 and lefts[w[1:]] > 1]
    failed = {f.word for f in report.failures if f.reason.startswith("induction failed")}
    assert set(fresh) - failed <= set(scanned)
    if report.ok:
        # Every scan completed, so only the fresh words were scanned.
        assert scanned == fresh
    for r in report.records:
        if r.word in scanned or r.word in failed:
            continue
        # A derived word: its set agreed with induction's.
        assert r.method_agreement, r.word
        assert len(r.return_words) == len(iet.alphabet), r.word
        try:
            long = iet.return_words_scan(r.word, horizon=LONG * len(r.word))
        except IncompleteScanError:
            continue
        assert long == set(r.return_words), r.word


def test_verify_scans_the_letters_and_the_fresh_words(monkeypatch, capsys):
    scanned = []
    real = Iet.return_words_scan
    monkeypatch.setattr(Iet, "return_words_scan", lambda self, w, **kw: scanned.append(w) or real(self, w, **kw))
    monkeypatch.chdir(DATA)
    assert main(["verify", "golden.iet", "--max-len", "10"]) == 0
    capsys.readouterr()
    # The 3 letters and 9 words bva with v bispecial, of 120 words.
    assert len(scanned) == 12
    assert scanned == ["a", "b", "c", "bb", "cb", "cc", "acb", "cba", "ccbb", "bbacc", "acbbacb", "cbaccba"]


def test_verify_passes_the_scan_the_word_alone():
    """The scan computes its own cylinder: nothing of the induction reaches it."""
    golden = parse_iet_file(str(DATA / "golden.iet"))
    with mock.patch.object(Iet, "return_words_scan", autospec=True, side_effect=Iet.return_words_scan) as scan:
        verify_return_words(golden, 10)
    assert scan.call_count == 12
    for call in scan.call_args_list:
        assert call.kwargs == {} and len(call.args) == 2 and call.args[0] is golden, call
