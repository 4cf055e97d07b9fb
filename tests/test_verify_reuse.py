"""`verify`'s reuse of a prefix's return words, and the Return Theorem check.

A walk resumed from its prefix's trace that takes no new step returns the
prefix's morphism, and `verify_return_words` then takes the prefix's return
words, sorted and checked.  With ``trace=True`` every walk starts from the
instance, so nothing is reused: the records of the two runs, ``theta``
dropped, must be equal, on the four instance files and on the exchanges of
`test_verify_derived.py`.  Induction must give exactly ``d`` return words;
another count is recorded as a failure.
"""

import pathlib
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from test_verify_derived import instances  # noqa: E402

import ietkit.verify  # noqa: E402
from ietkit.cli import parse_iet_file  # noqa: E402
from ietkit.rauzy import induce_to_cylinder  # noqa: E402
from ietkit.verify import verify_return_words  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"


def same_without_reuse(iet, max_len):
    reused, walked = verify_return_words(iet, max_len), verify_return_words(iet, max_len, trace=True)
    assert reused.records == tuple(replace(r, theta=None) for r in walked.records)
    assert reused.failures == walked.failures
    return reused


@pytest.mark.parametrize("name, max_len", [("golden", 10), ("one_letter", 6), ("sqrt2_4", 8), ("sqrt2_even", 6)])
def test_reused_records_equal_the_records_of_walks_from_the_instance(name, max_len):
    iet = parse_iet_file(str(DATA / f"{name}.iet"))
    resumed = {}
    for w in sorted((w for w in iet.language(max_len) if w), key=len):
        resumed[w] = induce_to_cylinder(iet, w, start=resumed.get(w[:-1]))
    shared = sum(t.theta is resumed[w[:-1]].theta for w, t in resumed.items() if len(w) > 1)
    # The files have words whose walks take no new step, so reuse is tested.
    assert shared or len(iet.alphabet) == 1
    same_without_reuse(iet, max_len)


@settings(max_examples=25, deadline=None)
@given(instances)
def test_reused_records_equal_walked_records_on_drawn_exchanges(iet):
    same_without_reuse(iet, 6)


class _Dropped:
    """A morphism that forgets the image of its last source letter."""

    def __init__(self, theta):
        self.theta, self.source = theta, theta.source.letters[:-1]

    def __call__(self, word):
        return self.theta(word)


def test_a_count_other_than_d_is_recorded_for_every_word(monkeypatch):
    golden = parse_iet_file(str(DATA / "golden.iet"))
    real = induce_to_cylinder

    def one_image_dropped(iet, w, cap=None, start=None):
        if start is not None:
            start = replace(start, theta=start.theta.theta)
        trace = real(iet, w, cap=cap, start=start)
        return replace(trace, theta=_Dropped(trace.theta))

    monkeypatch.setattr(ietkit.verify, "induce_to_cylinder", one_image_dropped)
    report = verify_return_words(golden, 4)
    counted = [f.word for f in report.failures if f.reason == "induction gave 2 return words, not 3"]
    assert counted == [r.word for r in report.records]
    assert all(len(r.return_words) == 2 for r in report.records)

