"""The cylinder rule that `Iet.cylinder` folds and induction walks continue.

`Iet._cylinder_rule` advances the state ``(lo, hi, shift)`` of a word by
more letters, and a trace keeps its word's state, so a walk resumed from the
trace of a prefix reads only the rest of its word.  The rule continued one
letter at a time is checked against `Iet.cylinder` and the QuadNum oracle of
`test_iet_lattice.py` on every word up to length 8 and every empty child of
one, over the strategies of `test_iet_lattice.py` and `test_language_order.py`.
A resumed trace keeps the state of the walk from the instance, and
`induce_to_cylinder` keeps the order of its refusals.
"""

import pathlib
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from test_iet_lattice import cylinder_oracle, instances as lattice_instances  # noqa: E402
from test_language_order import exchanges  # noqa: E402
from test_verify_derived import instances as regular_instances  # noqa: E402

from ietkit import Interval, QuadNum  # noqa: E402
from ietkit.cli import parse_iet_file  # noqa: E402
from ietkit.iet import EMPTY  # noqa: E402
from ietkit.rauzy import InductionCapError, induce_to_cylinder  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
MAX_LEN = 8


def as_interval(iet, state):
    if state is None:
        return EMPTY
    R, d, _, _ = iet._grid
    lp, lq, hp, hq, sp, sq = state
    return Interval(QuadNum(lp - sp, lq - sq, R, d), QuadNum(hp - sp, hq - sq, R, d))


@settings(max_examples=60, deadline=None)
@given(st.one_of(lattice_instances, exchanges()))
def test_the_rule_continued_letter_by_letter_is_the_cylinder(iet):
    states = {"": iet._cylinder_rule("")}
    assert as_interval(iet, states[""]) == iet.domain == iet.cylinder("")
    empty = 0
    for w in sorted(iet.language(MAX_LEN - 1), key=len):
        for c in iet.alphabet:
            state = iet._cylinder_rule(c, states[w])
            cylinder = iet.cylinder(w + c)
            assert as_interval(iet, state) == cylinder == cylinder_oracle(iet, w + c), w + c
            assert iet._cylinder_rule(w + c) == state, w + c
            if state is None:
                empty += 1
            else:
                states[w + c] = state
    # Every word of the language is reached, and at least one child is empty.
    assert set(states) == set(iet.language(MAX_LEN)) and empty


def shortest_first(iet, max_len):
    return sorted((w for w in iet.language(max_len) if w), key=lambda w: (len(w), iet.alphabet.key(w)))


@settings(max_examples=30, deadline=None)
@given(regular_instances)
def test_a_resumed_trace_keeps_the_state_of_the_walk_from_the_instance(iet):
    traces = {}
    for w in shortest_first(iet, 6):
        try:
            traces[w] = trace = induce_to_cylinder(iet, w, start=traces.get(w[:-1]))
            fresh = induce_to_cylinder(iet, w)
        except InductionCapError:
            continue
        assert trace.word == fresh.word == w
        assert trace.cylinder == fresh.cylinder == iet._cylinder_rule(w), w
        assert as_interval(iet, trace.cylinder) == trace.final.domain == iet.cylinder(w)


def test_a_start_whose_word_is_no_prefix_reads_the_word_from_the_domain(monkeypatch):
    golden = parse_iet_file(str(DATA / "golden.iet"))
    words = shortest_first(golden, 4)
    # A word with one right extension has its extension's cylinder, so the
    # extension's trace is a start for it whose word is not a prefix.
    w = next(u for u in words if len(u) < 4 and sum(v[:-1] == u for v in words) == 1)
    start = induce_to_cylinder(golden, next(v for v in words if v[:-1] == w))
    read = []
    rule = type(golden)._cylinder_rule
    monkeypatch.setattr(type(golden), "_cylinder_rule", lambda self, u, state=None: read.append((u, state)) or rule(self, u, state))
    trace = induce_to_cylinder(golden, w, start=start)
    assert read == [(w, None)]
    assert trace.word == w and trace.cylinder == golden._cylinder_rule(w)
    assert trace.steps == start.steps and trace.theta is start.theta


def test_refusals_keep_their_order_and_never_read_a_foreign_state():
    golden = parse_iet_file(str(DATA / "golden.iet"))
    foreign = induce_to_cylinder(parse_iet_file(str(DATA / "sqrt2_4.iet")), "a")
    outside = next(w + c for w in shortest_first(golden, 3) for c in "abc" if golden.cylinder(w + c) == EMPTY)
    # A foreign start whose word prefixes every word, with a state that
    # raises TypeError when it is read.
    unreadable = replace(foreign, word="", cylinder=object())
    for start in (foreign, unreadable):
        with pytest.raises(ValueError, match="'z' is not in alphabet"):
            induce_to_cylinder(golden, "az", start=start)
        with pytest.raises(ValueError, match=f"{outside!r} is not in the language"):
            induce_to_cylinder(golden, outside, start=start)
        with pytest.raises(ValueError, match="another transformation"):
            induce_to_cylinder(golden, "a", start=start)
