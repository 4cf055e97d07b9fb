import itertools
import pathlib

import pytest

from ietkit import (
    Interval,
    Iet,
    OrderedAlphabet,
    Permutation,
    QuadNum,
    ZeroConnectionError,
    clustering_report,
    induce_to_cylinder,
    rauzy_left,
    rauzy_right,
    return_words_induction,
    step_morphism,
)
from ietkit.instance import parse_iet_file
from ietkit.rauzy import InductionCapError, LEFT, RIGHT, TOP_LONGER, TOP_SHORTER, _step, _verify_induced


def q(p, q_=0, r=1):
    return QuadNum(p, q_, r, 5)


# Exact endpoints of the five states of the golden run onto the cylinder of "b",
# written as (alphabet, image order, {letter: (left, right)}).
GOLDEN_RUN = [
    ("abc", "bca", {"a": (q(0), q(-2, 1)), "b": (q(-2, 1), q(-1, 1, 2)), "c": (q(-1, 1, 2), q(1))}),
    ("abc", "bca", {"a": (q(0), q(-2, 1)), "b": (q(-2, 1), q(-1, 1, 2)), "c": (q(-1, 1, 2), q(3, -1))}),
    ("acb", "bca", {"a": (q(0), q(-11, 5, 2)), "c": (q(-11, 5, 2), q(-2, 1)), "b": (q(-2, 1), q(-1, 1, 2))}),
    ("cab", "bca", {"c": (q(-11, 5, 2), q(-2, 1)), "a": (q(-2, 1), q(-15, 7, 2)), "b": (q(-15, 7, 2), q(-1, 1, 2))}),
    ("acb", "bca", {"a": (q(-2, 1), q(-15, 7, 2)), "c": (q(-15, 7, 2), q(-4, 2)), "b": (q(-4, 2), q(-1, 1, 2))}),
]


def assert_state(iet, alphabet_text, image_text, pieces):
    assert str(iet.alphabet) == alphabet_text
    assert "".join(iet.image_order_letters()) == image_text
    for letter, (left, right) in pieces.items():
        assert iet.interval(letter) == Interval(left, right), letter


class TestSingleSteps:
    def test_first_right_step(self, golden):
        nxt, record = rauzy_right(golden)
        assert (record.kind, record.case) == (RIGHT, TOP_LONGER)
        assert (record.pivot_letter, record.partner_letter) == ("c", "a")
        assert record.post_alphabet == record.pre_alphabet
        assert nxt.length("c") == q(7, -3, 2)
        assert nxt.permutation == golden.permutation
        assert_state(nxt, *GOLDEN_RUN[1])

    def test_second_right_step_reorders_alphabet(self, golden):
        nxt, _ = rauzy_right(golden)
        nxt, record = rauzy_right(nxt)
        assert (record.kind, record.case) == (RIGHT, TOP_SHORTER)
        assert (record.pivot_letter, record.partner_letter) == ("c", "a")
        assert str(record.post_alphabet) == "acb"
        assert_state(nxt, *GOLDEN_RUN[2])

    def test_left_steps(self, golden):
        state = golden
        for _ in range(2):
            state, _ = rauzy_right(state)
        state, record = rauzy_left(state)
        assert (record.kind, record.case) == (LEFT, TOP_SHORTER)
        assert (record.pivot_letter, record.partner_letter) == ("a", "b")
        assert str(record.post_alphabet) == "cab"
        assert_state(state, *GOLDEN_RUN[3])

        state, record = rauzy_left(state)
        assert (record.pivot_letter, record.partner_letter) == ("c", "b")
        assert_state(state, *GOLDEN_RUN[4])
        assert state.domain == golden.cylinder("b")

    def test_equal_lengths_refused_right(self, abc):
        iet = Iet(abc, Permutation.from_one_line_letters("bca", abc), {"a": 2, "b": 3, "c": 3})
        # pivot c and partner a have lengths 3 and 2: fine; make them equal instead
        iet = Iet(abc, Permutation.from_one_line_letters("bca", abc), {"a": 3, "b": 1, "c": 3})
        with pytest.raises(ZeroConnectionError):
            rauzy_right(iet)

    def test_equal_lengths_refused_left(self, abc):
        iet = Iet(abc, Permutation.from_one_line_letters("bca", abc), {"a": 2, "b": 2, "c": 5})
        with pytest.raises(ZeroConnectionError):
            rauzy_left(iet)

    def test_reducible_refused(self, abc):
        iet = Iet(abc, Permutation.from_one_line_letters("bac", abc), {"a": 1, "b": 2, "c": 4})
        for step in (rauzy_right, rauzy_left):
            with pytest.raises(ValueError, match="^induction needs an irreducible permutation$"):
                step(iet)

    def test_one_interval_refused(self):
        one = Iet(OrderedAlphabet("a"), Permutation([0]), {"a": 1})
        for step in (rauzy_right, rauzy_left):
            with pytest.raises(ValueError, match="^induction needs at least two intervals$"):
                step(one)

    def test_left_top_longer_update(self):
        # Pivot a longer than partner b: alphabet fixed, partner re-inserted
        # before the pivot in image order, origin advances by the partner length.
        abc = OrderedAlphabet("abc")
        iet = Iet(abc, Permutation.from_one_line_letters("bca", abc), {"a": 5, "b": 2, "c": 4})
        nxt, record = rauzy_left(iet)
        assert (record.kind, record.case) == (LEFT, TOP_LONGER)
        assert (record.pivot_letter, record.partner_letter) == ("a", "b")
        assert record.post_alphabet == abc
        assert nxt.origin == QuadNum(2)
        assert nxt.length("a") == QuadNum(3)
        assert nxt.image_order_letters() == ("c", "b", "a")


class TestStepMorphisms:
    def test_golden_table(self, golden):
        trace = induce_to_cylinder(golden, "b")
        images = []
        for record in trace.steps:
            morphism = step_morphism(record)
            moved = [c for c in morphism.source if morphism.images[c] != c]
            images.append((moved[0], morphism.images[moved[0]]))
        assert images == [("a", "ac"), ("c", "ac"), ("a", "ba"), ("c", "bc")]

    def test_source_and_target_track_alphabets(self, golden):
        trace = induce_to_cylinder(golden, "b")
        for record in trace.steps:
            morphism = step_morphism(record)
            assert morphism.source == record.post_alphabet
            assert morphism.target == record.pre_alphabet


class TestInduceToCylinder:
    def test_golden_b_run(self, golden):
        trace = induce_to_cylinder(golden, "b")
        assert [r.kind for r in trace.steps] == [RIGHT, RIGHT, LEFT, LEFT]
        assert [r.case for r in trace.steps] == [
            TOP_LONGER,
            TOP_SHORTER,
            TOP_SHORTER,
            TOP_SHORTER,
        ]
        assert trace.final.domain == golden.cylinder("b")
        for state, expected in zip(trace.states, GOLDEN_RUN):
            assert_state(state, *expected)
        assert {c: trace.theta(c) for c in trace.theta.source} == {
            "a": "bac",
            "b": "b",
            "c": "bacc",
        }

    def test_empty_word_is_identity(self, golden):
        trace = induce_to_cylinder(golden, "")
        assert trace.steps == ()
        assert trace.final == golden
        assert all(trace.theta(c) == c for c in golden.alphabet)

    def test_single_letter_a(self, golden):
        trace = induce_to_cylinder(golden, "a")
        assert trace.final.domain == golden.cylinder("a")
        words = frozenset(trace.theta(c) for c in trace.theta.source)
        assert words == golden.return_words_scan("a")

    def test_unknown_factor_rejected(self, golden):
        with pytest.raises(ValueError):
            induce_to_cylinder(golden, "ab")

    def test_cap_exhaustion(self, golden):
        with pytest.raises(InductionCapError):
            induce_to_cylinder(golden, "b", cap=2)

    def test_branch_choice_does_not_change_the_final_map(self, golden):
        # First returns to a fixed interval are unique, so both search
        # preferences must land on the same map (labels may differ, since
        # the letter reused for a split piece depends on the path taken).
        def pieces(iet):
            return sorted(
                (iet.interval(c).left, iet.interval(c).right, iet.translation(c))
                for c in iet.alphabet
            )

        for w in sorted(golden.language(4)):
            right_first = induce_to_cylinder(golden, w)
            left_first = induce_to_cylinder(golden, w, prefer_left=True)
            assert pieces(right_first.final) == pieces(left_first.final)
            # And the return words do not depend on the path at all.
            right_words = {right_first.theta(c) for c in right_first.theta.source}
            left_words = {left_first.theta(c) for c in left_first.theta.source}
            assert right_words == left_words

    def test_domains_shrink_and_contain_target(self, golden):
        trace = induce_to_cylinder(golden, "bb")
        target = golden.cylinder("bb")
        previous = None
        for state in trace.states:
            assert state.domain.contains_interval(target)
            if previous is not None:
                assert previous.contains_interval(state.domain)
                assert previous != state.domain
            previous = state.domain


class TestReturnWords:
    def test_golden_b(self, golden):
        assert return_words_induction(golden, "b") == {"bac", "b", "bacc"}

    def test_images_are_clustering(self, golden):
        for u in return_words_induction(golden, "b"):
            report = clustering_report(u, golden.alphabet)
            assert report.is_clustering

    def test_agrees_with_scan_on_short_factors(self, golden):
        for w in sorted(golden.language(4)):
            if not w:
                continue
            assert return_words_induction(golden, w) == golden.return_words_scan(w)

    def test_return_word_contract(self, golden):
        # u is a return word of w when uw starts and ends with w and has no
        # other occurrence of w inside.
        sample = golden.language(14)
        for w in ("b", "cb", "ac"):
            for u in return_words_induction(golden, w):
                full = u + w
                occurrences = [
                    i for i in range(len(full) - len(w) + 1) if full[i : i + len(w)] == w
                ]
                assert occurrences == [0, len(u)]
                if len(full) <= 14:
                    assert full in sample


def wrong_maps(induced):
    """Every other image order on the same pieces, then every move of 1/1000
    of a piece's length to an alphabet neighbour."""
    alphabet, lengths = induced.alphabet, induced.lengths
    right = induced.image_order_letters()
    for image in itertools.permutations(alphabet.letters):
        if image != right:
            yield Iet(alphabet, Permutation(alphabet.rank(c) for c in image), lengths, induced.origin)
    for a, b in itertools.pairwise(alphabet.letters):
        for grow, shrink in ((a, b), (b, a)):
            moved = dict(lengths)
            eps = moved[shrink] * QuadNum(1, 0, 1000)
            moved[grow] += eps
            moved[shrink] -= eps
            yield Iet(alphabet, induced.permutation, moved, induced.origin)


@pytest.mark.parametrize("kind", [RIGHT, LEFT])
def test_step_check_rejects_every_wrong_map(kind):
    base = parse_iet_file(str(pathlib.Path(__file__).parent / "data" / "sqrt2_4.iet"))
    induced, _ = _step(base, kind)
    _verify_induced(base, induced)
    wrong = list(wrong_maps(induced))
    assert len(wrong) == 23 + 6
    for iet in wrong:
        with pytest.raises(AssertionError, match="disagrees with first return"):
            _verify_induced(base, iet)


# The reducible exchange abc with image order b, a, c and lengths 1, 2, 4.  A
# walk tests irreducibility only before its first step, once a side is
# chosen, so a word no step keeps still fails as a connection.
REDUCIBLE = Iet(
    OrderedAlphabet("abc"), Permutation.from_one_line_letters("bac", OrderedAlphabet("abc")), {"a": 1, "b": 2, "c": 4}
)
NO_STEP = "no step keeps the cylinder of {!r} inside the domain (steps taken: 0); the transformation has a connection"
REDUCIBLE_OUTCOMES = {
    "": None,
    **{w: (InductionCapError, NO_STEP.format(w)) for w in ("a", "ab", "abb")},
    **{w: (ValueError, "induction needs an irreducible permutation")
       for w in ("b", "c", "ba", "bb", "cc", "bab", "bba", "ccc")},
}


def test_the_table_covers_the_reducible_language():
    assert not REDUCIBLE.permutation.is_irreducible
    assert set(REDUCIBLE_OUTCOMES) == REDUCIBLE.language(3)


@pytest.mark.parametrize("w", sorted(REDUCIBLE_OUTCOMES, key=lambda w: (len(w), w)))
def test_reducible_input_fails_in_the_same_order(w):
    expected = REDUCIBLE_OUTCOMES[w]
    if expected is None:
        trace = induce_to_cylinder(REDUCIBLE, w)
        assert (trace.steps, trace.states, trace.final) == ((), (REDUCIBLE,), REDUCIBLE)
        return
    error, message = expected
    with pytest.raises(error) as caught:
        induce_to_cylinder(REDUCIBLE, w)
    assert str(caught.value) == message

