import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

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
from ietkit.rauzy import InductionCapError, LEFT, RIGHT, TOP_LONGER, TOP_SHORTER, _contains, _step, _verify_induced
from test_iet_lattice import instances


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


# -- the whole-piece certificate against the check it shortens -------------------


def oracle_check(base, induced):
    """The step check before kept pieces were certified whole: every piece's
    left end is followed by ``first_return``, and must land at that end plus
    its translation within two base steps."""
    (base_R, base_d, outer, _), (R, d, bounds, rows) = base._grid, induced._grid
    if not _contains(outer, base_R, bounds, R, d or base_d):
        raise AssertionError("induced domain escapes the base domain")
    sub = induced.domain
    for (P, Q), (c, _, _, tp, tq) in zip(bounds, rows):
        landing, steps = base.first_return(sub, QuadNum(P, Q, R, d), cap=4)
        if steps > 2 or landing.p * R != (P + tp) * landing.r or landing.q * R != (Q + tq) * landing.r:
            raise AssertionError(f"induced map disagrees with first return on piece {c!r}")


def outcome(check, base, induced):
    """``(error, followed)``: the type and message of what ``check`` raised, or
    None when it accepts, and the points it handed to ``Iet.first_return``."""
    followed, real = [], Iet.first_return

    def recorded(self, sub, z, cap=10_000):
        followed.append(z)
        return real(self, sub, z, cap)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Iet, "first_return", recorded)
        try:
            check(base, induced)
        except Exception as error:
            return (type(error), str(error)), followed
    return None, followed


def assert_step_checked_like_the_oracle(base, induced, record):
    """The step is accepted after one first return, on the moved letter's
    left end, and both checks give the same verdict on each of its wrong maps."""
    moved = record.partner_letter if record.case == TOP_LONGER else record.pivot_letter
    assert outcome(oracle_check, base, induced) == (None, [induced.interval(c).left for c in induced.alphabet])
    assert outcome(_verify_induced, base, induced) == (None, [induced.interval(moved).left])
    for wrong in wrong_maps(induced):
        assert outcome(_verify_induced, base, wrong)[0] == outcome(oracle_check, base, wrong)[0]


@pytest.mark.parametrize("name", ["golden.iet", "sqrt2_4.iet", "sqrt2_even.iet"])
def test_every_walk_step_is_checked_like_the_oracle(name):
    iet = parse_iet_file(str(pathlib.Path(__file__).parent / "data" / name))
    words = sorted((w for w in iet.language(8) if w), key=lambda w: (len(w), w))
    traces, checked = {}, 0
    for w in words:
        start = traces.get(w[:-1])
        traces[w] = trace = induce_to_cylinder(iet, w, start=start)
        for k in range(len(start.steps) if start else 0, len(trace.steps)):
            assert_step_checked_like_the_oracle(trace.states[k], trace.states[k + 1], trace.steps[k])
            checked += 1
    assert checked > 50


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_steps_are_checked_like_the_oracle(data):
    iet = data.draw(instances)
    if not iet.permutation.is_irreducible:
        return
    for kind in data.draw(st.lists(st.sampled_from([RIGHT, LEFT]), max_size=8)):
        try:
            induced, record = _step(iet, kind)
        except ZeroConnectionError:
            return
        assert_step_checked_like_the_oracle(iet, induced, record)
        iet = induced


SQRT2_4 = parse_iet_file(str(pathlib.Path(__file__).parent / "data" / "sqrt2_4.iet"))


def test_a_domain_cut_a_sliver_past_the_cut_is_refused():
    """The base map on its domain cut 1/R past the right step's cut (d is
    longer than a, the last image letter), with no letter moved: a grid no
    placement makes.  Every piece lies in its base piece with its base
    translation, but a's image lies outside the new domain, so only the image
    test sends a to first_return, which comes back in two steps elsewhere."""
    R, d, bounds, rows = SQRT2_4._grid
    (ap, aq), (zp, zq) = SQRT2_4._lens["a"], bounds[-1]
    end = (zp - ap - 1, zq - aq)
    cut = Iet.__new__(Iet)
    cut._grid = (R, d, (*bounds[:-1], end), (*rows[:-1], (rows[-1][0], *end, *rows[-1][3:])))
    refused = (AssertionError, "induced map disagrees with first return on piece 'a'")
    assert outcome(_verify_induced, SQRT2_4, cut)[0] == outcome(oracle_check, SQRT2_4, cut)[0] == refused


def test_a_piece_past_its_base_piece_is_refused():
    """On [0, 5) the base has pieces a, b, c, d of lengths 1, 2, 1, 1 and
    image order b, d, c, a.  The wrong map puts b's piece at [3, 5), past b's
    base piece [1, 3), with b's translation -1 and its image [2, 4) in the
    domain.  a is certified whole and the left ends of d and c return where
    the map says, so only the right-end test sends b to first_return, which
    lands at 3, not 2."""
    base = Iet(OrderedAlphabet("abcd"), Permutation.from_one_line_letters("bdca", OrderedAlphabet("abcd")),
               {"a": 1, "b": 2, "c": 1, "d": 1})
    order = OrderedAlphabet("adcb")
    wrong = Iet(order, Permutation.from_one_line_letters("dcba", order), {"a": 1, "d": 1, "c": 1, "b": 2})
    assert (wrong.interval("b"), wrong.translation("b")) == (Interval(QuadNum(3), QuadNum(5)), base.translation("b"))
    refused = (AssertionError, "induced map disagrees with first return on piece 'b'")
    error, followed = outcome(_verify_induced, base, wrong)
    assert (error, followed) == (refused, [QuadNum(1), QuadNum(2), QuadNum(3)])
    assert outcome(oracle_check, base, wrong)[0] == refused


# On [0, 5): pieces a, b, c, d of lengths 1, 2, 1, 1 and image order b, d, c,
# a, so translations 4, -1, 0 and -2.
BDCA = Iet(OrderedAlphabet("abcd"), Permutation.from_one_line_letters("bdca", OrderedAlphabet("abcd")),
           {"a": 1, "b": 2, "c": 1, "d": 1})


def on_the_base_lattice(base, cuts, letters):
    """A hand-set grid on the lattice of the rational ``base``: one piece per
    letter between consecutive integer ``cuts``, each with its letter's base
    translation."""
    R, d, _, rows = base._grid
    tau = {row[0]: row[3:] for row in rows}
    bounds = tuple((R * x, 0) for x in cuts)
    out = Iet.__new__(Iet)
    out._grid = (R, d, bounds, tuple((c, *right, *tau[c]) for c, right in zip(letters, bounds[1:])))
    return out


def test_a_kept_piece_starting_before_its_base_piece_is_refused():
    """c's piece [2, 4) ends in its base piece [3, 4), with its translation 0
    and its image in the domain, but starts in b's base piece.  Only the
    left-end test sends c to first_return, which lands at 1, not 2."""
    wrong = on_the_base_lattice(BDCA, (0, 1, 2, 4, 5), "abcd")
    refused = (AssertionError, "induced map disagrees with first return on piece 'c'")
    assert outcome(_verify_induced, BDCA, wrong) == (refused, [QuadNum(2)])
    assert outcome(oracle_check, BDCA, wrong)[0] == refused


def test_a_kept_piece_whose_image_starts_before_the_domain_is_refused():
    """On the domain [1, 5), b's piece is its base piece [1, 3) with its
    translation -1, but its image [0, 2) starts left of the domain.  Only the
    image's left-end test sends b to first_return, which comes back at 4 in
    two steps, not at 0."""
    wrong = on_the_base_lattice(BDCA, (1, 3, 4, 5), "bcd")
    refused = (AssertionError, "induced map disagrees with first return on piece 'b'")
    assert outcome(_verify_induced, BDCA, wrong) == (refused, [QuadNum(1)])
    assert outcome(oracle_check, BDCA, wrong)[0] == refused


def test_the_same_pairs_over_another_radicand_are_followed_and_refused():
    """The base map read over sqrt(3): the same lattice pairs and the same R,
    so each piece would pass the whole-piece test on the pairs.  Only the
    radicand guard sends it to first_return, which refuses two radicands."""
    over3 = Iet(SQRT2_4.alphabet, SQRT2_4.permutation,
                {c: QuadNum(v.p, v.q, v.r, 3) for c, v in SQRT2_4.lengths.items()})
    assert over3._grid[0] == SQRT2_4._grid[0] and over3._grid[2:] == SQRT2_4._grid[2:]
    _verify_induced(SQRT2_4, SQRT2_4)
    error = outcome(_verify_induced, SQRT2_4, over3)[0]
    assert error[0] is ValueError and "mismatched radicands" in error[1]
    assert outcome(oracle_check, SQRT2_4, over3)[0] == error


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

