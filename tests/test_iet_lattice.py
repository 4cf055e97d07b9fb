"""The lattice loops of ``Iet`` checked against their QuadNum forms.

``trajectory``, ``check_keane``, ``return_words_scan``, ``first_return``,
``language`` and ``cylinder`` step integer lattice coordinates, and the
orbit loops among them read ``_K`` letters per step from a table of
cylinders.  The oracles below are the same loops on :class:`QuadNum`
values, one letter at a time, as they were written before the lattice,
reading only the public piece data of the instance.  The image-order
refinement and the block table with its successor ranges are checked against
the cylinder-order refinement they replaced and a linear QuadNum search.  Rauzy states, born on
the lattice of their instance, are checked against the exchanges built from
their QuadNum values.  Inputs at and around the block length sit beside the
random ones.
"""

import pathlib
from itertools import accumulate

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ietkit import Iet, OrderedAlphabet, Permutation, QuadNum  # noqa: E402
from ietkit.arith import _lt  # noqa: E402
from ietkit.cli import parse_iet_file  # noqa: E402
from ietkit.iet import (  # noqa: E402
    _K, EMPTY, CapExceededError, Connection, IncompleteScanError, Interval, KeaneVerdict,
)
from ietkit.rauzy import RIGHT, InductionCapError, induce_to_cylinder, rauzy_left, rauzy_right  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
FILES = {name: parse_iet_file(str(DATA / name)) for name in ("golden.iet", "sqrt2_4.iet")}


# -- QuadNum oracles -------------------------------------------------------------


def rows(iet: Iet):
    return [(c, iet.interval(c).left, iet.interval(c).right, iet.translation(c)) for c in iet.alphabet]


def trajectory_oracle(iet: Iet, x: QuadNum, n: int) -> str:
    out = []
    for _ in range(n):
        c = iet.letter_at(x)
        out.append(c)
        x = x + iet.translation(c)
    return "".join(out)


def check_keane_oracle(iet: Iet, depth: int) -> KeaneVerdict:
    d_map, d_inv = iet.discontinuities()
    targets = set(d_map)
    for x in d_inv:
        y = x
        for n in range(depth + 1):
            if y in targets:
                return KeaneVerdict(regular_to_depth=n - 1, failure=Connection(x, y, n))
            if n < depth:
                y = iet.apply(y)
    return KeaneVerdict(regular_to_depth=depth)


def cylinder_oracle(iet: Iet, w: str) -> Interval:
    lo, hi = iet.domain.left, iet.domain.right
    shift = 0
    for c in w:
        left, right = iet.interval(c).left, iet.interval(c).right
        if left > lo:
            lo = left
        if right < hi:
            hi = right
        if lo >= hi:
            return EMPTY
        tau = iet.translation(c)
        lo, hi, shift = lo + tau, hi + tau, tau + shift
    return Interval(lo - shift, hi - shift)


def language_oracle(iet: Iet, n: int) -> set[str]:
    words = {""}
    level = [("", iet.domain.left, iet.domain.right)]
    for _ in range(n):
        next_level = []
        for w, lo, hi in level:
            for c, left, right, tau in rows(iet):
                if right <= lo:
                    continue
                if hi <= left:
                    break
                a = left if left > lo else lo
                b = right if right < hi else hi
                next_level.append((w + c, a + tau, b + tau))
        words.update(w for w, _, _ in next_level)
        level = next_level
    return words


def scan_oracle(iet: Iet, w: str, horizon: int) -> frozenset[str]:
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    x = cylinder_oracle(iet, w).midpoint()
    k, expected = len(w), iet.d
    found: set[str] = set()
    trail: list[str] = []
    prev_start = None
    for step in range(horizon):
        c = iet.letter_at(x)
        x = x + iet.translation(c)
        trail.append(c)
        if c == w[-1] and len(trail) >= k and "".join(trail[-k:]) == w:
            start = step - k + 1
            if prev_start is not None:
                found.add("".join(trail[prev_start:start]))
                if len(found) >= expected:
                    return frozenset(found)
            prev_start = start
    raise IncompleteScanError(
        f"horizon {horizon} exhausted with {len(found)} of {expected} return words for {w!r}",
        frozenset(found),
    )


def first_return_oracle(iet: Iet, sub: Interval, z: QuadNum, cap: int) -> tuple[QuadNum, int]:
    if cap <= 0:
        raise ValueError("cap must be positive")
    if not iet.domain.contains_interval(sub) or sub.is_empty:
        raise ValueError("the return interval must be a nonempty part of the domain")
    if not sub.contains(z):
        raise ValueError(f"point {z} is not in the return interval {sub}")
    y = iet.apply(z)
    steps = 1
    while not sub.contains(y):
        if steps >= cap:
            raise CapExceededError(f"no return to {sub} within {cap} steps from {z}")
        y = iet.apply(y)
        steps += 1
    return y, steps


def same_outcome(fast, slow):
    """Both calls return equal values, or raise the same error with the same
    message (and the same words, for an incomplete scan)."""
    try:
        expected = slow()
    except (ValueError, IncompleteScanError, CapExceededError) as exc:
        with pytest.raises(type(exc)) as caught:
            fast()
        assert str(caught.value) == str(exc)
        assert getattr(caught.value, "words", None) == getattr(exc, "words", None)
        return None
    got = fast()
    assert got == expected
    return got


# -- instances and points ----------------------------------------------------------


@st.composite
def rational_iets(draw) -> Iet:
    """Random rational exchanges with a nonzero origin."""
    d = draw(st.integers(2, 4))
    alphabet = OrderedAlphabet("abcd"[:d])
    order = draw(st.permutations(range(d)))
    lengths = {c: QuadNum(draw(st.integers(1, 9)), 0, draw(st.integers(1, 6))) for c in alphabet}
    origin = QuadNum(draw(st.integers(-5, 5).filter(bool)), 0, draw(st.integers(1, 4)))
    return Iet(alphabet, Permutation(order), lengths, origin)


# An irrational exchange with a nonzero origin whose alphabet order is not the
# code-point order of its letters, so that sorting words by code point and by
# the alphabet's key differ.
SHUFFLED = Iet(OrderedAlphabet("cadb"), Permutation.symmetric(4),
               {"c": QuadNum(-1, 2, 3, 2), "a": QuadNum(0, 3, 5, 2), "d": QuadNum(1, 2, 3, 2),
                "b": QuadNum(4, -1, 3, 2)}, QuadNum(1, 0, 2))
FIXED = {**FILES, "shuffled": SHUFFLED}

instances = st.one_of(st.sampled_from(sorted(FIXED)).map(FIXED.get), rational_iets())


@st.composite
def points(draw, iet: Iet) -> QuadNum:
    """A point of the domain, with denominators that need not divide the
    instance's, or a literal point that may fall outside it."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 13))
        frac = QuadNum(draw(st.integers(0, m - 1)), 0, m)
        return iet.domain.left + (iet.domain.right - iet.domain.left) * frac
    d = iet.radicand
    return QuadNum(draw(st.integers(-12, 12)), draw(st.integers(-3, 3)) if d else 0, draw(st.integers(1, 11)), d)


# -- differential tests ------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trajectory_matches_quadnum_steps(data):
    iet = data.draw(instances)
    x = data.draw(points(iet))
    n = data.draw(st.integers(0, 300))
    same_outcome(lambda: iet.trajectory(x, n), lambda: trajectory_oracle(iet, x, n))


def test_trajectory_from_a_point_off_the_instance_lattice():
    golden = FILES["golden.iet"]
    x = QuadNum(1, 0, 7)
    assert golden.trajectory(x, 500) == trajectory_oracle(golden, x, 500)
    assert golden.trajectory(x, 0) == ""
    # A zero-length trajectory reads no letter, so it checks nothing.
    assert golden.trajectory(QuadNum(5), 0) == ""


# A rational exchange with a nonzero origin, in the strategy's terms.
RATIONAL = Iet(OrderedAlphabet("abcd"), Permutation([2, 0, 1, 3]),
               {"a": QuadNum(6), "b": QuadNum(6, 0, 4), "c": QuadNum(7, 0, 5), "d": QuadNum(5, 0, 3)},
               QuadNum(-1, 0, 2))
BLOCK_EDGES = (0, 1, _K - 1, _K, _K + 1, 163)


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("name", ["golden.iet", "sqrt2_4.iet", "rational"])
def test_trajectory_at_block_edges(name, n):
    iet = FILES.get(name, RATIONAL)
    domain = iet.domain
    for x in (domain.left, QuadNum(1, 0, 7), domain.midpoint(), domain.right - QuadNum(1, 0, 1000)):
        if domain.contains(x):
            assert iet.trajectory(x, n) == trajectory_oracle(iet, x, n)


# Rational exchanges whose first connection is at n = K - 1, K and K + 1,
# found by searching random ones with the oracle.
CONNECTED = {
    _K - 1: Iet(OrderedAlphabet("abcd"), Permutation([1, 0, 2, 3]),
                {"a": QuadNum(6, 0, 5), "b": QuadNum(9), "c": QuadNum(1, 0, 4), "d": QuadNum(3, 0, 2)},
                QuadNum(1)),
    _K: Iet(OrderedAlphabet("abcd"), Permutation([2, 0, 1, 3]),
            {"a": QuadNum(6), "b": QuadNum(6, 0, 4), "c": QuadNum(7, 0, 5), "d": QuadNum(5, 0, 3)},
            QuadNum(-1, 0, 2)),
    _K + 1: Iet(OrderedAlphabet("ab"), Permutation([1, 0]),
                {"a": QuadNum(6, 0, 5), "b": QuadNum(8, 0, 6)}, QuadNum(2)),
}


@pytest.mark.parametrize("n", sorted(CONNECTED))
def test_check_keane_with_a_connection_at_a_block_edge(n):
    iet = CONNECTED[n]
    assert check_keane_oracle(iet, 10 * _K).failure.n == n
    for depth in (n - 1, n):
        verdict = iet.check_keane(depth)
        expected = check_keane_oracle(iet, depth)
        assert verdict == expected
        if expected.failure is not None:
            assert verdict.failure.y.literal() == expected.failure.y.literal()
    assert not iet.check_keane(n).is_regular


@settings(max_examples=100, deadline=None)
@given(instances, st.integers(0, 10 * _K))
def test_check_keane_matches_quadnum_orbits(iet, depth):
    verdict = iet.check_keane(depth)
    assert verdict == check_keane_oracle(iet, depth)
    if verdict.failure is not None:
        y = verdict.failure.y
        assert y.literal() == check_keane_oracle(iet, depth).failure.y.literal()
        assert y in iet.discontinuities()[0]


def test_rational_exchanges_report_their_connections():
    """Rational exchanges are periodic, so a deep check finds a connection;
    the lattice finds the same one, ``y`` literal included."""
    iet = Iet(OrderedAlphabet("abc"), Permutation([2, 1, 0]),
              {"a": QuadNum(3, 0, 2), "b": QuadNum(1), "c": QuadNum(5, 0, 4)}, QuadNum(-7, 0, 3))
    verdict = iet.check_keane(200)
    expected = check_keane_oracle(iet, 200)
    assert not verdict.is_regular
    assert verdict == expected
    assert (verdict.failure.x.literal(), verdict.failure.y.literal()) == (
        expected.failure.x.literal(), expected.failure.y.literal()
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_return_words_scan_matches_quadnum_scan(data):
    iet = data.draw(instances)
    words = sorted(w for w in iet.language(4) if w)
    w = data.draw(st.sampled_from(words))
    horizon = data.draw(st.integers(0, 400))
    same_outcome(lambda: iet.return_words_scan(w, horizon=horizon), lambda: scan_oracle(iet, w, horizon))


@pytest.mark.parametrize("name, w", [
    ("golden.iet", "cb"), ("golden.iet", "cbbac"), ("sqrt2_4.iet", "cb"), ("sqrt2_4.iet", "cbcc"),
    ("sqrt2_4.iet", "cbccb"), ("rational", "ab"),
])
def test_scan_horizons_at_block_edges_and_cut_occurrences(name, w):
    """Horizons that are not multiples of the block length, and horizons
    that end inside, or just after, an occurrence of ``w`` that straddles a
    block edge."""
    iet = FILES.get(name, RATIONAL)
    k = len(w)
    text = trajectory_oracle(iet, cylinder_oracle(iet, w).midpoint(), 40 * _K)
    starts = [s for s in range(len(text) - k + 1) if text.startswith(w, s)]
    straddling = [s for s in starts if s // _K != (s + k - 1) // _K]
    assert straddling
    horizons = {_K + 1, 2 * _K - 1, 3 * _K + 5, 40 * _K}
    for s in starts[:12] + straddling[:6]:
        horizons.update((s + k - 1, s + k))
    for horizon in sorted(horizons):
        same_outcome(lambda: iet.return_words_scan(w, horizon=horizon), lambda: scan_oracle(iet, w, horizon))


# -- the block table against the cylinder-order refinement it replaced ------------


def refine_oracle(iet: Iet, level: list[tuple]) -> list[tuple]:
    """One step of the cylinder-order refinement: entries ``(w, lp, lq, hp,
    hq)`` hold the whole image ``[lo, hi)`` of a word's cylinder, each word
    is tested against every piece, and children follow their parent's
    order, which is the order of their cylinders."""
    _, d, _, rows = iet._grid
    next_level = []
    for w, lp, lq, hp, hq in level:
        for c, rp, rq, tp, tq in rows:
            if not _lt(lp - rp, lq - rq, d):
                continue
            if not _lt(rp - hp, rq - hq, d):
                next_level.append((w + c, lp + tp, lq + tq, hp + tp, hq + tq))
                break
            next_level.append((w + c, lp + tp, lq + tq, rp + tp, rq + tq))
            lp, lq = rp, rq
    return next_level


def oracle_levels(iet: Iet, n: int) -> list[list[tuple]]:
    """Levels 0..n of the cylinder-order refinement."""
    bounds = iet._grid[2]
    levels = [[("", *bounds[0], *bounds[-1])]]
    for _ in range(n):
        levels.append(refine_oracle(iet, levels[-1]))
    return levels


def table_oracle(iet: Iet) -> tuple[list, ...]:
    """``(lefts P, lefts Q, words, shifts, steps)`` from the cylinder-order
    level ``_K``, read as the block table was read before it had ranges."""
    tau = {c: (tp, tq) for c, _, _, tp, tq in iet._grid[3]}
    lefts_p, lefts_q, words, shifts, steps = [], [], [], [], []
    for w, lp, lq, _, _ in oracle_levels(iet, _K)[-1]:
        sp = sq = 0
        prefix = []
        for c in w:
            prefix.append((sp, sq))
            sp, sq = sp + tau[c][0], sq + tau[c][1]
        lefts_p.append(lp - sp)
        lefts_q.append(lq - sq)
        words.append(w)
        shifts.append((sp, sq))
        steps.append(tuple(prefix))
    return lefts_p, lefts_q, words, shifts, steps


@settings(max_examples=60, deadline=None)
@given(instances)
def test_each_level_is_the_old_one_in_image_order(iet):
    R, d = iet._grid[:2]
    level = [("", *iet._grid[2][0])]
    for old in oracle_levels(iet, _K + 2)[1:]:
        level = iet._refine(level)
        images = sorted(((w, lp, lq) for w, lp, lq, _, _ in old), key=lambda e: QuadNum(e[1], e[2], R, d))
        assert level == images


@pytest.mark.parametrize("name", sorted(FIXED) + ["rational"])
def test_block_table_matches_the_old_table(name):
    iet = FIXED.get(name, RATIONAL)
    table = iet._blocks()
    assert len(table) == 6
    for field, expected in zip(table, table_oracle(iet)):
        assert field == expected


def sorted_table_oracle(iet: Iet) -> tuple[list, ...]:
    """The block table with level ``_K`` of the image-order refinement put
    in alphabet order by sorting its words with the alphabet's key."""
    _, d, bounds, rows = iet._grid
    level = [("", *bounds[0])]
    for _ in range(_K):
        level = iet._refine(level)
    tau = {c: (tp, tq) for c, _, _, tp, tq in rows}
    order = sorted(range(len(level)), key=lambda m: iet.alphabet.key(level[m][0]))
    lefts_p, lefts_q, words, shifts, steps = [], [], [], [], []
    for m in order:
        w, lp, lq = level[m]
        sp = sq = 0
        prefix = []
        for c in w:
            prefix.append((sp, sq))
            sp, sq = sp + tau[c][0], sq + tau[c][1]
        lefts_p.append(lp - sp)
        lefts_q.append(lq - sq)
        words.append(w)
        shifts.append((sp, sq))
        steps.append(tuple(prefix))
    firsts, j = [], 0
    for _, lp, lq in level:
        while j + 1 < len(level) and not _lt(lp - lefts_p[j + 1], lq - lefts_q[j + 1], d):
            j += 1
        firsts.append(j)
    tops = [j + ((lefts_p[j], lefts_q[j]) != e[1:]) for j, e in zip(firsts[1:], level[1:])]
    ranges = list(zip(firsts, tops + [len(level)]))
    return lefts_p, lefts_q, words, shifts, steps, [ranges[m] for m in order]


@settings(max_examples=60, deadline=None)
@given(instances)
def test_block_words_come_in_alphabet_order(iet):
    """The carried order of level ``_K`` is the order the key sort gave."""
    table = iet._blocks()
    keys = [iet.alphabet.key(w) for w in table[2]]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert table == sorted_table_oracle(iet)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_successor_ranges_hold_the_next_block(data):
    """Each block's range is exactly the blocks that T^K of its cylinder
    meets, found by a linear QuadNum search, and it holds the block of
    T^K(x) for the left end and a drawn point x of the cylinder."""
    iet = data.draw(instances)
    lefts_p, lefts_q, words, shifts, _, successors = iet._blocks()
    R, d = iet._grid[:2]
    lefts = [QuadNum(P, Q, R, d) for P, Q in zip(lefts_p, lefts_q)]
    cylinders = [Interval(a, b) for a, b in zip(lefts, lefts[1:] + [iet.domain.right])]
    for i, (cyl, (sp, sq), (lo, hi)) in enumerate(zip(cylinders, shifts, successors)):
        assert cyl == iet.cylinder(words[i])
        shift = QuadNum(sp, sq, R, d)
        image = cyl.translate(shift)
        assert list(range(lo, hi)) == [j for j, other in enumerate(cylinders) if not image.intersect(other).is_empty]
        m = data.draw(st.integers(1, 13))
        for x in (cyl.left, cyl.left + cyl.length() * QuadNum(data.draw(st.integers(0, m - 1)), 0, m)):
            y = x + shift
            assert lo <= next(j for j, other in enumerate(cylinders) if other.contains(y)) < hi


def twin(state: Iet) -> Iet:
    """The exchange built from the QuadNum values of ``state``."""
    return Iet(state.alphabet, state.permutation, state.lengths, state.origin)


def test_rauzy_states_build_no_lattice_or_block_table():
    """Induction steps never walk an orbit, so its states stay without the
    block table; their lattice numbers are those of their QuadNum twins."""
    iet = parse_iet_file(str(DATA / "sqrt2_4.iet"))
    trace = induce_to_cylinder(iet, "cbccbc")
    assert len(trace.states) > 10
    for state in trace.states[1:]:
        assert state._grid == twin(state)._grid
        assert state._table is None


@pytest.mark.parametrize("name", sorted(FILES))
def test_rauzy_states_equal_their_quadnum_twins(name):
    """Every state of every walk onto the words up to length 8, from the
    instance and resumed from the prefix's trace, against the exchange built
    from its QuadNum values."""
    iet = FILES[name]
    traces = {}
    seen = 0
    for w in sorted(iet.language(8), key=len):
        walks = [induce_to_cylinder(iet, w)]
        if w:
            try:
                walks.append(induce_to_cylinder(iet, w, start=traces[w[:-1]]))
            except InductionCapError:
                pass
        traces[w] = walks[-1]
        for trace in walks:
            for state in trace.states:
                other = twin(state)
                assert state == other
                assert state._grid == other._grid
                assert state.domain == other.domain
                assert state.radicand == other.radicand
                assert state.discontinuities() == other.discontinuities()
                assert repr(state) == repr(other)
                for c in state.alphabet:
                    assert state.interval(c) == other.interval(c)
                    assert state.translation(c) == other.translation(c)
                seen += 1
    assert seen > 1000


def placed_oracle(state: Iet) -> tuple[list, list, list]:
    """``(bounds, rows, image cuts)`` of ``state`` summed as QuadNums from its
    lengths, origin and image order, with rows ``(letter, right end, translation)``."""
    lengths = state.lengths
    bounds = list(accumulate((lengths[c] for c in state.alphabet), initial=state.origin))
    cuts = list(accumulate((lengths[c] for c in state.image_order_letters()), initial=state.origin))
    image_left = dict(zip(state.image_order_letters(), cuts))
    rows = [(c, bounds[i + 1], image_left[c] - bounds[i]) for i, c in enumerate(state.alphabet)]
    return bounds, rows, cuts


@settings(max_examples=150, deadline=None)
@given(instances, st.lists(st.sampled_from(["right", "left"]), max_size=8))
def test_each_placed_state_equals_the_exchange_of_its_quadnums(iet, kinds):
    """Every state that a Rauzy step places, after up to 8 steps on either
    side, has the pairs of the exchange built from its QuadNum lengths, origin
    and permutation, and both have the bounds, rows and image cuts of the
    QuadNum sums, so the check does not rest on ``_place`` alone."""
    states = [iet]
    for kind in kinds:
        try:
            states.append((rauzy_right if kind == RIGHT else rauzy_left)(states[-1])[0])
        except ValueError:  # a reducible permutation, or a zero connection
            break
    for state in states:
        other = twin(state)
        assert (state._grid, state._image_cuts, state._lens) == (other._grid, other._image_cuts, other._lens)
        _, _, bounds, rows = state._grid
        rights, taus = state._nums(row[1:3] for row in rows), state._nums(row[3:] for row in rows)
        assert placed_oracle(state) == (
            state._nums(bounds),
            [(row[0], right, tau) for row, right, tau in zip(rows, rights, taus)],
            state._nums(state._image_cuts),
        )


@st.composite
def returns(draw):
    """An instance, the cylinder of one of its words (or of a word outside
    its language), a point of it on or off the lattice, and a cap."""
    iet = draw(instances)
    words = sorted(iet.language(5), key=lambda w: (len(w), w))
    w = draw(st.sampled_from(words))
    if draw(st.integers(0, 5)) == 0:
        w = draw(st.text(alphabet=iet.alphabet.letters, max_size=5))
    sub = iet.cylinder(w)
    where = "anywhere" if sub.is_empty else draw(st.sampled_from(["left", "inside", "inside", "anywhere"]))
    if where == "left":
        z = sub.left
    elif where == "inside":
        # Denominators up to 13 need not divide the instance's R.
        m = draw(st.integers(1, 13))
        z = sub.left + sub.length() * QuadNum(draw(st.integers(0, m - 1)), 0, m)
    else:
        z = draw(points(iet))
    cap = draw(st.sampled_from([-1, 0, 1, 2, 3, 5, 20, 10_000, 10_000, 10_000, 10_000, 10_000]))
    return iet, sub, z, cap


@settings(max_examples=300, deadline=None)
@given(returns())
def test_first_return_matches_quadnum_steps(case):
    iet, sub, z, cap = case
    same_outcome(lambda: iet.first_return(sub, z, cap=cap), lambda: first_return_oracle(iet, sub, z, cap))


@pytest.mark.parametrize("name", [*sorted(FIXED), "rational"])
def test_orbits_from_points_off_the_instance_lattice(name):
    """Cylinder midpoints, where a return-word scan starts, and thirds mostly
    need the lattice refined by m = 2 or 3: the walk and the first return
    read the instance's pairs times m where they compare and add."""
    iet = FIXED.get(name, RATIONAL)
    refined = 0
    for w in sorted(iet.language(3) - {""}):
        sub = iet.cylinder(w)
        for z in (sub.midpoint(), sub.left + sub.length() * QuadNum(1, 0, 3)):
            refined += iet._on_lattice(z)[0] > 1
            assert iet.trajectory(z, 3 * _K + 5) == trajectory_oracle(iet, z, 3 * _K + 5)
            assert iet.first_return(sub, z) == first_return_oracle(iet, sub, z, 10_000)
    assert refined >= 3


def q2(p, q, r=1, d=2):
    return QuadNum(p, q, r, d)


GOLDEN_B = FILES["golden.iet"].cylinder("b")


@pytest.mark.parametrize("name, sub, z, cap", [
    # cap <= 0 comes first, whatever else is wrong.
    ("golden.iet", GOLDEN_B, QuadNum(5), 0),
    ("golden.iet", EMPTY, QuadNum(5), -1),
    # an empty return interval, then one outside the domain
    ("golden.iet", EMPTY, QuadNum(0), 3),
    ("golden.iet", Interval(QuadNum(-1), QuadNum(1, 0, 2)), QuadNum(5), 3),
    ("golden.iet", Interval(QuadNum(1, 0, 2), QuadNum(2)), QuadNum(1, 0, 2), 3),
    # a point outside the return interval
    ("golden.iet", GOLDEN_B, QuadNum(0), 3),
    ("golden.iet", GOLDEN_B, GOLDEN_B.right, 3),
    # a return after 3 steps, with a cap one short and a cap just enough
    ("golden.iet", GOLDEN_B, GOLDEN_B.left, 2),
    ("golden.iet", GOLDEN_B, GOLDEN_B.left, 3),
    ("sqrt2_4.iet", FILES["sqrt2_4.iet"].cylinder("cbcc"), FILES["sqrt2_4.iet"].cylinder("cbcc").left, 2),
    # an int point, and an interval with int ends
    ("golden.iet", FILES["golden.iet"].domain, 0, 5),
    ("rational", Interval(1, 3), 2, 50),
    # a rational exchange given a sqrt(2) interval and a sqrt(3) point
    ("rational", Interval(q2(0, 1), QuadNum(3)), QuadNum(0, 1, 1, 3), 50),
    # a rational exchange takes the radicand of the point, or of the interval
    ("rational", Interval(QuadNum(1), QuadNum(3)), QuadNum(0, 1, 1, 3), 50),
    ("rational", Interval(q2(0, 1), QuadNum(3)), QuadNum(2), 50),
    ("rational", Interval(q2(0, 1), q2(1, 1)), q2(1, 2, 2), 50),
    # a rational exchange given a sqrt(2) end and a sqrt(3) end: an interval
    # that leaves the domain, and a rational point outside the interval
    ("rational", Interval(q2(0, 1), QuadNum(33, 1, 1, 3)), QuadNum(2), 50),
    ("rational", Interval(q2(0, 1), QuadNum(0, 1, 1, 3)), QuadNum(0), 50),
])
def test_first_return_keeps_its_errors_and_their_order(name, sub, z, cap):
    iet = FILES.get(name, RATIONAL)
    same_outcome(lambda: iet.first_return(sub, z, cap=cap), lambda: first_return_oracle(iet, sub, z, cap))


def test_first_return_of_a_rational_exchange_refuses_two_radicands():
    sub, z = Interval(q2(0, 1), QuadNum(3)), QuadNum(0, 1, 1, 3)
    with pytest.raises(ValueError, match=r"^mismatched radicands: sqrt\(2\) vs sqrt\(3\)$"):
        RATIONAL.first_return(sub, z)


def test_a_point_outside_ends_of_two_radicands_names_them():
    # Both ends print as (0, 1, 1): sqrt(2) and sqrt(3) are told apart only
    # by the radicand each end names.
    sub = Interval(q2(0, 1), QuadNum(0, 1, 1, 3))
    message = "point (0) is not in the return interval [(0, 1, 1) with d = 2, (0, 1, 1) with d = 3)"
    with pytest.raises(ValueError) as caught:
        RATIONAL.first_return(sub, QuadNum(0))
    assert str(caught.value) == message
    # Ends of one radicand, or a rational end, print as before, also a
    # rational end reached through sqrt(2) arithmetic.
    assert str(Interval(q2(0, 1), QuadNum(3))) == "[(0, 1, 1), (3))"
    assert str(Interval(q2(0, 1) - q2(0, 1) + QuadNum(1), QuadNum(0, 1, 1, 3))) == "[(1), (0, 1, 1))"
    assert str(Interval(q2(0, 1), q2(1, 1))) == "[(0, 1, 1), (1, 1, 1))"


def test_first_return_refuses_a_rational_point_between_two_radicands():
    """3/2 lies in [sqrt(2), sqrt(3)), and the QuadNum loop lands; the
    lattice holds one radicand, so the point is refused with the pair the
    placement meets, as the docstring states."""
    sub, z = Interval(q2(0, 1), QuadNum(0, 1, 1, 3)), QuadNum(3, 0, 2)
    landing, _ = first_return_oracle(RATIONAL, sub, z, 10_000)
    assert sub.contains(landing)
    with pytest.raises(ValueError, match=r"^mismatched radicands: sqrt\(3\) vs sqrt\(2\)$"):
        RATIONAL.first_return(sub, z)


def test_scan_keeps_its_horizon_message_and_words():
    iet = FILES["sqrt2_4.iet"]
    with pytest.raises(IncompleteScanError) as caught:
        iet.return_words_scan("cbccbc", horizon=2000)
    with pytest.raises(IncompleteScanError) as expected:
        scan_oracle(iet, "cbccbc", 2000)
    assert str(caught.value) == str(expected.value)
    assert caught.value.words == expected.value.words


@settings(max_examples=60, deadline=None)
@given(instances, st.integers(0, 8))
def test_language_matches_quadnum_refinement(iet, n):
    assert iet.language(n) == language_oracle(iet, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cylinder_matches_quadnum_refinement(data):
    iet = data.draw(instances)
    letters = iet.alphabet.letters
    w = "".join(data.draw(st.lists(st.sampled_from(letters), max_size=8)))
    cyl = iet.cylinder(w)
    expected = cylinder_oracle(iet, w)
    assert cyl == expected
    assert repr(cyl) == repr(expected)


# -- errors ------------------------------------------------------------------------


@pytest.mark.parametrize("x", [QuadNum(5), QuadNum(1), QuadNum(-1, 0, 9)])
def test_point_outside_the_domain_keeps_its_message(x):
    golden = FILES["golden.iet"]
    with pytest.raises(ValueError, match=r"^point .* is outside the domain \[\(0\), \(1\)\)$") as caught:
        golden.trajectory(x, 3)
    with pytest.raises(ValueError) as expected:
        trajectory_oracle(golden, x, 3)
    assert str(caught.value) == str(expected.value)


def test_mismatched_radicand_keeps_its_message():
    golden = FILES["golden.iet"]
    x = QuadNum(1, 1, 5, 2)
    with pytest.raises(ValueError, match=r"^mismatched radicands: sqrt\(2\) vs sqrt\(5\)$"):
        golden.trajectory(x, 3)
    with pytest.raises(ValueError, match=r"^mismatched radicands: sqrt\(2\) vs sqrt\(5\)$"):
        trajectory_oracle(golden, x, 3)


def test_mismatched_radicand_found_past_rational_bounds():
    """Locating (sqrt 3)/10 compares it with rational bounds only, so the
    mismatch shows first when the orbit adds an irrational translation."""
    iet = Iet(OrderedAlphabet("abcd"), Permutation([3, 2, 1, 0]),
              {"a": QuadNum(1), "b": QuadNum(1), "c": QuadNum(0, 1, 1, 2), "d": QuadNum(1)})
    x = QuadNum(0, 1, 10, 3)
    assert iet.letter_at(x) == "a"
    message = r"^mismatched radicands: sqrt\(3\) vs sqrt\(2\)$"
    with pytest.raises(ValueError, match=message):
        iet.trajectory(x, 3)
    with pytest.raises(ValueError, match=message):
        trajectory_oracle(iet, x, 3)


def test_radicand_of_instances():
    assert FILES["golden.iet"].radicand == 5
    assert FILES["sqrt2_4.iet"].radicand == 2
    rational = Iet(OrderedAlphabet("ab"), Permutation([1, 0]), {"a": 1, "b": QuadNum(1, 0, 2)})
    assert rational.radicand == 0
    # An irrational origin gives its radicand to rational lengths.
    shifted = Iet(OrderedAlphabet("ab"), Permutation([1, 0]), {"a": 1, "b": 2}, QuadNum(0, 1, 1, 3))
    assert shifted.radicand == 3


def test_lengths_over_two_radicands_are_refused():
    """a + b and c + d are rational, so no sum of either partition mixes
    sqrt(2) with sqrt(3); the lengths themselves still carry both."""
    abcd = OrderedAlphabet("abcd")
    lengths = {"a": QuadNum(2, 1, 1, 2), "b": QuadNum(2, -1, 1, 2), "c": QuadNum(2, 1, 1, 3), "d": QuadNum(2, -1, 1, 3)}
    with pytest.raises(ValueError, match=r"^mismatched radicands: sqrt\(2\) vs sqrt\(3\)$"):
        Iet(abcd, Permutation.from_one_line_letters("dcba", abcd), lengths)


@pytest.mark.parametrize("lengths, origin", [
    ({"a": QuadNum(0, 1, 1, 2), "b": 1, "c": 1, "d": 1}, QuadNum(0, 1, 1, 3)),
    # a + b is rational, so sqrt(3) comes first in the running sum.
    ({"a": QuadNum(2, 1, 1, 2), "b": QuadNum(2, -1, 1, 2), "c": QuadNum(0, 1, 1, 3), "d": QuadNum(0, 1, 1, 2)}, 0),
], ids=["origin", "cancelled-sum"])
def test_a_mix_met_in_the_domain_partition_keeps_its_message(lengths, origin):
    abcd = OrderedAlphabet("abcd")
    with pytest.raises(ValueError, match=r"^mismatched radicands: sqrt\(3\) vs sqrt\(2\)$"):
        Iet(abcd, Permutation.symmetric(4), lengths, origin)
