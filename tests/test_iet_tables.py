"""Piece-table lookups and pair refinement checked against direct oracles.

The oracles below recompute every piece from the lengths and walk them one
by one, and enumerate languages by intersecting translated ``Interval``
objects, so they share no code with the boundary tables of ``Iet``.
"""

import itertools
import pathlib
import random

import pytest

from ietkit import Iet, OrderedAlphabet, Permutation, QuadNum
from ietkit.cli import parse_iet_file
from ietkit.iet import EMPTY, Interval

DATA = pathlib.Path(__file__).parent / "data"


def pieces(iet: Iet, letters) -> list[tuple[str, QuadNum, QuadNum]]:
    """(letter, left, right) of consecutive pieces laid out from the origin."""
    out, x = [], iet.origin
    for c in letters:
        out.append((c, x, x + iet.length(c)))
        x = x + iet.length(c)
    return out


def outside_message(iet: Iet, x: QuadNum) -> str:
    end = iet.origin + sum((iet.length(c) for c in iet.alphabet), QuadNum(0))
    return f"point {x} is outside the domain [{iet.origin}, {end})"


def letter_at_oracle(iet: Iet, x: QuadNum) -> str:
    for c, left, right in pieces(iet, iet.alphabet.letters):
        if left <= x < right:
            return c
    raise ValueError(outside_message(iet, x))


def apply_inverse_oracle(iet: Iet, y: QuadNum) -> QuadNum:
    for c, left, right in pieces(iet, iet.image_order_letters()):
        if left <= y < right:
            return y - iet.translation(c)
    raise ValueError(outside_message(iet, y))


def cylinder_oracle(iet: Iet, w: str) -> Interval:
    current, shift = iet.domain, QuadNum(0)
    for c in w:
        current = current.intersect(iet.interval(c).translate(-shift))
        if current.is_empty:
            return EMPTY
        shift = shift + iet.translation(c)
    return current


def language_oracle(iet: Iet, n: int) -> set[str]:
    words = {""}
    level = [("", iet.domain, QuadNum(0))]
    for _ in range(n):
        next_level = []
        for w, block, shift in level:
            for c in iet.alphabet:
                child = block.intersect(iet.interval(c).translate(-shift))
                if not child.is_empty:
                    next_level.append((w + c, child, shift + iet.translation(c)))
        words.update(w for w, _, _ in next_level)
        level = next_level
    return words


def random_rational_iet(rng: random.Random) -> Iet:
    alphabet = OrderedAlphabet("abcd"[: rng.randint(2, 4)])
    order = list(range(len(alphabet)))
    rng.shuffle(order)
    lengths = {c: QuadNum(rng.randint(1, 9), 0, rng.randint(1, 5)) for c in alphabet}
    return Iet(alphabet, Permutation(order), lengths, QuadNum(rng.randint(-5, 5), 0, rng.randint(1, 3)))


INSTANCES = ("golden.iet", "sqrt2_4.iet")


@pytest.fixture(scope="module", params=INSTANCES)
def instance(request):
    return parse_iet_file(str(DATA / request.param))


def probe_points(iet: Iet, rng: random.Random) -> list[QuadNum]:
    """The origin, every cut, the end, points just inside and outside each
    of them, and random interior points."""
    d_map, d_inv = iet.discontinuities()
    bounds = [iet.domain.left, *d_map, *d_inv, iet.domain.right]
    eps = QuadNum(1, 0, 10**9)
    points = []
    for b in bounds:
        points += [b, b + eps, b - eps]
    points += [iet.domain.left - 1, iet.domain.right + 1]
    width = iet.domain.right - iet.domain.left
    for _ in range(50):
        points.append(iet.domain.left + width * QuadNum(rng.randint(0, 999), 0, 1000))
    return points


def assert_same_outcome(fast, slow, x) -> None:
    try:
        expected = slow(x)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            fast(x)
        assert str(caught.value) == str(exc)
    else:
        assert fast(x) == expected


def test_letter_at_and_inverse_match_linear_scan(instance):
    rng = random.Random(11)
    for x in probe_points(instance, rng):
        assert_same_outcome(instance.letter_at, lambda y: letter_at_oracle(instance, y), x)
        assert_same_outcome(instance.apply_inverse, lambda y: apply_inverse_oracle(instance, y), x)


def test_letter_at_matches_linear_scan_on_rational_exchanges():
    rng = random.Random(12)
    for _ in range(40):
        iet = random_rational_iet(rng)
        for x in probe_points(iet, rng):
            assert_same_outcome(iet.letter_at, lambda y: letter_at_oracle(iet, y), x)
            assert_same_outcome(iet.apply_inverse, lambda y: apply_inverse_oracle(iet, y), x)


def test_end_and_outside_points_keep_their_message(golden):
    end = golden.domain.right
    for x in (end, end + 1, golden.origin - QuadNum(1, 0, 2)):
        with pytest.raises(ValueError, match=r"^point .* is outside the domain \[\(0\), \(1\)\)$"):
            golden.letter_at(x)
        with pytest.raises(ValueError, match="is outside the domain"):
            golden.apply_inverse(x)
    assert golden.letter_at(golden.origin) == "a"


def test_language_matches_interval_refinement(instance):
    assert instance.language(12) == language_oracle(instance, 12)


def test_cylinders_match_interval_refinement(instance):
    for w in sorted(instance.language(7)):
        assert instance.cylinder(w) == cylinder_oracle(instance, w)
    # Every word of length 3, most of them outside the language.
    for letters in itertools.product(instance.alphabet.letters, repeat=3):
        w = "".join(letters)
        assert instance.cylinder(w) == cylinder_oracle(instance, w)


def test_language_and_cylinders_on_rational_exchanges():
    rng = random.Random(13)
    for _ in range(20):
        iet = random_rational_iet(rng)
        assert iet.language(6) == language_oracle(iet, 6)
        for w in sorted(iet.language(4)):
            assert iet.cylinder(w) == cylinder_oracle(iet, w)
