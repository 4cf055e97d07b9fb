"""QuadNum arithmetic and comparison checked against sympy.

sympy is the independent oracle: every element is rebuilt as
``(p + q*sqrt(d)) / r`` in sympy and the results of ``<``, ``<=``, ``==``,
``sign()``, ``+``, ``-`` and ``*`` are compared with sympy's exact answers,
and so is the integer test ``_lt`` behind every order decision.
"""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ietkit import QuadNum  # noqa: E402
from ietkit.arith import _lt, is_square_free  # noqa: E402

RADICANDS = (2, 3, 5)


def to_sympy(x: QuadNum):
    return (sympy.Integer(x.p) + sympy.Integer(x.q) * sympy.sqrt(x.d)) / sympy.Integer(x.r)


def oracle_sign(expr) -> int:
    s = sympy.sign(sympy.expand(expr))
    assert s in (-1, 0, 1), f"sympy could not decide the sign of {expr}"
    return int(s)


def convergents(d: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` continued-fraction convergents h/k of sqrt(d)."""
    a0 = sympy.integer_nthroot(d, 2)[0]
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    out = [(h, k)]
    while len(out) < count:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        out.append((h, k))
    return out


COEFF = st.integers(-10**6, 10**6)
DENOM = st.integers(1, 10**4)


@st.composite
def quad(draw, d=None):
    d = draw(st.sampled_from(RADICANDS)) if d is None else d
    return QuadNum(draw(COEFF), draw(COEFF), draw(DENOM), d)


@st.composite
def pairs(draw):
    """Two elements of one Q(sqrt(d)), often with unequal denominators and
    often nearly equal."""
    d = draw(st.sampled_from(RADICANDS))
    kind = draw(st.sampled_from(("random", "convergents", "rational_vs_root", "nudged", "equal")))
    if kind == "random":
        return draw(quad(d)), draw(quad(d))
    if kind == "convergents":
        # (h_i - k_i sqrt(d)) / r for consecutive convergents: tiny numbers of
        # opposite signs whose comparison needs the exact p^2 ? q^2 d test.
        i = draw(st.integers(0, 40))
        (h1, k1), (h2, k2) = convergents(d, i + 2)[i:]
        return QuadNum(h1, -k1, draw(DENOM), d), QuadNum(h2, -k2, draw(DENOM), d)
    if kind == "rational_vs_root":
        i = draw(st.integers(0, 40))
        h, k = convergents(d, i + 1)[i]
        return QuadNum(h, 0, k), QuadNum(0, 1, 1, d)
    if kind == "nudged":
        x = draw(quad(d))
        i = draw(st.integers(0, 40))
        h, k = convergents(d, i + 1)[i]
        return x, x + QuadNum(h, -k, draw(DENOM), d)
    x = draw(quad(d))
    return x, QuadNum(x.p * 7, x.q * 7, x.r * 7, x.d)


def assert_canonical(x: QuadNum) -> None:
    assert x.r > 0
    assert gcd(x.p, x.q, x.r) == 1
    assert (x.q == 0) == (x.d == 0)


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_order_agrees_with_sympy(pair):
    a, b = pair
    expected = oracle_sign(to_sympy(a) - to_sympy(b))
    assert (a < b) == (expected < 0)
    assert (a <= b) == (expected <= 0)
    assert (a > b) == (expected > 0)
    assert (a >= b) == (expected >= 0)
    assert (a == b) == (expected == 0)
    assert (b < a) == (expected > 0)


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_sign_agrees_with_sympy(pair):
    for x in pair:
        assert x.sign() == oracle_sign(to_sympy(x))
    diff = pair[0] - pair[1]
    assert diff.sign() == oracle_sign(to_sympy(pair[0]) - to_sympy(pair[1]))


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_sum_and_difference_agree_with_sympy(pair):
    a, b = pair
    for result, expected in ((a + b, to_sympy(a) + to_sympy(b)), (a - b, to_sympy(a) - to_sympy(b))):
        assert_canonical(result)
        assert sympy.expand(to_sympy(result) - expected) == 0


@settings(max_examples=200, deadline=None)
@given(quad(), st.integers(-10**6, 10**6))
def test_integer_operands_agree_with_sympy(x, n):
    sx = to_sympy(x)
    assert sympy.expand(to_sympy(x + n) - (sx + n)) == 0
    assert sympy.expand(to_sympy(n + x) - (sx + n)) == 0
    assert sympy.expand(to_sympy(x - n) - (sx - n)) == 0
    assert sympy.expand(to_sympy(n - x) - (n - sx)) == 0
    expected = oracle_sign(sx - n)
    assert (x < n) == (expected < 0)
    assert (n < x) == (expected > 0)
    assert (x <= n) == (expected <= 0)
    assert (x == n) == (expected == 0)


@settings(max_examples=100, deadline=None)
@given(quad(2), quad(3))
def test_different_radicands_raise(a, b):
    if a.is_rational or b.is_rational:
        return
    for op in (
        lambda: a < b,
        lambda: a <= b,
        lambda: a > b,
        lambda: a >= b,
        lambda: b < a,
        lambda: a + b,
        lambda: a - b,
    ):
        with pytest.raises(ValueError, match="mismatched radicands"):
            op()


def test_comparison_with_unrelated_type_is_not_supported():
    with pytest.raises(TypeError):
        QuadNum(1) < "1"
    assert (QuadNum(1) == "1") is False


@st.composite
def triples(draw):
    """Three elements of one Q(sqrt(d)), rational ones included."""
    d = draw(st.sampled_from(RADICANDS))
    rational = st.builds(QuadNum, COEFF, st.just(0), DENOM)
    return tuple(draw(st.one_of(quad(d), rational)) for _ in range(3))


def assert_equals_sympy(x: QuadNum, expected) -> None:
    assert_canonical(x)
    assert sympy.expand(to_sympy(x) - expected) == 0


@settings(max_examples=200, deadline=None)
@given(triples())
def test_product_ring_laws_agree_with_sympy(triple):
    a, b, c = triple
    sa, sb, sc = (to_sympy(x) for x in triple)
    assert_equals_sympy(a * b, sa * sb)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert_equals_sympy((a * b) * c, sa * sb * sc)
    assert a * (b + c) == a * b + a * c
    assert_equals_sympy(a * (b + c), sa * (sb + sc))
    assert a * QuadNum(1) == a == QuadNum(1) * a
    assert a * 1 == a == 1 * a


@settings(max_examples=100, deadline=None)
@given(quad(), st.integers(-10**6, 10**6))
def test_product_with_integer_agrees_with_sympy(x, n):
    assert_equals_sympy(x * n, to_sympy(x) * n)
    assert n * x == x * n == x * QuadNum(n)


def naive_square_free(n: int) -> bool:
    return all(n % (k * k) for k in range(2, int(n ** 0.5) + 2) if k * k <= n)


def test_square_free_matches_naive_oracle():
    for n in range(4, 5000):
        assert is_square_free(n) == naive_square_free(n), n


@pytest.mark.parametrize(
    "n, expected",
    [
        (1_000_003 ** 2, False),  # the square of a prime above the cube root
        (1_000_003 * 1_000_033, True),  # two large primes
        (7 * 1_000_003 ** 2, False),
        (9 * 1_000_003, False),
        (2 * 3 * 5 * 7 * 1_000_003, True),
        (100000000000031, True),
    ],
)
def test_square_free_large(n, expected):
    assert is_square_free(n) is expected


@st.composite
def lt_args(draw):
    """``(a, b, d)`` for ``_lt``: zero parts, opposite signs with ``a^2``
    within a few units of ``b^2 d``, and integers of up to 60 digits."""
    d = draw(st.sampled_from((0,) + RADICANDS))
    kind = draw(st.sampled_from(("random", "large", "zero_a", "zero_b", "near")))
    if kind == "near" and d:
        # h^2 - d k^2 = +-1 for a convergent h/k of sqrt(d); the offset moves
        # a^2 a few units away from b^2 d on either side.
        h, k = convergents(d, 41)[draw(st.integers(0, 40))]
        s = draw(st.sampled_from((1, -1)))
        a, b = s * (h + draw(st.integers(-2, 2))), -s * k
    else:
        coeff = st.integers(-10**60, 10**60) if kind == "large" else COEFF
        a = 0 if kind == "zero_a" else draw(coeff)
        b = 0 if kind == "zero_b" else draw(coeff)
    return a, b if d else 0, d


@settings(max_examples=300, deadline=None)
@given(lt_args())
def test_lt_agrees_with_sympy(args):
    a, b, d = args
    assert _lt(a, b, d) == (oracle_sign(sympy.Integer(a) + sympy.Integer(b) * sympy.sqrt(d)) < 0)


@pytest.mark.parametrize("d", (0,) + RADICANDS)
def test_sign_of_zero_is_zero(d):
    for zero in (QuadNum(0, 0, 1, d), QuadNum(0, 0, 7, d), QuadNum(3, 0, 1, d) - QuadNum(6, 0, 2, d)):
        assert zero.sign() == 0
