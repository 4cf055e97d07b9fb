"""Exact arithmetic in Q(sqrt(d)).

Every endpoint, length, and translation in this library is a
:class:`QuadNum`, the value ``(p + q*sqrt(d)) / r`` with arbitrary-precision
integers.  The representation is canonical (``r > 0``, ``gcd(p, q, r) == 1``,
and ``q == 0`` whenever ``d <= 1``), so equality of values is equality of
representations.  Every order decision, ``<`` and :meth:`QuadNum.sign`,
is one integer test, :func:`_lt`, of whether ``a + b sqrt(d) < 0``
(``a^2`` against ``b^2 d`` when the parts differ in sign); ``<`` applies it
to the cross-multiplied coordinates ``(p1 r2 - p2 r1) + (q1 r2 - q2 r1)
sqrt(d)`` and builds no difference object; a difference is those
coordinates over ``r1 r2``.  ``==`` compares the canonical coordinates, and
:func:`functools.total_ordering` derives ``<=``, ``>`` and ``>=`` from those
two.  Sums and differences are canonicalized once.  Floating point is never
consulted except by :meth:`QuadNum.__float__`, which exists for display and
sanity checks only.

A single radicand ``d`` is shared by all numbers of one instance.  Purely
rational values are normalized to ``d == 0`` and mix freely with any
radicand; combining two genuinely irrational numbers with different
radicands is an error.

Division between two QuadNums is deliberately absent: the interval
algorithms only add, subtract, multiply, and compare.  Dividing by an
integer is multiplication by ``QuadNum(1, 0, n)``.
"""

from __future__ import annotations

from functools import total_ordering
from math import gcd, isqrt


def _lt(a: int, b: int, d: int) -> bool:
    """Whether ``a + b*sqrt(d) < 0``, by integer arithmetic only (``b == 0``
    whenever ``d == 0``)."""
    if b >= 0:
        return a < 0 and a * a > b * b * d
    return a < 0 or a * a < b * b * d


def _mismatch(d1: int, d2: int) -> ValueError:
    return ValueError(f"mismatched radicands: sqrt({d1}) vs sqrt({d2})")


_set = object.__setattr__


@total_ordering
class QuadNum:
    """(p + q*sqrt(d)) / r, canonicalized on construction."""

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p: int, q: int = 0, r: int = 1, d: int = 0):
        if r <= 0:
            if r == 0:
                raise ValueError("zero denominator")
            p, q, r = -p, -q, -r
        if d <= 1:
            if d < 0:
                raise ValueError(f"negative radicand {d}")
            # sqrt(0) = 0 and sqrt(1) = 1 fold into the rational part.
            p, q, d = p + q * d, 0, 0
        elif q == 0:
            d = 0
        g = gcd(p, q, r)
        if g != 1:
            p, q, r = p // g, q // g, r // g
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "r", r)
        _set(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadNum is immutable")

    # -- arithmetic --------------------------------------------------------
    #
    # Operands are read as integer coordinates; a rational operand (q == 0,
    # d == 0) takes the radicand of the other, so ``self.d or other.d`` is
    # the radicand of the result.

    def __add__(self, other) -> "QuadNum":
        p, q, r, d = self.p, self.q, self.r, self.d
        if isinstance(other, QuadNum):
            if other.d != d and q and other.q:
                raise _mismatch(d, other.d)
            if other.r == r:
                return QuadNum(p + other.p, q + other.q, r, d or other.d)
            return QuadNum(p * other.r + other.p * r, q * other.r + other.q * r, r * other.r, d or other.d)
        if isinstance(other, int):
            return QuadNum(p + other * r, q, r, d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "QuadNum":
        c = self._diff(other)
        return c if c is NotImplemented else QuadNum(*c)

    def __rsub__(self, other) -> "QuadNum":
        if isinstance(other, int):
            return QuadNum(other * self.r - self.p, -self.q, self.r, self.d)
        return NotImplemented

    def __mul__(self, other) -> "QuadNum":
        if isinstance(other, int):
            other = QuadNum(other)
        elif not isinstance(other, QuadNum):
            return NotImplemented
        elif other.d != self.d and self.q and other.q:
            raise _mismatch(self.d, other.d)
        d = self.d or other.d
        return QuadNum(
            self.p * other.p + self.q * other.q * d,
            self.p * other.q + self.q * other.p,
            self.r * other.r,
            d,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.p, -self.q, self.r, self.d)

    # -- comparison --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: negative by :func:`_lt`, zero exactly when both parts are."""
        return -1 if _lt(self.p, self.q, self.d) else int(bool(self.p or self.q))

    def _diff(self, other):
        """``(a, b, r, d)`` with ``(a + b sqrt(d)) / r == self - other`` and
        ``r > 0``, read from the cross-multiplied coordinates; no number is
        built, so a comparison reads the sign of ``a + b sqrt(d)``."""
        if isinstance(other, QuadNum):
            q1, q2 = self.q, other.q
            if other.d != self.d and q1 and q2:
                raise _mismatch(self.d, other.d)
            r1, r2 = self.r, other.r
            if r1 == r2:
                return self.p - other.p, q1 - q2, r1, self.d or other.d
            return self.p * r2 - other.p * r1, q1 * r2 - q2 * r1, r1 * r2, self.d or other.d
        if isinstance(other, int):
            return self.p - other * self.r, self.q, self.r, self.d
        return NotImplemented

    def __lt__(self, other):
        c = self._diff(other)
        return c if c is NotImplemented else _lt(c[0], c[1], c[3])

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return self.p == other.p and self.q == other.q and self.r == other.r and self.d == other.d
        if isinstance(other, int):
            return self.q == 0 and self.r == 1 and self.p == other
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.r, self.d))

    # -- views ---------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __float__(self) -> float:
        return (self.p + self.q * self.d ** 0.5) / self.r

    def literal(self) -> str:
        """Canonical text form: ``(p)`` when rational with r == 1, else ``(p, q, r)``."""
        if self.q == 0 and self.r == 1:
            return f"({self.p})"
        return f"({self.p}, {self.q}, {self.r})"

    @classmethod
    def parse(cls, text: str, d: int = 0) -> "QuadNum":
        """Parse ``(p)`` or ``(p, q, r)``; ``d`` supplies the radicand, which a
        nonzero ``q`` needs (with ``d = 0`` it would silently drop out)."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad number literal {text!r}, expected (p) or (p, q, r)")
        parts = [s.strip() for s in body[1:-1].split(",")]
        try:
            ints = [int(s) for s in parts]
        except ValueError:
            raise ValueError(f"bad number literal {text!r}: non-integer component") from None
        if len(ints) == 1:
            return cls(ints[0])
        if len(ints) == 3:
            if ints[1] and not d:
                raise ValueError(f"bad number literal {text!r}: irrational part with no radicand d")
            return cls(ints[0], ints[1], ints[2], d)
        raise ValueError(f"bad number literal {text!r}, expected 1 or 3 components")

    def __str__(self) -> str:
        return self.literal()

    def __repr__(self) -> str:
        return f"QuadNum({self.p}, {self.q}, {self.r}, {self.d})"


def is_square_free(n: int) -> bool:
    """True when no square > 1 divides n (0 and 1 count as square-free here).

    Trial division runs only up to the cube root of what is left: once no
    prime below ``k`` divides the cofactor ``m`` and ``k**3 > m``, ``m`` is
    1, a prime, or a product of two primes, and it is square-free exactly
    when it is not a perfect square.
    """
    if n < 0:
        return False
    if n <= 3:
        return True
    m = n
    k = 2
    while k * k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return False
        k += 1 if k == 2 else 2
    return m == 1 or isqrt(m) ** 2 != m
