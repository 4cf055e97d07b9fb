"""Exact interval exchange transformations.

An :class:`Iet` is determined by an ordered alphabet, a permutation, one
positive exact length per letter, and the left end of its domain.  The
domain partitions into left-closed right-open pieces in alphabet order; the
image pieces tile the same domain left to right in the order
``a_{pi(1)}, ..., a_{pi(d)}``.  The translation of the piece of ``a`` is
the difference between its image offset and its domain offset.

All points are :class:`~ietkit.arith.QuadNum`, so membership tests, orbit
hits and cylinder intersections are exact.  The Keane (no-connection)
condition is only ever certified to a finite depth; nothing in this module
claims full regularity.

Languages are enumerated by cylinder refinement, never by sampling
trajectories: on a cylinder of the words of length k the k-th iterate is a
single translation, so the children of a cylinder are exact interval
intersections and no factor can be missed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from collections.abc import Mapping

from .arith import QuadNum
from .words import OrderedAlphabet, Permutation


class CapExceededError(RuntimeError):
    """An orbit-following loop ran out of its iteration budget."""


class IncompleteScanError(RuntimeError):
    """A trajectory scan ended before the expected number of return words.

    Carries the incomplete set in ``words``.
    """

    def __init__(self, message: str, words: frozenset[str]):
        super().__init__(message)
        self.words = words


@dataclass(frozen=True)
class Interval:
    """Left-closed right-open interval; ``EMPTY`` is the distinguished empty value."""

    left: QuadNum | None
    right: QuadNum | None

    @staticmethod
    def of(left: QuadNum, right: QuadNum) -> "Interval":
        """Interval [left, right), collapsing to EMPTY when left >= right."""
        if left < right:
            return Interval(left, right)
        return EMPTY

    @property
    def is_empty(self) -> bool:
        return self.left is None

    def length(self) -> QuadNum:
        if self.is_empty:
            return QuadNum(0)
        return self.right - self.left

    def contains(self, x: QuadNum) -> bool:
        return not self.is_empty and self.left <= x < self.right

    def contains_interval(self, other: "Interval") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.left <= other.left and other.right <= self.right

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        lo = self.left if self.left >= other.left else other.left
        hi = self.right if self.right <= other.right else other.right
        return Interval.of(lo, hi)

    def translate(self, t: QuadNum) -> "Interval":
        if self.is_empty:
            return EMPTY
        return Interval(self.left + t, self.right + t)

    def midpoint(self) -> QuadNum:
        if self.is_empty:
            raise ValueError("the empty interval has no midpoint")
        return (self.left + self.right) * QuadNum(1, 0, 2)

    def __repr__(self) -> str:
        if self.is_empty:
            return "Interval.EMPTY"
        return f"[{self.left}, {self.right})"


EMPTY = Interval(None, None)


@dataclass(frozen=True)
class Connection:
    """An orbit segment from a discontinuity of the inverse to one of the map."""

    x: QuadNum
    y: QuadNum
    n: int

    @property
    def is_zero_connection(self) -> bool:
        return self.n == 0


@dataclass(frozen=True)
class KeaneVerdict:
    """Outcome of a finite-depth connection search.

    ``regular_to_depth`` is the checked depth when no connection was found,
    and ``failure.n - 1`` otherwise.
    """

    regular_to_depth: int
    failure: Connection | None = None

    @property
    def is_regular(self) -> bool:
        return self.failure is None


class Iet:
    """An interval exchange transformation with exact arithmetic."""

    def __init__(
        self,
        alphabet: OrderedAlphabet,
        permutation: Permutation,
        lengths: Mapping[str, QuadNum | int],
        origin: QuadNum | int = 0,
    ):
        if len(permutation) != len(alphabet):
            raise ValueError("permutation size does not match alphabet size")
        self._alphabet = alphabet
        self._perm = permutation
        lens: dict[str, QuadNum] = {}
        for c in alphabet:
            if c not in lengths:
                raise ValueError(f"no length given for letter {c!r}")
            v = lengths[c]
            if isinstance(v, int):
                v = QuadNum(v)
            if v.sign() <= 0:
                raise ValueError(f"length of {c!r} must be positive, got {v}")
            lens[c] = v
        extra = set(lengths) - set(alphabet.letters)
        if extra:
            raise ValueError(f"lengths given for letters outside the alphabet: {sorted(extra)}")
        self._lengths = lens
        self._origin = QuadNum(origin) if isinstance(origin, int) else origin

        # Piece tables: the boundaries [origin, cut_1, ..., end] of the
        # domain and of the image partition, and one (letter, left, right,
        # tau) row per domain piece.
        letters = alphabet.letters
        self._image_letters = self.image_order_letters()
        self._bounds = self._partition(letters)
        self._image_bounds = self._partition(self._image_letters)
        img_left = dict(zip(self._image_letters, self._image_bounds))
        self._tau = {c: img_left[c] - left for c, left in zip(letters, self._bounds)}
        self._pieces = tuple(
            zip(letters, self._bounds, self._bounds[1:], (self._tau[c] for c in letters))
        )
        self._row = {row[0]: row for row in self._pieces}
        self._domain = Interval(self._origin, self._bounds[-1])

    def _partition(self, letters: tuple[str, ...]) -> list[QuadNum]:
        bounds = [self._origin]
        for c in letters:
            bounds.append(bounds[-1] + self._lengths[c])
        return bounds

    # -- structure ----------------------------------------------------------

    @property
    def alphabet(self) -> OrderedAlphabet:
        return self._alphabet

    @property
    def permutation(self) -> Permutation:
        return self._perm

    @property
    def origin(self) -> QuadNum:
        return self._origin

    @property
    def d(self) -> int:
        return len(self._alphabet)

    def length(self, letter: str) -> QuadNum:
        self._alphabet.rank(letter)
        return self._lengths[letter]

    @property
    def lengths(self) -> dict[str, QuadNum]:
        return dict(self._lengths)

    @property
    def domain(self) -> Interval:
        return self._domain

    def image_order_letters(self) -> tuple[str, ...]:
        letters = self._alphabet.letters
        return tuple(letters[self._perm(i)] for i in range(len(letters)))

    def interval(self, letter: str) -> Interval:
        """The domain piece of ``letter``."""
        _, left, right, _ = self._row[letter]
        return Interval(left, right)

    def translation(self, letter: str) -> QuadNum:
        self._alphabet.rank(letter)
        return self._tau[letter]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Iet):
            return NotImplemented
        return (
            self._alphabet == other._alphabet
            and self._perm == other._perm
            and self._lengths == other._lengths
            and self._origin == other._origin
        )

    def __repr__(self) -> str:
        lens = ", ".join(f"{c}={self._lengths[c]}" for c in self._alphabet)
        return (
            f"Iet({self._alphabet}, pi={self._perm.one_line_letters(self._alphabet)}, "
            f"{lens}, origin={self._origin})"
        )

    # -- dynamics -------------------------------------------------------------

    def letter_at(self, x: QuadNum) -> str:
        """The letter of the domain piece containing ``x``."""
        i = bisect_right(self._bounds, x)
        if 0 < i < len(self._bounds):
            return self._pieces[i - 1][0]
        raise ValueError(f"point {x} is outside the domain {self._domain}")

    def apply(self, x: QuadNum) -> QuadNum:
        return x + self._tau[self.letter_at(x)]

    def apply_inverse(self, y: QuadNum) -> QuadNum:
        i = bisect_right(self._image_bounds, y)
        if 0 < i < len(self._image_bounds):
            return y - self._tau[self._image_letters[i - 1]]
        raise ValueError(f"point {y} is outside the domain {self._domain}")

    def discontinuities(self) -> tuple[tuple[QuadNum, ...], tuple[QuadNum, ...]]:
        """(D(T), D(T^-1)): interior division points of the domain and image partitions."""
        return tuple(self._bounds[1:-1]), tuple(self._image_bounds[1:-1])

    def check_keane(self, depth: int = 1000) -> KeaneVerdict:
        """Search for a connection by iterating each inverse-discontinuity forward.

        Exact equality tests only; finding nothing up to ``depth`` certifies
        regularity to that depth and no further.
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        d_map, d_inv = self.discontinuities()
        targets = set(d_map)
        for x in d_inv:
            y = x
            for n in range(depth + 1):
                if y in targets:
                    return KeaneVerdict(regular_to_depth=n - 1, failure=Connection(x, y, n))
                if n < depth:
                    y = self.apply(y)
        return KeaneVerdict(regular_to_depth=depth)

    def trajectory(self, x: QuadNum, n: int) -> str:
        """The first ``n`` letters of the orbit coding of ``x``."""
        if n < 0:
            raise ValueError("trajectory length must be nonnegative")
        out = []
        for _ in range(n):
            c = self.letter_at(x)
            out.append(c)
            x = x + self._tau[c]
        return "".join(out)

    def cylinder(self, w: str) -> Interval:
        """Largest interval whose points have trajectories starting with ``w``.

        The empty word gives the whole domain; an empty result means the word
        is not in the language.
        """
        self._alphabet.require(w)
        # [lo, hi) is T^k of the cylinder of the first k letters, and shift
        # the translation T^k applies on it.
        lo, hi = self._domain.left, self._domain.right
        shift = 0
        for c in w:
            _, left, right, tau = self._row[c]
            if left > lo:
                lo = left
            if right < hi:
                hi = right
            if lo >= hi:
                return EMPTY
            lo, hi, shift = lo + tau, hi + tau, tau + shift
        return Interval(lo - shift, hi - shift)

    def language(self, n: int) -> set[str]:
        """All factors of length <= n, by exact cylinder refinement.

        Each word ``w`` of length k carries the image ``T^k(cyl(w))`` as a
        pair ``[lo, hi)``; the image of ``cyl(wc)`` is that pair cut to the
        piece of ``c`` and moved by its translation.
        """
        if n < 0:
            raise ValueError("maximal length must be nonnegative")
        words: set[str] = {""}
        level = [("", self._domain.left, self._domain.right)]
        for _ in range(n):
            next_level = []
            for w, lo, hi in level:
                for c, left, right, tau in self._pieces:
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

    def first_return(self, sub: Interval, z: QuadNum, cap: int = 10_000) -> tuple[QuadNum, int]:
        """First re-entry of the orbit of ``z`` into ``sub``: (landing point, steps)."""
        if cap <= 0:
            raise ValueError("cap must be positive")
        if not self.domain.contains_interval(sub) or sub.is_empty:
            raise ValueError("the return interval must be a nonempty part of the domain")
        if not sub.contains(z):
            raise ValueError(f"point {z} is not in the return interval {sub}")
        y = self.apply(z)
        steps = 1
        while not sub.contains(y):
            if steps >= cap:
                raise CapExceededError(
                    f"no return to {sub} within {cap} steps from {z}"
                )
            y = self.apply(y)
            steps += 1
        return y, steps

    def return_words_scan(
        self, w: str, horizon: int | None = None, expected: int | None = None
    ) -> frozenset[str]:
        """Return words to ``w`` read off one trajectory.

        Starting from the midpoint of the cylinder of ``w``, the trajectory is
        cut at successive occurrences of ``w`` (overlaps included); the pieces
        between consecutive occurrence starts are the return words.  The scan
        stops once ``expected`` distinct words are found and raises
        :class:`IncompleteScanError` if the horizon runs out first.
        """
        if not w:
            raise ValueError("return words need a nonempty word")
        block = self.cylinder(w)
        if block.is_empty:
            raise ValueError(f"{w!r} is not in the language of this transformation")
        if expected is None:
            expected = self.d
        if horizon is None:
            horizon = 200 * len(w) * self.d
        x = block.midpoint()
        k = len(w)
        last = w[-1]
        found: set[str] = set()
        trail: list[str] = []
        prev_start: int | None = None
        for step in range(horizon):
            c = self.letter_at(x)
            x = x + self._tau[c]
            trail.append(c)
            if c == last and len(trail) >= k and "".join(trail[-k:]) == w:
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
