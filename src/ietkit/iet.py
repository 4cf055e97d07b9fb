"""Exact interval exchange transformations.

An :class:`Iet` is determined by an ordered alphabet, a permutation, one
positive exact length per letter, and the left end of its domain.  The
domain partitions into left-closed right-open pieces in alphabet order; the
image pieces tile the same domain left to right in the order
``a_{pi(1)}, ..., a_{pi(d)}``.  The translation of the piece of ``a`` is
the difference between its image offset and its domain offset.

Points, bounds and translations are :class:`~ietkit.arith.QuadNum` at the
API, but an instance is stored on one integer lattice, and its QuadNum
values are built from it on first read: every bound and translation lies in
``(1/R)(Z + Z sqrt(d))`` for the lcm ``R`` of their denominators, and so
does every orbit point of a point on it.  The long loops (trajectories,
connection search, return-word scans, first returns, language and cylinder
refinement) run on the lattice, and so do Rauzy steps, whose states keep it.
One rule places a finer point on the lattice refined by the least factor
``m`` that holds it, and the loops read the instance's pairs times ``m``.
A point is an integer pair ``(P, Q)`` that a step only adds to, an orbit hit
is equality of pairs, and an order test is :func:`ietkit.arith._lt`, the
integer sign test of ``a + b sqrt(d)`` behind every QuadNum comparison;
nothing is rounded and no float is consulted, so the loops decide exactly
what the QuadNum forms decide.  The Keane (no-connection) condition is
certified only to a finite depth; nothing here claims full regularity.

Languages are enumerated by cylinder refinement, never by sampling
trajectories: on a cylinder of the words of length k the k-th iterate is a
single translation, and the images of these cylinders tile the domain.  Kept
in image order, one length becomes the next by cutting it at the d - 1
interior bounds, one binary search each, so no factor can be missed and no
word is compared on its own.  The alphabet order of each length is carried
along by the children rule: cyl(wc) lies in cyl(w), T^k is one translation
there and the pieces are in alphabet order, so the children of cyl(w) run
left to right in letter order, and the order of length k + 1 is that of
length k with each word replaced by its children in letter order.

Orbits are read a block of ``_K`` letters at a time.  The cylinders of the
words of length K are intervals that tile the domain, at most
``(d - 1)K + 1`` of them, and T^K is one translation on each (Keane,
*Interval exchange transformations*, 1975); they are cut only at the points
whose orbits meet an interior bound within K steps.  The refinement lists
them, and the alphabet order of their words is their left-end order.  A
block step emits the cylinder's word, adds its translation, and locates the
new point by a binary search over the blocks that T^K of the cylinder meets,
recorded in the table, usually one to three.  The points inside a block are
its start plus the prefix sums of the word's translations, and the
connection search tests them only at a block that starts at a left end.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterator, Mapping
from itertools import accumulate, chain, islice
from math import lcm

from .arith import QuadNum, _lt, _mismatch
from .words import OrderedAlphabet, Permutation

# The connection check's depth when none is given.
DEFAULT_KEANE_DEPTH = 1000

# Letters per block step of the orbit loops.  The table takes about (d - 1)K^2
# pair sums; at K = 32 building it costs more than it saves on 10^4 letters.
_K = 16


def _at(v: QuadNum, R: int) -> tuple[int, int]:
    """``v`` as the pair ``(P, Q)`` with ``v = (P + Q sqrt(d))/R``; ``v.r`` divides ``R``."""
    m = R // v.r
    return v.p * m, v.q * m


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
        return Interval(lo, hi) if lo < hi else EMPTY

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
        d1, d2 = (getattr(v, "d", 0) if getattr(v, "q", 0) else 0 for v in (self.left, self.right))
        if d1 and d2 and d1 != d2:
            # A literal drops its radicand, so two irrational ends over
            # different radicands name theirs.
            return f"[{self.left} with d = {d1}, {self.right} with d = {d2})"
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


class Language(frozenset):
    """The factors of an exchange up to a length, as a frozenset of words.

    ``by_length`` holds one tuple per length ``0..n``, each in the alphabet
    order of its words.
    """

    __slots__ = ("by_length",)

    def __new__(cls, by_length):
        # The set takes each row as the refinement makes it, so its table
        # grows while the levels are built, not after every row is held.
        rows = []
        self = super().__new__(cls, chain.from_iterable(rows.append(row) or row for row in by_length))
        self.by_length = tuple(rows)
        return self

    def __reduce__(self):
        # frozenset's own reduction would pass the words where __new__ takes the rows.
        return Language, (self.by_length,)


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
        origin = QuadNum(origin) if isinstance(origin, int) else origin
        image = tuple(permutation.one_line_letters(alphabet))
        # The QuadNum sums of both partitions raise on two radicands where
        # they meet them.  A sum of lengths of one radicand can cancel to a
        # rational first, so every value is read after.
        for seq in (alphabet.letters, image):
            list(accumulate(map(lens.get, seq), initial=origin))
        first, *others = [v.d for v in (origin, *lens.values()) if v.d] or [0]
        for d in others:
            if d != first:
                raise _mismatch(first, d)
        R = lcm(origin.r, *(v.r for v in lens.values()))
        self._place(alphabet, image, R, first, _at(origin, R), {c: _at(v, R) for c, v in lens.items()})

    def _place(self, alphabet, image, R, d, origin, lengths) -> None:
        """Set the exchange from lattice data, unchecked (a Rauzy step places
        its state on a bare ``Iet.__new__(Iet)``): ``origin`` and each length
        are pairs ``(P, Q)`` of ``(P + Q sqrt(d))/R``.  ``_grid`` is ``(R, d,
        bounds, rows)``, with the domain boundaries ``[origin, cut..., end]``
        and one ``(letter, right P, right Q, tau P, tau Q)`` per piece;
        ``_image_cuts`` are the boundaries of the image partition.  One loop
        over the image order records each letter's image left end, and one
        over the alphabet appends each bound with its row."""
        self._alphabet, self._image_letters, self._lens = alphabet, image, lengths
        image_cuts, image_left = [origin], {}
        for c in image:
            image_left[c] = (P, Q) = image_cuts[-1]
            lp, lq = lengths[c]
            image_cuts.append((P + lp, Q + lq))
        bounds, rows = [origin], []
        for c in alphabet._letters:
            (P, Q), (lp, lq), (ip, iq) = bounds[-1], lengths[c], image_left[c]
            bounds.append((P + lp, Q + lq))
            rows.append((c, P + lp, Q + lq, ip - P, iq - Q))
        self._grid, self._image_cuts, self._table = (R, d, tuple(bounds), tuple(rows)), image_cuts, None

    # -- structure ----------------------------------------------------------

    @property
    def alphabet(self) -> OrderedAlphabet:
        return self._alphabet

    @cached_property
    def permutation(self) -> Permutation:
        """Built from the image order on first read; a Rauzy state is placed without it."""
        return Permutation.from_one_line_letters("".join(self._image_letters), self._alphabet)

    @property
    def origin(self) -> QuadNum:
        return self.domain.left

    @property
    def d(self) -> int:
        return len(self._alphabet)

    @property
    def radicand(self) -> int:
        """The radicand shared by the instance's irrational numbers; 0 when
        every length and the origin are rational."""
        return self._grid[1]

    def length(self, letter: str) -> QuadNum:
        self._alphabet.rank(letter)
        return self._lengths[letter]

    @property
    def lengths(self) -> dict[str, QuadNum]:
        return dict(self._lengths)

    def image_order_letters(self) -> tuple[str, ...]:
        return self._image_letters

    def interval(self, letter: str) -> Interval:
        """The domain piece of ``letter``."""
        i = self._alphabet.rank(letter)
        return Interval(self._bounds[i], self._bounds[i + 1])

    def translation(self, letter: str) -> QuadNum:
        self._alphabet.rank(letter)
        return self._tau[letter]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Iet):
            return NotImplemented
        # R is the least common denominator of the origin and the lengths,
        # so equal numbers have equal pairs.
        return (
            self._alphabet == other._alphabet
            and self._image_letters == other._image_letters
            and self._grid == other._grid
        )

    def __repr__(self) -> str:
        lens = ", ".join(f"{c}={self._lengths[c]}" for c in self._alphabet)
        return (
            f"Iet({self._alphabet}, pi={''.join(self._image_letters)}, "
            f"{lens}, origin={self.origin})"
        )

    # -- QuadNum views of the lattice, built on first read -----------------------

    def _nums(self, pairs) -> list[QuadNum]:
        R, d, _, _ = self._grid
        return [QuadNum(P, Q, R, d) for P, Q in pairs]

    @cached_property
    def domain(self) -> Interval:
        bounds = self._grid[2]
        return Interval(*self._nums((bounds[0], bounds[-1])))

    @cached_property
    def _bounds(self) -> list[QuadNum]:
        return self._nums(self._grid[2])

    @cached_property
    def _image_bounds(self) -> list[QuadNum]:
        return self._nums(self._image_cuts)

    @cached_property
    def _lengths(self) -> dict[str, QuadNum]:
        return dict(zip(self._alphabet, self._nums(self._lens[c] for c in self._alphabet)))

    @cached_property
    def _tau(self) -> dict[str, QuadNum]:
        return dict(zip(self._alphabet, self._nums(row[3:] for row in self._grid[3])))

    # -- lattice loops -----------------------------------------------------------

    def _cuts(self, level: list[tuple[str, int, int]]) -> list[tuple[int, int]]:
        """The range ``[first, hi)`` of the entries of ``level`` whose images
        meet each piece, in alphabet order, for :meth:`_refine`.

        The level is cut at each interior bound, found by one binary search;
        an image that straddles the bound is in the ranges of both sides.
        """
        _, d, bounds, _ = self._grid
        cuts, first, size = [], 0, len(level)
        for bp, bq in bounds[1:-1]:
            lo, hi = first, size
            while lo < hi:  # past the last entry whose left end is at most the bound
                mid = (lo + hi) >> 1
                if _lt(bp - level[mid][1], bq - level[mid][2], d):
                    hi = mid
                else:
                    lo = mid + 1
            cuts.append((first, lo - (level[lo - 1][1:] == (bp, bq))))  # no straddle
            first = lo - 1
        cuts.append((first, size))
        return cuts

    def _refine(
        self, level: list[tuple[str, int, int]], cuts: list[tuple[int, int]] | None = None
    ) -> list[tuple[str, int, int]]:
        """The words one letter longer than those of ``level``, in image order;
        ``cuts`` are those of :meth:`_cuts`, computed when not given.

        An entry ``(w, P, Q)`` is a word with the left end of
        ``T^|w|(cyl(w))`` on the lattice.  The images of one length tile the
        domain, so a level in image order is sorted by left end and each
        image ends where the next begins.  The level is cut at each interior
        bound; an image that straddles the bound gives an entry to each side,
        the right one starting at the bound.  The part in the piece of ``c``,
        extended by ``c`` and moved by its translation, tiles the image piece
        of ``c``, so the parts concatenate in image order.  The cuts obey the
        left-end lemma: if ``T^j(x)`` is an interior bound ``b`` with
        ``j < k``, then ``x`` is the left end of its cylinder of length ``k``,
        or ``T^j`` would move some ``[x - e, x]`` inside it onto
        ``[b - e, b]``, which meets two pieces.
        """
        _, _, bounds, rows = self._grid
        parts = {}
        for (c, _, _, tp, tq), (lp, lq), (first, hi) in zip(rows, bounds, cuts or self._cuts(level)):
            parts[c] = [(level[first][0] + c, lp + tp, lq + tq)]
            parts[c] += [(w + c, P + tp, Q + tq) for w, P, Q in level[first + 1 : hi]]
        return [e for c in self._image_letters for e in parts[c]]

    def _levels(self, n: int) -> Iterator[tuple[list[tuple[str, int, int]], list[int]]]:
        """``(level, order)`` for the words of lengths ``0..n``: the level of
        :meth:`_refine`, in image order, and the indices of its entries in the
        alphabet order of their words.

        The order is carried by the children rule: the children ``cyl(wc)``
        of ``cyl(w)`` run left to right in letter order, so the next order is
        this one with each entry replaced by its children in letter order.
        The part of piece ``c`` starts at its offset in the next level, so
        the child in ``c`` of entry ``i`` of its range ``[first, hi)`` sits at
        ``offset(c) + i - first``.
        """
        letters, image = self._alphabet.letters, self._image_letters
        level, order = [("", *self._grid[2][0])], [0]
        yield level, order
        for _ in range(n):
            cuts = self._cuts(level)
            size = dict(zip(letters, (hi - first for first, hi in cuts)))
            offset = dict(zip(image, accumulate(map(size.get, image), initial=0)))
            shifts = [offset[c] - first for c, (first, _) in zip(letters, cuts)]
            # Each entry's child in the first piece it meets: earlier pieces write last.
            child = [0] * len(level)
            for (first, hi), shift in reversed(list(zip(cuts, shifts))):
                child[first:hi] = range(first + shift, hi + shift)
            order = [child[i] for i in order]
            # The entry that starts a range and ends the one before straddles
            # their bound: its child in the right piece follows the left one.
            for k, (i, _) in enumerate(cuts[1:], 1):
                if i < cuts[k - 1][1]:
                    order.insert(order.index(i + shifts[k - 1]) + 1, i + shifts[k])
            level = self._refine(level, cuts)
            yield level, order

    def _blocks(self) -> tuple[list[int], list[int], list[str], list[tuple], list[tuple], list[tuple]]:
        """The block table: ``(lefts P, lefts Q, words, shifts, steps, successors)``.

        One entry per cylinder of the words of length ``_K``, in left-end
        order, which is the alphabet order of the words that
        :meth:`_levels` carries by the children rule: the left end on the
        lattice, the word, the translation of T^K on it, the ``_K`` prefix
        sums of the word's translations (the first is zero; the point ``j``
        letters into the block is its start plus ``steps[i][j]``), and the
        range ``[lo, hi)`` of the blocks that T^K of the cylinder meets,
        from one merge of the images with the left ends.  By the left-end
        lemma of :meth:`_refine`, a point that meets an interior bound within
        ``_K`` steps is a left end.  Built on first orbit use, since Rauzy
        states never walk orbits.
        """
        if self._table is None:
            _, d, _, rows = self._grid
            for level, order in self._levels(_K):
                pass
            tau = {c: (tp, tq) for c, _, _, tp, tq in rows}
            lefts_p, lefts_q, words, shifts, steps = [], [], [], [], []
            for m in order:
                w, lp, lq = level[m]
                sp = sq = 0
                prefix = []
                for c in w:
                    prefix.append((sp, sq))
                    tp, tq = tau[c]
                    sp, sq = sp + tp, sq + tq
                lefts_p.append(lp - sp)
                lefts_q.append(lq - sq)
                words.append(w)
                shifts.append((sp, sq))
                steps.append(tuple(prefix))
            # An image [L, L') meets the blocks from the last left end at or
            # below L to the last one below L'.
            firsts, j = [], 0
            for _, lp, lq in level:
                while j + 1 < len(level) and not _lt(lp - lefts_p[j + 1], lq - lefts_q[j + 1], d):
                    j += 1
                firsts.append(j)
            tops = [j + ((lefts_p[j], lefts_q[j]) != e[1:]) for j, e in zip(firsts[1:], level[1:])]
            ranges = list(zip(firsts, tops + [len(level)]))
            self._table = (lefts_p, lefts_q, words, shifts, steps, [ranges[m] for m in order])
        return self._table

    def _on_lattice(self, *values: QuadNum) -> tuple[int, int, list[tuple[int, int]]]:
        """``(m, d, pairs)``: ``values`` on ``(1/(mR))(Z + Z sqrt(d))``, the least
        ``m`` that holds them; a rational instance takes the first radicand it
        meets, and another raises ``mismatched radicands: sqrt(value) vs sqrt(instance)``."""
        R, d, _, _ = self._grid
        S = R
        for v in values:
            if v.d and d and v.d != d:
                raise _mismatch(v.d, d)
            d = d or v.d
            S = lcm(S, v.r) if S % v.r else S
        return S // R, d, [_at(v, S) for v in values]

    def _walk(self, x: QuadNum) -> Iterator[tuple[int, int, int]]:
        """``(i, P, Q)`` for x, T^K(x), T^2K(x), ...: each point on the
        lattice refined by :meth:`_on_lattice` for ``x``, with the index of
        the block whose cylinder contains it; the table is read times ``m``.
        The next ``_K`` letters are the block's word, and the next point's
        block is searched for in the block's range only.  By the left-end
        lemma of :meth:`_refine`, that range is cut only where orbits meet an
        interior bound within ``_K`` steps.

        ``x`` is located with :meth:`letter_at` first, so a point outside the
        domain or of another radicand raises as it does there.
        """
        self.letter_at(x)
        lefts_p, lefts_q, _, shifts, _, successors = self._blocks()
        m, d, ((P, Q),) = self._on_lattice(x)
        lo, hi = 0, len(lefts_p)
        while True:
            # The last left end at or below the point; the first is the origin.
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if _lt(P - lefts_p[mid] * m, Q - lefts_q[mid] * m, d):
                    hi = mid
                else:
                    lo = mid
            yield lo, P, Q
            tp, tq = shifts[lo]
            P, Q = P + tp * m, Q + tq * m
            lo, hi = successors[lo]

    # -- dynamics -------------------------------------------------------------

    def letter_at(self, x: QuadNum) -> str:
        """The letter of the domain piece containing ``x``."""
        i = bisect_right(self._bounds, x)
        if 0 < i < len(self._bounds):
            return self._alphabet.letters[i - 1]
        raise ValueError(f"point {x} is outside the domain {self.domain}")

    def apply(self, x: QuadNum) -> QuadNum:
        return x + self._tau[self.letter_at(x)]

    def apply_inverse(self, y: QuadNum) -> QuadNum:
        i = bisect_right(self._image_bounds, y)
        if 0 < i < len(self._image_bounds):
            return y - self._tau[self._image_letters[i - 1]]
        raise ValueError(f"point {y} is outside the domain {self.domain}")

    def discontinuities(self) -> tuple[tuple[QuadNum, ...], tuple[QuadNum, ...]]:
        """(D(T), D(T^-1)): interior division points of the domain and image partitions."""
        return tuple(self._bounds[1:-1]), tuple(self._image_bounds[1:-1])

    def check_keane(self, depth: int = DEFAULT_KEANE_DEPTH) -> KeaneVerdict:
        """Search for a connection by iterating each inverse-discontinuity forward.

        Exact equality tests only; finding nothing up to ``depth`` certifies
        regularity to that depth and no further.  A block's points are tested
        only when it starts at the left end of its cylinder, since by the
        left-end lemma of :meth:`_refine` a point that meets an interior
        bound within ``_K`` steps is one.
        """
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        R, d, bounds, _ = self._grid
        lefts_p, lefts_q, _, _, steps, _ = self._blocks()
        targets = set(bounds[1:-1])
        # Image cuts are sums of bounds and translations, so they lie on the
        # instance's lattice and their orbits keep its R.
        for x in self._image_bounds[1:-1]:
            for start, (i, P, Q) in zip(range(0, depth + 1, _K), self._walk(x)):
                if P != lefts_p[i] or Q != lefts_q[i]:
                    continue
                for n, (sp, sq) in enumerate(steps[i][: depth + 1 - start], start):
                    if (P + sp, Q + sq) in targets:
                        y = QuadNum(P + sp, Q + sq, R, d)
                        return KeaneVerdict(regular_to_depth=n - 1, failure=Connection(x, y, n))
        return KeaneVerdict(regular_to_depth=depth)

    def trajectory(self, x: QuadNum, n: int) -> str:
        """The first ``n`` letters of the orbit coding of ``x``."""
        if n < 0:
            raise ValueError("trajectory length must be nonnegative")
        words = self._blocks()[2]
        return "".join([words[i] for i, _, _ in islice(self._walk(x), -(-n // _K))])[:n]

    def cylinder(self, w: str) -> Interval:
        """Largest interval whose points have trajectories starting with ``w``.

        The empty word gives the whole domain; an empty result means the word
        is not in the language.
        """
        self._alphabet.require(w)
        state = self._cylinder_rule(w)
        if state is None:
            return EMPTY
        R, d, _, _ = self._grid
        lp, lq, hp, hq, sp, sq = state
        return Interval(QuadNum(lp - sp, lq - sq, R, d), QuadNum(hp - sp, hq - sq, R, d))

    def _cylinder_rule(self, w: str, state: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
        """``state`` advanced by the letters of ``w``, or None once the cylinder is empty.

        The state of a k-letter word u is ``(lo, hi, shift)``, three lattice
        pairs laid out flat as six integers: ``[lo, hi)`` is ``T^k`` of the
        cylinder of u and ``shift`` the translation ``T^k`` applies there, so
        the cylinder is ``[lo - shift, hi - shift)``.  Since ``cyl(uc) =
        cyl(u) ∩ (I_c - shift)``, a letter cuts ``[lo, hi)`` to the piece of c
        and moves it by that piece's translation.  No ``state`` starts from
        the domain, the empty word's.
        """
        _, d, bounds, rows = self._grid
        rank = self._alphabet.rank
        lp, lq, hp, hq, sp, sq = state or (*bounds[0], *bounds[-1], 0, 0)
        for c in w:
            i = rank(c)
            (ap, aq), (bp, bq) = bounds[i], bounds[i + 1]
            _, _, _, tp, tq = rows[i]
            if _lt(lp - ap, lq - aq, d):
                lp, lq = ap, aq
            if _lt(bp - hp, bq - hq, d):
                hp, hq = bp, bq
            if not _lt(lp - hp, lq - hq, d):
                return None
            lp, lq, hp, hq, sp, sq = lp + tp, lq + tq, hp + tp, hq + tq, sp + tp, sq + tq
        return lp, lq, hp, hq, sp, sq

    def language(self, n: int) -> Language:
        """All factors of length <= n, by exact cylinder refinement.

        ``by_length`` lists each length in alphabet order, carried by the
        children rule (the children ``cyl(wc)`` of ``cyl(w)`` run left to
        right in letter order, see :meth:`_levels`), so no word is sorted.
        """
        if n < 0:
            raise ValueError("maximal length must be nonnegative")
        return Language(tuple(level[i][0] for i in order) for level, order in self._levels(n))

    def first_return(self, sub: Interval, z: QuadNum, cap: int = 10_000) -> tuple[QuadNum, int]:
        """First re-entry of the orbit of ``z`` into ``sub``: (landing point, steps).

        ``z`` and the ends of ``sub`` are followed as pairs from :meth:`_on_lattice`,
        the rows read times its ``m``; two radicands are refused there, after
        the QuadNum tests that meet them first.
        """
        if cap <= 0:
            raise ValueError("cap must be positive")
        outside = "the return interval must be a nonempty part of the domain"
        if sub.is_empty:
            raise ValueError(outside)
        R, _, ((op, oq), *_, (ep, eq)), rows = self._grid
        values = [QuadNum(v) if isinstance(v, int) else v for v in (z, sub.left, sub.right)]
        try:
            m, d, ((P, Q), (lp, lq), (hp, hq)) = self._on_lattice(*values)
        except ValueError:
            if not self.domain.contains_interval(sub):
                raise ValueError(outside) from None
            if not sub.contains(z):
                raise ValueError(f"point {z} is not in the return interval {sub}") from None
            raise
        if _lt(lp - op * m, lq - oq * m, d) or _lt(ep * m - hp, eq * m - hq, d):
            raise ValueError(outside)
        if _lt(P - lp, Q - lq, d) or not _lt(P - hp, Q - hq, d):
            raise ValueError(f"point {z} is not in the return interval {sub}")
        for steps in range(1, cap + 1):
            for _, rp, rq, tp, tq in rows:
                if _lt(P - rp * m, Q - rq * m, d):
                    break
            P, Q = P + tp * m, Q + tq * m
            if not _lt(P - lp, Q - lq, d) and _lt(P - hp, Q - hq, d):
                return QuadNum(P, Q, R * m, d), steps
        raise CapExceededError(f"no return to {sub} within {cap} steps from {z}")

    def return_words_scan(self, w: str, horizon: int | None = None, expected: int | None = None) -> frozenset[str]:
        """Return words to ``w`` read off one trajectory.

        Starting from the midpoint of the cylinder of ``w``, the trajectory is
        cut at successive occurrences of ``w`` (overlaps included); the pieces
        between consecutive occurrence starts are the return words.  The scan
        stops once ``expected`` (at least 1) distinct words are found and raises
        :class:`IncompleteScanError` if the horizon (at least 1) runs out
        first.  The return words of the empty word are the letters.
        """
        if expected is not None and expected <= 0:
            raise ValueError("expected must be positive")
        if horizon is not None and horizon <= 0:
            raise ValueError("horizon must be positive")
        if not w:
            return frozenset(self._alphabet.letters)
        block = self.cylinder(w)
        if block.is_empty:
            raise ValueError(f"{w!r} is not in the language of this transformation")
        if expected is None:
            expected = self.d
        if horizon is None:
            horizon = 200 * len(w) * self.d
        k = len(w)
        words = self._blocks()[2]
        found: set[str] = set()
        text = ""
        prev_start: int | None = None
        for i, _, _ in self._walk(block.midpoint()):
            text += words[i]
            # Occurrences that end in the new block and not past the
            # horizon, in order.
            start = text.find(w, max(0, len(text) - _K - k + 1), horizon)
            while start >= 0:
                if prev_start is not None:
                    found.add(text[prev_start:start])
                    if len(found) >= expected:
                        return frozenset(found)
                prev_start = start
                start = text.find(w, start + 1, horizon)
            if len(text) >= horizon:
                break
        raise IncompleteScanError(
            f"horizon {horizon} exhausted with {len(found)} of {expected} return words for {w!r}",
            frozenset(found),
        )
