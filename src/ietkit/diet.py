"""Discrete interval exchanges on {1, ..., n}.

A composition (n_1, ..., n_d) of n and a permutation define the bijection
T(k) = k + t_i on the i-th block, where the i-th block is the right-closed
range after the first n_1 + ... + n_{i-1} integers and t_i shifts it onto
its slot in image order.  The map is always periodic; its orbits, coded by
block letters, spell a multiset of Lyndon words whose summed letter counts
recover the composition.  Conversely a clustering multiset determines a
discrete exchange through its letter counts, and the two constructions are
mutually inverse.

Blocks here follow the right-closed 1-indexed convention; the embedding into
real intervals maps the integer k to the cell [k-1, k), so block i becomes
the left-closed piece of the matching interval exchange.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .bwt import multiset_clustering_report, multiset_parikh
from .iet import Iet
from .words import OrderedAlphabet, Permutation, _cycle_words


class Diet:
    """A discrete interval exchange: composition plus permutation."""

    def __init__(self, composition: Sequence[int], permutation: Permutation):
        composition = tuple(composition)
        if not composition:
            raise ValueError("the composition must have at least one part")
        if any(part < 1 for part in composition):
            raise ValueError(f"composition parts must be positive, got {composition}")
        if len(permutation) != len(composition):
            raise ValueError("permutation size does not match the number of parts")
        self._composition = composition
        self._perm = permutation
        self._n = sum(composition)

        starts = [0]
        for part in composition:
            starts.append(starts[-1] + part)
        image_starts = [0] * len(composition)
        offset = 0
        for pos in range(len(composition)):
            i = permutation(pos)
            image_starts[i] = offset
            offset += composition[i]
        self._shifts = tuple(image_starts[i] - starts[i] for i in range(len(composition)))
        self._starts = tuple(starts)

    @property
    def composition(self) -> tuple[int, ...]:
        return self._composition

    @property
    def permutation(self) -> Permutation:
        return self._perm

    @property
    def n(self) -> int:
        return self._n

    @property
    def shifts(self) -> tuple[int, ...]:
        """The per-block translations t_1, ..., t_d."""
        return self._shifts

    def block_of(self, k: int) -> int:
        """0-based block index of the integer k (1 <= k <= n, right-closed blocks)."""
        if not 1 <= k <= self._n:
            raise ValueError(f"{k} is outside 1..{self._n}")
        return bisect_left(self._starts, k) - 1

    def apply(self, k: int) -> int:
        return k + self._shifts[self.block_of(k)]

    def __repr__(self) -> str:
        return f"Diet({list(self._composition)}, {self._perm!r})"


def diet_action(diet: Diet) -> Permutation:
    """The action on {1..n} as a permutation (0-based internally).

    Block i holds the integers start + 1 .. start + n_i and shifts them by
    t_i, so its 0-based images are one run, range(start + t_i, start + n_i + t_i).
    """
    images: list[int] = []
    for start, part, shift in zip(diet._starts, diet.composition, diet.shifts):
        images.extend(range(start + shift, start + part + shift))
    return Permutation(images)


def orbit_words(diet: Diet, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    """One Lyndon word per orbit: the block letters read along each cycle of
    :func:`diet_action`, normalized to their Lyndon conjugate and sorted.

    An orbit word is primitive: were it u^p with p >= 2, T^|u| would shift
    its start by one amount p times and come back, so by 0, and the orbit
    would close after |u| steps.
    """
    if len(alphabet) != len(diet.composition):
        raise ValueError("alphabet size does not match the number of parts")
    labels = "".join(c * part for c, part in zip(alphabet.letters, diet.composition))
    return _cycle_words(diet_action(diet).images, labels, alphabet)


def diet_cylinder(diet: Diet, w: str, alphabet: OrderedAlphabet) -> set[int]:
    """Integers whose orbit coding starts with ``w``; the empty word gives all.

    These are the cells [k-1, k) inside the cylinder of ``w`` in
    :func:`as_iet`, whose ends are integers.
    """
    cylinder = as_iet(diet, alphabet).cylinder(w)
    if cylinder.is_empty:
        return set()
    return set(range(cylinder.left.p + 1, cylinder.right.p + 1))


def diet_from_multiset(
    entries: Iterable[str], permutation: Permutation, alphabet: OrderedAlphabet
) -> Diet:
    """The discrete exchange of a clustering Lyndon multiset.

    The multiset must be clustering with exactly the given permutation; its
    summed letter counts become the composition.  Round trip:
    ``orbit_words(diet_from_multiset(W, pi, A), A) == W``.
    """
    entries = tuple(entries)
    report = multiset_clustering_report(entries, alphabet)
    if not report.is_clustering or report.permutation != permutation:
        raise ValueError(
            f"multiset is not clustering for the given permutation "
            f"(extended transform {report.transform!r})"
        )
    if report.support != alphabet:
        raise ValueError("every alphabet letter must occur in the multiset")
    counts = multiset_parikh(entries, alphabet)
    return Diet(tuple(counts[c] for c in alphabet), permutation)


def as_iet(diet: Diet, alphabet: OrderedAlphabet, origin: int = 0) -> Iet:
    """The interval exchange with integer lengths matching this discrete one.

    The integer k corresponds to the real cell [k-1, k): the real map sends
    cell midpoints exactly as the discrete map sends integers.
    """
    if len(alphabet) != len(diet.composition):
        raise ValueError("alphabet size does not match the number of parts")
    lengths = {c: diet.composition[i] for i, c in enumerate(alphabet)}
    return Iet(alphabet, diet.permutation, lengths, origin)
