"""Burrows-Wheeler transform, its multiset extension, and clustering analysis.

The plain transform sorts all rotations of a word lexicographically and reads
their last letters.  The multiset extension takes a multiset of Lyndon words,
sorts the rotations of all entries by the omega-order (u before v when the
infinite power u^w is lexicographically smaller), and is a bijection onto
arbitrary strings; :func:`inverse_ebwt` inverts it through the standard
permutation.  A word is clustering when its transform consists of one
contiguous block per letter; the block order then defines a permutation of
the support alphabet, and the word is perfectly clustering when that
permutation is order-reversing.

Both transforms share one rotation sort that multiplies the compared
prefix by T each round: the key of a cyclic position is its own rank and
the ranks of the positions k, 2k, ..., (T-1)k letters after it, read as
one string.  T is the square root of the compared span, held between 16
and 64, so a span of up to 4096 letters takes at most two rounds of
O(n log n) string comparisons and O(T n) memory.  A repeated entry is sorted
once.  Ranks are code points, from the alphabet's rank digits
(:meth:`OrderedAlphabet.key`), so a transform takes at most MAX_TRANSFORM_LETTERS letters.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from math import isqrt

from .words import OrderedAlphabet, Permutation, _cycle_words, is_lyndon, parikh

# A rotation sort round multiplies the compared prefix by T = ⌈√span⌉, held in [_T, _T_MAX].
_T = 16
_T_MAX = 64
# Digits are code points, so the sort ranks at most this many positions.
MAX_TRANSFORM_LETTERS = 0x10FFFF


@dataclass(frozen=True)
class ClusteringReport:
    """Block analysis of a transform.

    ``block_order`` is the sequence of run letters of the transform (one per
    support letter exactly when ``is_clustering``).  ``permutation`` sends
    position i to the i-th block letter on the support alphabet; it is None
    for non-clustering input.  ``is_perfect`` means clustering with the
    order-reversing permutation.
    """

    transform: str
    is_clustering: bool
    block_order: tuple[str, ...]
    support: OrderedAlphabet
    permutation: Permutation | None
    is_perfect: bool


def _rotation_sort(copies: dict[str, int], alphabet: OrderedAlphabet, span: int) -> str:
    """Last letters of the rotations of the entries of ``copies``, once per
    copy, sorted by the infinite periodic words they start, compared on
    their first ``span`` letters.

    Each position carries one digit, a character whose code point is the
    rank of its first k letters: its alphabet rank when k is 1.  A round
    keys each position by the digits of the T positions k letters apart
    from it in the same entry, an extended slice of the entry's digits
    repeated, which ranks its first T*k letters.  Rounds stop once every
    key is distinct or the keys rank ``span`` letters; positions still tied
    then start the same rotation, so they carry the same last letter.
    """
    entries = tuple(copies)
    digits = "".join(map(alphabet.key, entries))
    keys: Sequence[str] = digits
    unique = set(keys)
    n = len(keys)
    t = min(_T_MAX, max(_T, isqrt(span - 1) + 1))
    k = 1
    while k < span and len(unique) < n:
        if k > 1:
            rank = dict(zip(sorted(unique), map(chr, range(len(unique)))))
            digits = "".join(map(rank.__getitem__, keys))
        keys = []
        start = 0
        for w in entries:
            m = len(w)
            step = (k - 1) % m + 1  # k letters further on, cyclically
            ext = digits[start : start + m] * -(-(m + (t - 1) * step) // m)
            keys += [ext[i : i + t * step : step] for i in range(m)]
            start += m
        unique = set(keys)
        k *= t
    last = "".join(w[-1] + w[:-1] for w in entries)
    if len(entries) < sum(copies.values()):
        last = [c * copies[w] for w in entries for c in w[-1] + w[:-1]]
    return "".join([last[p] for p in sorted(range(n), key=keys.__getitem__)])


def _require_size(letters: int) -> None:
    """Refuse, before any work, more letters than the digits can rank."""
    if letters > MAX_TRANSFORM_LETTERS:
        raise ValueError(
            f"a transform of {letters} letters is over the bound of {MAX_TRANSFORM_LETTERS} letters"
        )


def bwt(w: str, alphabet: OrderedAlphabet) -> str:
    """Last letters of the lexicographically sorted rotations of ``w``."""
    if not w:
        raise ValueError("cannot transform the empty word")
    _require_size(len(w))
    return _rotation_sort({w: 1}, alphabet, len(w))


def _require_lyndon_entries(entries: Collection[str], alphabet: OrderedAlphabet) -> None:
    if not entries:
        raise ValueError("empty multiset")
    for w in entries:
        if not is_lyndon(w, alphabet):
            raise ValueError(f"multiset entry {w!r} is not a Lyndon word over {alphabet}")


def ebwt(entries: Iterable[str], alphabet: OrderedAlphabet) -> str:
    """Extended transform of a multiset of Lyndon words.

    Rotations of all entries are sorted by omega-order; rotations with equal
    infinite powers are identical strings, so ties cannot change the output.
    """
    copies = Counter(entries)
    _require_size(sum(len(w) * c for w, c in copies.items()))
    _require_lyndon_entries(copies, alphabet)
    # Two distinct powers u^w and v^w differ within |u| + |v| letters, so
    # prefixes of twice the longest entry decide the omega-order exactly.
    return _rotation_sort(copies, alphabet, 2 * max(map(len, copies)))


def inverse_ebwt(s: str, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    """The unique Lyndon multiset whose extended transform is ``s``.

    Computed through the standard permutation sigma: positions of ``s`` are
    stably sorted by letter, and the i-th position of the sorted column is
    matched with the i-th occurrence of the same letter in ``s``.  Sigma
    sends each sorted rotation to the one a letter on, so the sorted column
    along a cycle spells an entry from its least rotation, the entry itself.
    """
    if not s:
        raise ValueError("cannot invert the empty string")
    alphabet.require(s)
    occurrences: dict[str, list[int]] = {}
    for i, c in enumerate(s):
        occurrences.setdefault(c, []).append(i)
    # The stable sort by letter is the ascending occurrence lists read in
    # alphabet order.  Its i-th position holds the i-th occurrence of its
    # letter, so the sorted positions are the standard permutation itself.
    sigma = [i for c in alphabet.letters for i in occurrences.get(c, ())]
    first = "".join([c * len(occurrences.get(c, ())) for c in alphabet.letters])
    return _cycle_words(sigma, first, alphabet)


def _block_report(transform: str, alphabet: OrderedAlphabet) -> ClusteringReport:
    runs: list[str] = []
    for c in transform:
        if not runs or runs[-1] != c:
            runs.append(c)
    support = alphabet.restrict(transform)
    clustering = len(runs) == len(support)
    perm = None
    if clustering:
        perm = Permutation.from_one_line_letters("".join(runs), support)
    return ClusteringReport(
        transform=transform,
        is_clustering=clustering,
        block_order=tuple(runs),
        support=support,
        permutation=perm,
        is_perfect=clustering and perm.is_symmetric,
    )


def clustering_report(w: str, alphabet: OrderedAlphabet) -> ClusteringReport:
    """Block analysis of bwt(w), evaluated on the support alphabet.  Every
    rotation of ``w`` has the same transform, and so the same report."""
    return _block_report(bwt(w, alphabet), alphabet)


def multiset_clustering_report(entries: Iterable[str], alphabet: OrderedAlphabet) -> ClusteringReport:
    """Block analysis of the extended transform of a Lyndon multiset."""
    return _block_report(ebwt(entries, alphabet), alphabet)


def multiset_parikh(entries: Iterable[str], alphabet: OrderedAlphabet) -> dict[str, int]:
    """Summed letter counts of a multiset."""
    return parikh("".join(entries), alphabet)
