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
one string, so a transform of n letters takes O(log_T n) rounds of
O(n log n) string comparisons and O(T n) memory.  Ranks are code points,
starting from the alphabet's rank digits (:meth:`OrderedAlphabet.key`), so a
transform takes at most MAX_TRANSFORM_LETTERS letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .words import OrderedAlphabet, Permutation, _cycle_words, is_lyndon, parikh

# A rotation sort round multiplies the compared prefix length by _T.
_T = 16
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


def _rotation_sort(entries: tuple[str, ...], alphabet: OrderedAlphabet, span: int) -> str:
    """Last letters of the rotations of all ``entries``, sorted by the
    infinite periodic words they start, compared on their first ``span``
    letters.

    Each position carries one digit, a character whose code point is the
    rank of its first k letters: its alphabet rank when k is 1.  A round
    keys each position by the digits of the T positions k letters apart
    from it in the same entry, an extended slice of the entry's digits
    repeated, which ranks its first T*k letters.  Rounds stop once every
    key is distinct or the keys rank ``span`` letters; positions still tied
    then start the same rotation, so they carry the same last letter.
    """
    digits = "".join(map(alphabet.key, entries))
    keys: Sequence[str] = digits
    unique = set(keys)
    n = len(keys)
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
            ext = digits[start : start + m] * -(-(m + (_T - 1) * step) // m)
            keys += [ext[i : i + _T * step : step] for i in range(m)]
            start += m
        unique = set(keys)
        k *= _T
    last = "".join(w[-1] + w[:-1] for w in entries)
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
    return _rotation_sort((w,), alphabet, len(w))


def _require_lyndon_entries(entries: tuple[str, ...], alphabet: OrderedAlphabet) -> None:
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
    entries = tuple(entries)
    _require_size(sum(map(len, entries)))
    _require_lyndon_entries(entries, alphabet)
    # Two distinct powers u^w and v^w differ within |u| + |v| letters, so
    # prefixes of twice the longest entry decide the omega-order exactly.
    return _rotation_sort(entries, alphabet, 2 * max(len(w) for w in entries))


def inverse_ebwt(s: str, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    """The unique Lyndon multiset whose extended transform is ``s``.

    Computed through the standard permutation sigma: positions of ``s`` are
    stably sorted by letter, and the i-th position of the sorted column is
    matched with the i-th occurrence of the same letter in ``s``.  The
    letters of ``s`` along each cycle of sigma spell a conjugate of one
    entry, and its Lyndon conjugate is that entry.
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
    return _cycle_words(sigma, s, alphabet)


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
