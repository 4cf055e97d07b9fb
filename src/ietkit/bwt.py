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

Both transforms share one rotation sort by prefix doubling: each round
ranks every cyclic position by its first 2m letters, packing the ranks of
its first m letters and of the m letters after them into one integer, so
a transform of n letters takes O(n log^2 n) time and O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from .words import OrderedAlphabet, Permutation, is_lyndon, lyndon_representative, parikh


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

    A round replaces the rank of each position's first k letters by the
    rank of its first 2k: the pair (its own rank, the rank of the position
    k letters further on in the same entry) packed into one integer.  Rounds stop once every rank
    is distinct or k reaches ``span``; positions still tied then start the
    same rotation, so they carry the same last letter.
    """
    ranks: list[int] = []
    for w in entries:
        ranks += alphabet.key(w)
    n = len(ranks)
    # Ranks are alphabet ranks in the first round and below n afterwards.
    base = max(n, len(alphabet))
    distinct = len(set(ranks))
    k = 1
    while k < span and distinct < n:
        shifted: list[int] = []
        start = 0
        for w in entries:
            end = start + len(w)
            cut = start + k % len(w)
            shifted += ranks[cut:end]
            shifted += ranks[start:cut]
            start = end
        keys = [a * base + b for a, b in zip(ranks, shifted)]
        dense = {key: r for r, key in enumerate(sorted(set(keys)))}
        ranks = [dense[key] for key in keys]
        distinct = len(dense)
        k *= 2
    last = "".join(w[-1] + w[:-1] for w in entries)
    return "".join([last[p] for p in sorted(range(n), key=ranks.__getitem__)])


def bwt(w: str, alphabet: OrderedAlphabet) -> str:
    """Last letters of the lexicographically sorted rotations of ``w``."""
    if not w:
        raise ValueError("cannot transform the empty word")
    return _rotation_sort((w,), alphabet, len(w))


def _require_lyndon_entries(entries: tuple[str, ...], alphabet: OrderedAlphabet) -> None:
    if not entries:
        raise ValueError("empty multiset")
    for w in entries:
        alphabet.require(w)
        if not is_lyndon(w, alphabet):
            raise ValueError(f"multiset entry {w!r} is not a Lyndon word over {alphabet}")


def ebwt(entries: Iterable[str], alphabet: OrderedAlphabet) -> str:
    """Extended transform of a multiset of Lyndon words.

    Rotations of all entries are sorted by omega-order; rotations with equal
    infinite powers are identical strings, so ties cannot change the output.
    """
    entries = tuple(entries)
    _require_lyndon_entries(entries, alphabet)
    # Two distinct powers u^w and v^w differ within |u| + |v| letters, so
    # prefixes of twice the longest entry decide the omega-order exactly.
    return _rotation_sort(entries, alphabet, 2 * max(len(w) for w in entries))


def inverse_ebwt(s: str, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    """The unique Lyndon multiset whose extended transform is ``s``.

    Computed through the standard permutation: positions of ``s`` are stably
    sorted by letter, the i-th position of the sorted column is matched with
    the i-th occurrence of the same letter in ``s``, and each cycle of that
    matching spells one word, normalized to its Lyndon representative.
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
    seen = [False] * len(s)
    words = []
    for start in range(len(s)):
        if seen[start]:
            continue
        letters = []
        i = start
        while not seen[i]:
            seen[i] = True
            i = sigma[i]
            letters.append(s[i])
        words.append(lyndon_representative("".join(letters), alphabet))
    return tuple(sorted(words, key=alphabet.key))


def _block_report(transform: str, alphabet: OrderedAlphabet) -> ClusteringReport:
    runs: list[str] = []
    for c in transform:
        if not runs or runs[-1] != c:
            runs.append(c)
    support = alphabet.restrict(transform)
    clustering = len(runs) == len(support)
    perm = None
    if clustering:
        perm = Permutation(support.rank(c) for c in runs)
    return ClusteringReport(
        transform=transform,
        is_clustering=clustering,
        block_order=tuple(runs),
        support=support,
        permutation=perm,
        is_perfect=clustering and perm.is_symmetric,
    )


def clustering_report(w: str, alphabet: OrderedAlphabet) -> ClusteringReport:
    """Block analysis of bwt(w), evaluated on the support alphabet."""
    return _block_report(bwt(w, alphabet), alphabet)


def multiset_clustering_report(entries: Iterable[str], alphabet: OrderedAlphabet) -> ClusteringReport:
    """Block analysis of the extended transform of a Lyndon multiset."""
    return _block_report(ebwt(entries, alphabet), alphabet)


def multiset_parikh(entries: Iterable[str], alphabet: OrderedAlphabet) -> dict[str, int]:
    """Summed letter counts of a multiset."""
    counts = dict.fromkeys(alphabet.letters, 0)
    for w in entries:
        for c, k in parikh(w, alphabet).items():
            counts[c] += k
    return counts
