"""Extension graphs and bounded-depth language classification.

For a word v in a language, the extension graph is the bipartite graph whose
left vertices are the letters a with av in the language, right vertices the
letters b with vb in the language, and edges the pairs (a, b) with avb in the
language.  A language is dendric when every extension graph is a tree,
alsinic when every one is a forest, and *ordered* dendric or alsinic for a
pair of letter orders when additionally no two edges cross: whenever
a <_1 c, every edge at a stays weakly below every edge at c in <_2.

Languages are handled as finite samples: all factors up to a declared bound,
from a periodic word, a multiset of words (union of the periodic languages),
or an interval exchange.  Every verdict is a bounded-depth verdict and the
reports say so; for a periodic word of period p, depth p + 2 already decides
the classification because factors recur with period p.

A word source holds its periods, not its factors (``PeriodicFactors``): the
factors of each length are spelled the first time a word of that length is
looked up, so ``classify`` spells only the lengths up to two past the last
one it decides, and one extension graph of v only |v| + 1 and |v| + 2.
Word sources refuse a depth whose factors would exceed
``MAX_SAMPLE_LETTERS`` letters, which bounds what spelling them costs.

``classify`` decides the words of each length k in turn.  A word v with a
single left letter a, a single right letter b, avb in the sample, a in the
first order and b in the second has a one-edge extension graph: a tree, so a
forest, and compatible, since one edge cannot cross itself and both its ends
are ranked.  Such a word fails no flag and raises nothing, so only the
remaining (special) words get an extension graph, and the verdicts,
witnesses and missing-vertex errors are those of checking every word.
Deciding a word takes 2|A| + 1 membership lookups.  A foreign symbol is
named as the least one by code point, whatever the hash order of the sample.

A sample marked ``bi_infinite`` holds every factor, up to its depth, of a set
of two-sided infinite words; the word sources and ``sample_from_iet`` mark
theirs (an interval exchange is a bijection, so its words extend on both
sides).  In such a language every suffix of a right-special word is
right-special and every prefix of a left-special word is left-special
(Berthé, De Felice, Dolce, Leroy, Perrin, Reutenauer and Rindone, *Acyclic,
connected and tree sets*, 2015), and a word v with one left letter a and one
right letter b has avb in it.  So the words of length k + 1 that ``classify``
decides are grown from the special words s of length k: a + s for each left
letter a of a right-special s, and s + b for each right letter b of a
left-special s.  That is at most 2|A| words per special word, where checking
every word reads the whole level; an exchange of d intervals has at most
d - 1 right-special and d - 1 left-special words per length.  Once a length has no special word,
nothing grows and ``classify`` stops there, with every word up to its depth
still decided.  Every symbol of such a sample is a one-letter word, so
foreign symbols are looked for among those only, and the word sources and
exchanges supply them without a scan: a word source's are its periods'
letters, an exchange's the first level of its language.  A sample built by
hand gets every word of every length decided.  An aperiodic exchange has a
special factor at every length, so its samples never stop early; periodic
words stop past their last special factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence, Set
from functools import cached_property

from .iet import Iet, Language
from .words import OrderedAlphabet, Permutation


@dataclass(frozen=True)
class LanguageSample:
    """All factors of a language up to ``max_len``, with their alphabet.

    ``bi_infinite`` says that the words are every factor, up to ``max_len``,
    of a set of two-sided infinite words, so that ``classify`` may stop at
    the first length with no special word.  The word sources and
    ``sample_from_iet`` set it; a sample built by hand leaves it ``False``
    and gets every length checked.  It is a claim about ``words``, not part
    of the sample's value, so equality ignores it.
    """

    words: Set[str]
    max_len: int
    alphabet: OrderedAlphabet
    source: str
    bi_infinite: bool = field(default=False, compare=False)

    def __contains__(self, w: object) -> bool:
        return w in self.words

    def up_to(self, k: int) -> list[str]:
        out = [w for w in self.words if len(w) <= k]
        out.sort(key=lambda w: (len(w), self.alphabet.key(w)))
        return out


# A word source with distinct periods w_1..w_m spells at most
# (|w_1| + ... + |w_m|) * max_len * (max_len + 1) / 2 letters of factors:
# |w_i| factors of each length up to max_len.  Past this many letters the
# sample is refused before it is built: it holds only its periods, but its
# lookups spell the factors one length at a time.
MAX_SAMPLE_LETTERS = 20_000_000


class SampleTooLargeError(ValueError):
    """A word-source sample whose factors would spell too many letters."""


def _require_bounded(entries: Sequence[str], max_len: int) -> None:
    period = sum(map(len, dict.fromkeys(entries)))  # a repeated entry is spelled once
    letters = period * max_len * (max_len + 1) // 2
    if letters > MAX_SAMPLE_LETTERS:
        raise SampleTooLargeError(
            f"a sample of depth {max_len} over {period} period letters would spell "
            f"{letters} letters, more than {MAX_SAMPLE_LETTERS}"
        )


class PeriodicFactors(Set):
    """Every factor of length <= ``max_len`` of the two-sided words w^Z, one
    for each of the ``entries`` w, held as their periods.

    The first |w| + ``max_len`` - 1 letters of w repeated, the window of w,
    hold every factor of w^Z of length <= ``max_len``, one starting at each
    of the |w| phases, and nothing else.  ``of_length(k)`` spells the
    factors of length k of the distinct entries' windows the first time it
    is asked and keeps them; a length past ``max_len`` has none.  A word is
    looked up in the set of its length.  Iterating, ``len`` and the hash
    read the union of every length, so the set equals and hashes as the
    frozenset of its words.
    """

    def __init__(self, entries: Sequence[str], max_len: int):
        self.entries = tuple(entries)
        self.max_len = max_len
        self._windows = {w: (w * (max_len // len(w) + 2))[: len(w) + max_len - 1] for w in self.entries}
        self._by_length: dict[int, set[str]] = {}

    def of_length(self, k: int) -> Set[str]:
        """The factors of length ``k``, spelled on first request."""
        if k > self.max_len:
            return frozenset()
        if k not in self._by_length:
            self._by_length[k] = {window[i : i + k] for w, window in self._windows.items() for i in range(len(w))}
        return self._by_length[k]

    def __contains__(self, u: object) -> bool:
        return isinstance(u, str) and u in self.of_length(len(u))

    @cached_property
    def _words(self) -> frozenset[str]:
        return frozenset().union(*map(self.of_length, range(self.max_len + 1)))

    def __iter__(self):
        return iter(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other: object) -> bool:
        return self._words == other

    def __hash__(self) -> int:
        return hash(self._words)

    @classmethod
    def _from_iterable(cls, it) -> frozenset[str]:
        return frozenset(it)

    def __repr__(self) -> str:
        return f"PeriodicFactors({self.entries!r}, max_len={self.max_len})"


def _word_sample(
    entries: Sequence[str], alphabet: OrderedAlphabet, max_len: int, source: str
) -> LanguageSample:
    """Union of the periodic languages of the nonempty ``entries``."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    for w in entries:
        alphabet.require(w)
    _require_bounded(entries, max_len)
    words = PeriodicFactors(entries, max_len)
    return LanguageSample(words=words, max_len=max_len, alphabet=alphabet, source=source, bi_infinite=True)


def sample_from_periodic(w: str, alphabet: OrderedAlphabet, max_len: int) -> LanguageSample:
    """Factors of the periodic infinite word with period ``w``."""
    if not w:
        raise ValueError("a periodic language needs a nonempty period")
    return _word_sample((w,), alphabet, max_len, f"periodic:{w}")


def sample_from_multiset(
    entries: Iterable[str], alphabet: OrderedAlphabet, max_len: int
) -> LanguageSample:
    """Union of the periodic languages of the entries."""
    entries = tuple(entries)
    if not entries:
        raise ValueError("a multiset language needs at least one word")
    if not all(entries):
        raise ValueError("a multiset language needs nonempty words")
    return _word_sample(entries, alphabet, max_len, "multiset:" + ",".join(entries))


def sample_from_iet(iet: Iet, max_len: int, label: str = "iet") -> LanguageSample:
    """Factors of an interval exchange, by exact cylinder refinement."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    return LanguageSample(
        words=iet.language(max_len),
        max_len=max_len,
        alphabet=iet.alphabet,
        source=label,
        bi_infinite=True,
    )


@dataclass(frozen=True)
class ExtensionGraph:
    word: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: frozenset[tuple[str, str]]


def _haystack(sample: LanguageSample, k: int) -> Set[str]:
    """What ``extension_graph`` and ``classify`` look words of length ``k``
    up in with ``in``: a word source's factors of that length, without the
    Python call of ``PeriodicFactors.__contains__``, or the sample's words."""
    words = sample.words
    return words.of_length(k) if isinstance(words, PeriodicFactors) else words


def _one_letter_words(words: Set[str]) -> Iterable[str]:
    """The words of length 1: the entries' letters of periodic factors, the
    first level of an exchange's language, and a scan of any other set."""
    if isinstance(words, PeriodicFactors):
        return set("".join(words.entries))
    if isinstance(words, Language):
        return words.by_length[1] if len(words.by_length) > 1 else ()
    return [w for w in words if len(w) == 1]


def extension_graph(sample: LanguageSample, v: str) -> ExtensionGraph:
    """Left/right extensions and two-sided edges of ``v`` in the sample."""
    if len(v) + 2 > sample.max_len:
        raise ValueError(
            f"word of length {len(v)} needs sample depth {len(v) + 2}, have {sample.max_len}"
        )
    sample.alphabet.require(v)
    letters = sample.alphabet.letters
    one, two = _haystack(sample, len(v) + 1), _haystack(sample, len(v) + 2)
    left = tuple(a for a in letters if a + v in one)
    right = tuple(b for b in letters if v + b in one)
    edges = frozenset((a, b) for a in left for b in right if a + v + b in two)
    return ExtensionGraph(word=v, left=left, right=right, edges=edges)


def _forest_and_tree(graph: ExtensionGraph) -> tuple[bool, bool]:
    """(forest, tree) from one union-find pass over the edges: a forest when
    no edge meets two vertices already connected.  Each edge is then one
    join, leaving vertices - edges components, so a tree when that is 1."""
    parent: dict[str, str] = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for a, b in graph.edges:
        ra, rb = find("<" + a), find(">" + b)
        if ra == rb:
            return False, False
        parent[ra] = rb
    return True, len(graph.left) + len(graph.right) - len(graph.edges) == 1


def _require_edge_ends(graph: ExtensionGraph) -> None:
    """Refuse an edge end that is not a vertex, naming the first in edge order."""
    for a, b in sorted(graph.edges):
        for end, side, vertices in ((a, "left", graph.left), (b, "right", graph.right)):
            if end not in vertices:
                raise ValueError(f"edge ({a!r}, {b!r}) has {side} end {end!r}, which is not a {side} vertex")


def is_forest(graph: ExtensionGraph) -> bool:
    """Acyclic: edges == vertices - components."""
    _require_edge_ends(graph)
    return _forest_and_tree(graph)[0]


def is_tree(graph: ExtensionGraph) -> bool:
    _require_edge_ends(graph)
    return _forest_and_tree(graph)[1]


def _ranks(order: Sequence[str]) -> dict[str, int]:
    return {c: i for i, c in enumerate(order)}


def _compatible(graph: ExtensionGraph, rank1: dict[str, int], rank2: dict[str, int]) -> bool:
    for a in graph.left:
        if a not in rank1:
            raise ValueError(f"left vertex {a!r} missing from the first order")
    for b in graph.right:
        if b not in rank2:
            raise ValueError(f"right vertex {b!r} missing from the second order")
    # Sorted by (rank1, rank2), two crossing edges a <_1 c with b >_2 d come
    # in that order, so the second ranks drop somewhere between them; and a
    # drop between neighbours (a, b), (c, d) has a <_1 c, a crossing.
    seconds = [r2 for _, r2 in sorted((rank1[a], rank2[b]) for a, b in graph.edges)]
    return seconds == sorted(seconds)


def is_compatible(graph: ExtensionGraph, order1: Sequence[str], order2: Sequence[str]) -> bool:
    """No crossing edges: a <_1 c implies b <=_2 d for all edges (a,b), (c,d).

    Equivalent check: with the edges sorted by (<_1 rank, <_2 rank), their
    <_2 ranks never decrease.  A graph with an edge end that is not one of
    its vertices is refused before the orders are read.
    """
    _require_edge_ends(graph)
    return _compatible(graph, _ranks(order1), _ranks(order2))


def order_from_permutation(pi: Permutation, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    """Letters sorted so that x comes before y when pi^-1(x) < pi^-1(y):
    the image order of ``pi``."""
    if len(pi) != len(alphabet):
        raise ValueError("permutation size does not match alphabet size")
    return tuple(pi.one_line_letters(alphabet))


@dataclass(frozen=True)
class ClassifyReport:
    """Bounded-depth classification flags; witnesses name a first failing word."""

    dendric: bool
    alsinic: bool
    ordered_dendric: bool
    ordered_alsinic: bool
    checked_up_to: int
    witnesses: dict[str, str]


def classify(
    sample: LanguageSample,
    order1: Sequence[str],
    order2: Sequence[str],
    up_to: int,
) -> ClassifyReport:
    """Check every word of length <= up_to; all verdicts are depth-bounded.

    One pass per length k (see the module docstring): each word decided is
    looked up with each letter on either side, the words whose extension
    graph is then one ranked edge pass every check, and the rest get an
    extension graph each, in alphabet order.  A ``bi_infinite`` sample
    decides at length k + 1 only the words grown from the special words of
    length k, O(#special * |A|) of them, and stops at the first length with
    no special word, since no longer word is special; a sample built by hand
    decides every word of every length.  Witnesses are the first failing
    words in (length, alphabet) order.  A foreign symbol in a word checked
    raises, naming the least such symbol by code point, and an order that
    lacks a vertex raises as checking every word in that order would.
    """
    if up_to < 0:
        raise ValueError(f"classification depth must be nonnegative, got {up_to}")
    if up_to + 2 > sample.max_len:
        raise ValueError(
            f"classification up to length {up_to} needs sample depth {up_to + 2}, "
            f"have {sample.max_len}"
        )
    alphabet = sample.alphabet
    letters = alphabet.letters
    grows = sample.bi_infinite
    if grows:
        # Every symbol of a bi-infinite sample is a one-letter word.
        symbols = set(_one_letter_words(sample.words)) if up_to else set()
    else:
        by_length: list[list[str]] = [[] for _ in range(up_to + 2)]
        for w in sample.words:
            if len(w) <= up_to:
                by_length[len(w)].append(w)
        symbols = set().union(*map("".join, by_length))
    foreign = symbols - set(letters)
    if foreign:
        raise ValueError(f"symbol {min(foreign)!r} is not in alphabet {alphabet}")
    rank1, rank2 = _ranks(order1), _ranks(order2)
    flags = dict.fromkeys(("dendric", "alsinic", "ordered_dendric", "ordered_alsinic"), True)
    witnesses: dict[str, str] = {}
    level = [w for w in ("",) if w in sample]
    for k in range(up_to + 1):
        one, two = _haystack(sample, k + 1), _haystack(sample, k + 2)
        special = []
        for v in level:
            left = [a for a in letters if a + v in one]
            right = [b for b in letters if v + b in one]
            if not (
                len(left) == len(right) == 1
                and left[0] in rank1
                and right[0] in rank2
                and left[0] + v + right[0] in two
            ):
                special.append(v)
        if not special and grows:
            break
        grown: set[str] = set()
        for v in sorted(special, key=alphabet.key):
            graph = extension_graph(sample, v)
            forest, tree = _forest_and_tree(graph)
            compatible = _compatible(graph, rank1, rank2)
            verdicts = (tree, forest, tree and compatible, forest and compatible)
            for flag, ok in zip(flags, verdicts):
                if flags[flag] and not ok:
                    flags[flag] = False
                    witnesses[flag] = v
            if len(graph.right) > 1:
                grown.update(a + v for a in graph.left)
            if len(graph.left) > 1:
                grown.update(v + b for b in graph.right)
        level = grown if grows else by_length[k + 1]
    return ClassifyReport(**flags, checked_up_to=up_to, witnesses=witnesses)
