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
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from .iet import Iet
from .words import OrderedAlphabet, Permutation


@dataclass(frozen=True)
class LanguageSample:
    """All factors of a language up to ``max_len``, with their alphabet."""

    words: frozenset[str]
    max_len: int
    alphabet: OrderedAlphabet
    source: str

    def __contains__(self, w: object) -> bool:
        return w in self.words

    def of_length(self, k: int) -> list[str]:
        return sorted((w for w in self.words if len(w) == k), key=self.alphabet.key)

    def up_to(self, k: int) -> list[str]:
        out = [w for w in self.words if len(w) <= k]
        out.sort(key=lambda w: (len(w), self.alphabet.key(w)))
        return out


def _periodic_factors(w: str, max_len: int) -> set[str]:
    reps = w * (max_len // len(w) + 2)
    out = {""}
    for k in range(1, max_len + 1):
        for start in range(len(w)):
            out.add(reps[start : start + k])
    return out


def sample_from_periodic(w: str, alphabet: OrderedAlphabet, max_len: int) -> LanguageSample:
    """Factors of the periodic infinite word with period ``w``."""
    if not w:
        raise ValueError("a periodic language needs a nonempty period")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    alphabet.require(w)
    return LanguageSample(
        words=frozenset(_periodic_factors(w, max_len)),
        max_len=max_len,
        alphabet=alphabet,
        source=f"periodic:{w}",
    )


def sample_from_multiset(
    entries: Iterable[str], alphabet: OrderedAlphabet, max_len: int
) -> LanguageSample:
    """Union of the periodic languages of the entries."""
    entries = tuple(entries)
    if not entries:
        raise ValueError("a multiset language needs at least one word")
    words: set[str] = set()
    for w in entries:
        alphabet.require(w)
        words |= _periodic_factors(w, max_len)
    return LanguageSample(
        words=frozenset(words),
        max_len=max_len,
        alphabet=alphabet,
        source="multiset:" + ",".join(entries),
    )


def sample_from_iet(iet: Iet, max_len: int, label: str = "iet") -> LanguageSample:
    """Factors of an interval exchange, by exact cylinder refinement."""
    return LanguageSample(
        words=frozenset(iet.language(max_len)),
        max_len=max_len,
        alphabet=iet.alphabet,
        source=label,
    )


@dataclass(frozen=True)
class ExtensionGraph:
    word: str
    left: tuple[str, ...]
    right: tuple[str, ...]
    edges: frozenset[tuple[str, str]]


def extension_graph(sample: LanguageSample, v: str) -> ExtensionGraph:
    """Left/right extensions and two-sided edges of ``v`` in the sample."""
    if len(v) + 2 > sample.max_len:
        raise ValueError(
            f"word of length {len(v)} needs sample depth {len(v) + 2}, have {sample.max_len}"
        )
    sample.alphabet.require(v)
    letters = sample.alphabet.letters
    left = tuple(a for a in letters if a + v in sample.words)
    right = tuple(b for b in letters if v + b in sample.words)
    edges = frozenset(
        (a, b) for a in left for b in right if a + v + b in sample.words
    )
    return ExtensionGraph(word=v, left=left, right=right, edges=edges)


def _components(graph: ExtensionGraph) -> int:
    nodes = [("L", a) for a in graph.left] + [("R", b) for b in graph.right]
    parent = {node: node for node in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph.edges:
        ra, rb = find(("L", a)), find(("R", b))
        if ra != rb:
            parent[ra] = rb
    return len({find(node) for node in nodes})


def is_forest(graph: ExtensionGraph) -> bool:
    """Acyclic: edges == vertices - components."""
    vertices = len(graph.left) + len(graph.right)
    return len(graph.edges) == vertices - _components(graph)


def is_tree(graph: ExtensionGraph) -> bool:
    return is_forest(graph) and _components(graph) == 1


def is_compatible(graph: ExtensionGraph, order1: Sequence[str], order2: Sequence[str]) -> bool:
    """No crossing edges: a <_1 c implies b <=_2 d for all edges (a,b), (c,d).

    Equivalent check: group edges by left vertex, walk the groups in <_1
    order and require each group's smallest right rank to dominate the
    running maximum of the previous groups.
    """
    rank1 = {c: i for i, c in enumerate(order1)}
    rank2 = {c: i for i, c in enumerate(order2)}
    for a in graph.left:
        if a not in rank1:
            raise ValueError(f"left vertex {a!r} missing from the first order")
    for b in graph.right:
        if b not in rank2:
            raise ValueError(f"right vertex {b!r} missing from the second order")
    span: dict[str, list[int]] = {}
    for a, b in graph.edges:
        r = rank2[b]
        if a in span:
            lohi = span[a]
            lohi[0] = min(lohi[0], r)
            lohi[1] = max(lohi[1], r)
        else:
            span[a] = [r, r]
    running_max = None
    for a in sorted(span, key=rank1.get):
        lo, hi = span[a]
        if running_max is not None and lo < running_max:
            return False
        running_max = hi if running_max is None else max(running_max, hi)
    return True


def order_from_permutation(pi: Permutation, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    """Letters sorted so that x comes before y when pi^-1(x) < pi^-1(y)."""
    if len(pi) != len(alphabet):
        raise ValueError("permutation size does not match alphabet size")
    inv = pi.inverse()
    return tuple(sorted(alphabet.letters, key=lambda c: inv(alphabet.rank(c))))


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
    """Check every word of length <= up_to; all verdicts are depth-bounded."""
    if up_to < 0:
        raise ValueError(f"classification depth must be nonnegative, got {up_to}")
    if up_to + 2 > sample.max_len:
        raise ValueError(
            f"classification up to length {up_to} needs sample depth {up_to + 2}, "
            f"have {sample.max_len}"
        )
    dendric = alsinic = ordered_dendric = ordered_alsinic = True
    witnesses: dict[str, str] = {}
    for v in sample.up_to(up_to):
        graph = extension_graph(sample, v)
        tree = is_tree(graph)
        forest = is_forest(graph)
        compatible = is_compatible(graph, order1, order2)
        if dendric and not tree:
            dendric = False
            witnesses.setdefault("dendric", v)
        if alsinic and not forest:
            alsinic = False
            witnesses.setdefault("alsinic", v)
        if ordered_dendric and not (tree and compatible):
            ordered_dendric = False
            witnesses.setdefault("ordered_dendric", v)
        if ordered_alsinic and not (forest and compatible):
            ordered_alsinic = False
            witnesses.setdefault("ordered_alsinic", v)
    return ClassifyReport(
        dendric=dendric,
        alsinic=alsinic,
        ordered_dendric=ordered_dendric,
        ordered_alsinic=ordered_alsinic,
        checked_up_to=up_to,
        witnesses=witnesses,
    )
