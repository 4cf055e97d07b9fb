"""The per-length ``classify`` against the direct check of every word, kept
here as the oracle, the number of extension graphs it builds, and where it
stops on samples of two-sided infinite words."""

import dataclasses
import functools
import importlib
import itertools
import pathlib
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ietkit import (  # noqa: E402
    ExtensionGraph,
    LanguageSample,
    OrderedAlphabet,
    classify,
    extension_graph,
    is_compatible,
    is_forest,
    is_tree,
    order_from_permutation,
    sample_from_iet,
    sample_from_multiset,
    sample_from_periodic,
)
from ietkit.cli import parse_iet_file  # noqa: E402

extgraph_module = importlib.import_module("ietkit.extgraph")
DATA = pathlib.Path(__file__).parent / "data"
AB = OrderedAlphabet("ab")

# -- the oracle: every word of length <= up_to in (length, alphabet) order --------


def oracle_classify(sample, order1, order2, up_to):
    if up_to < 0:
        raise ValueError(f"classification depth must be nonnegative, got {up_to}")
    if up_to + 2 > sample.max_len:
        raise ValueError(
            f"classification up to length {up_to} needs sample depth {up_to + 2}, "
            f"have {sample.max_len}"
        )
    words = sample.words
    checked = sorted((w for w in words if len(w) <= up_to), key=lambda w: (len(w), sample.alphabet.key(w)))
    flags = {"dendric": True, "alsinic": True, "ordered_dendric": True, "ordered_alsinic": True}
    witnesses = {}
    for v in checked:
        left = [a for a in sample.alphabet.letters if a + v in words]
        right = [b for b in sample.alphabet.letters if v + b in words]
        edges = [(a, b) for a in left for b in right if a + v + b in words]
        for a in left:
            if a not in order1:
                raise ValueError(f"left vertex {a!r} missing from the first order")
        for b in right:
            if b not in order2:
                raise ValueError(f"right vertex {b!r} missing from the second order")
        components = count_components(left, right, edges)
        forest = len(edges) == len(left) + len(right) - components
        tree = forest and components == 1
        compatible = all(
            list(order2).index(b) <= list(order2).index(d)
            for a, b in edges
            for c, d in edges
            if list(order1).index(a) < list(order1).index(c)
        )
        for flag, ok in zip(flags, (tree, forest, tree and compatible, forest and compatible)):
            if flags[flag] and not ok:
                flags[flag] = False
                witnesses[flag] = v
    return flags, witnesses


def count_components(left, right, edges):
    """Connected components of the bipartite graph, by depth-first search."""
    neighbours = {("L", a): [] for a in left} | {("R", b): [] for b in right}
    for a, b in edges:
        neighbours[("L", a)].append(("R", b))
        neighbours[("R", b)].append(("L", a))
    seen = set()
    components = 0
    for start in neighbours:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            for nxt in neighbours[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return components


def outcome(fn, *args):
    """A report as (flags, witnesses in insertion order), or the error text."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return "ValueError: " + str(exc)
    if isinstance(result, tuple):
        flags, witnesses = result
    else:
        flags = {f: getattr(result, f) for f in ("dendric", "alsinic", "ordered_dendric", "ordered_alsinic")}
        witnesses = result.witnesses
        assert result.checked_up_to == args[3]
    return flags, list(witnesses.items())


def assert_same(sample, order1, order2, up_to):
    assert outcome(classify, sample, order1, order2, up_to) == outcome(
        oracle_classify, sample, order1, order2, up_to
    )


# -- strategies -----------------------------------------------------------------------

# Alphabets in code-point order and out of it.
ORDERS = ("ab", "ba", "abc", "cab", "dbca", "abcd", "bdac")


@st.composite
def orders_over(draw, letters):
    """A pair of orders of ``letters``; now and then one of them lacks a letter."""
    pair = []
    for _ in range(2):
        order = list(draw(st.permutations(letters)))
        if len(order) > 1 and draw(st.integers(0, 4)) == 0:
            del order[draw(st.integers(0, len(order) - 1))]
        pair.append(tuple(order))
    return tuple(pair)


@st.composite
def word_sources(draw):
    """A periodic or multiset sample over 2-4 letters, a depth and orders."""
    alphabet = OrderedAlphabet(draw(st.sampled_from(ORDERS)))
    used = draw(st.lists(st.sampled_from(alphabet.letters), min_size=1, max_size=4, unique=True))
    entries = draw(st.lists(st.text(alphabet=used, min_size=1, max_size=10), min_size=1, max_size=3))
    up_to = draw(st.integers(0, max(map(len, entries)) + 2))
    if len(entries) == 1:
        sample = sample_from_periodic(entries[0], alphabet, up_to + 2)
    else:
        sample = sample_from_multiset(entries, alphabet, up_to + 2)
    return sample, *draw(orders_over(alphabet.letters)), up_to


@st.composite
def hand_built(draw):
    """Samples that need not be factor-closed, so one left and one right
    letter need not give an edge; some words, and then the orders, use a
    symbol outside the alphabet."""
    alphabet = OrderedAlphabet(draw(st.sampled_from(ORDERS)))
    symbols = list(alphabet.letters) + (["x"] if draw(st.integers(0, 3)) == 0 else [])
    words = draw(st.frozensets(st.text(alphabet=symbols, max_size=5), max_size=40))
    max_len = draw(st.integers(2, 6))
    up_to = draw(st.integers(0, max_len - 2))
    sample = LanguageSample(words=words, max_len=max_len, alphabet=alphabet, source="hand-built")
    return sample, *draw(orders_over(symbols)), up_to


@functools.cache
def iet_sample(name):
    return sample_from_iet(parse_iet_file(str(DATA / name)), 7, label=name)


# -- equal reports, witnesses and errors ----------------------------------------------


@settings(max_examples=400, deadline=None)
@given(word_sources())
def test_word_sources_match_the_oracle(case):
    assert_same(*case)


@settings(max_examples=400, deadline=None)
@given(hand_built())
def test_hand_built_samples_match_the_oracle(case):
    assert_same(*case)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("golden.iet", "sqrt2_4.iet")), st.data())
def test_iet_samples_match_the_oracle(name, data):
    sample = iet_sample(name)
    order1, order2 = data.draw(orders_over(sample.alphabet.letters))
    assert_same(sample, order1, order2, data.draw(st.integers(0, 5)))


@pytest.mark.parametrize("name", ["golden.iet", "sqrt2_4.iet"])
def test_iet_samples_under_the_permutation_order(name):
    iet = parse_iet_file(str(DATA / name))
    sample = iet_sample(name)
    pi_order = order_from_permutation(iet.permutation, iet.alphabet)
    for order1 in (pi_order, iet.alphabet.letters):
        assert classify(sample, order1, iet.alphabet.letters, 5).ordered_dendric == (order1 == pi_order)
        assert_same(sample, order1, iet.alphabet.letters, 5)


def test_one_left_and_one_right_letter_need_not_be_an_edge():
    sample = LanguageSample(
        words=frozenset({"", "a", "b", "c", "ab", "bc"}), max_len=3, alphabet=OrderedAlphabet("abc"), source="hand"
    )
    graph = extension_graph(sample, "b")
    assert (graph.left, graph.right, graph.edges) == (("a",), ("c",), frozenset())
    report = classify(sample, "abc", "abc", 1)
    assert not report.dendric and report.alsinic
    assert_same(sample, "abc", "abc", 1)


@pytest.mark.parametrize("order", ["".join(p) for p in itertools.permutations("abcd")])
def test_the_witness_is_the_least_failing_word_of_its_length(order):
    # The graph of the empty word is a star, a tree; every letter then has
    # extensions on both sides but no edge, so each one fails "dendric".
    words = {"", "a", "b", "c", "d", "aa", "ab", "ac", "ad", "ba", "ca", "da"}
    sample = LanguageSample(words=frozenset(words), max_len=3, alphabet=OrderedAlphabet(order), source="star")
    report = classify(sample, order, order, 1)
    assert report.witnesses["dendric"] == order[0]
    assert_same(sample, order, order, 1)


def test_foreign_symbols_in_the_orders_are_no_extensions():
    # x is the only symbol left of "b" and y the only one right of it, and
    # both are ranked, but neither is a letter: the graph of "b" is empty,
    # so not a tree, although "xby" is in the sample.
    sample = LanguageSample(
        words=frozenset({"a", "b", "aa", "aaa", "xb", "by", "xby"}), max_len=3, alphabet=AB, source="hand"
    )
    graph = extension_graph(sample, "b")
    assert (graph.left, graph.right, graph.edges) == ((), (), frozenset())
    report = classify(sample, "xab", "aby", 1)
    assert not report.dendric and report.witnesses == {"dendric": "b", "ordered_dendric": "b"}
    assert_same(sample, "xab", "aby", 1)


def test_a_foreign_symbol_raises_the_sorting_error():
    alphabet = OrderedAlphabet("ab")
    sample = LanguageSample(
        words=frozenset({"", "a", "b", "ab", "ba", "xa"}), max_len=4, alphabet=alphabet, source="hand"
    )
    with pytest.raises(ValueError, match=r"^symbol 'x' is not in alphabet ab$"):
        classify(sample, "ab", "ab", 2)
    # Words of length up_to + 1 are only looked up, never checked.
    assert_same(sample, "ab", "ab", 1)
    assert_same(sample, "ab", "ab", 2)


def test_a_missing_vertex_is_named_as_by_the_direct_check():
    sample = sample_from_periodic("aabcb", OrderedAlphabet("abc"), 7)
    with pytest.raises(ValueError, match="left vertex 'c' missing from the first order"):
        classify(sample, "ab", "abc", 5)
    assert_same(sample, "ab", "abc", 5)
    assert_same(sample, "abc", "ac", 5)


# -- extension graphs for the special words only --------------------------------------


def count_extension_graphs(monkeypatch):
    calls = []
    original = extgraph_module.extension_graph

    def counted(sample, v):
        calls.append(v)
        return original(sample, v)

    monkeypatch.setattr(extgraph_module, "extension_graph", counted)
    return calls


def test_a_long_periodic_word_builds_few_extension_graphs(monkeypatch):
    rng = random.Random(120)
    w = "".join(rng.choice("abcd") for _ in range(120))
    alphabet = OrderedAlphabet("abcd")
    sample = sample_from_periodic(w, alphabet, 122)
    calls = count_extension_graphs(monkeypatch)
    classify(sample, "dcba", alphabet.letters, 120)
    assert sum(len(v) <= 120 for v in sample.words) > 14_000
    assert 1 <= len(calls) < 1000
    assert len(set(calls)) == len(calls)
    monkeypatch.undo()
    assert_same(sample, "dcba", alphabet.letters, 120)


@settings(max_examples=100, deadline=None)
@given(word_sources())
def test_two_letters_give_at_least_one_extension_graph(case):
    sample, order1, order2, up_to = case
    letters = {w for w in sample.words if len(w) == 1}
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_extension_graphs(monkeypatch)
        try:
            classify(sample, order1, order2, up_to)
        except ValueError:
            pass
    # The empty word has two left letters as soon as there are two letters.
    if len(letters) >= 2:
        assert "" in calls


# -- the stop at the first length with no special word ---------------------------------


@st.composite
def long_word_sources(draw):
    """A periodic or multiset sample of up to 40 period letters at a depth up
    to 45, a classification depth and orders."""
    alphabet = OrderedAlphabet(draw(st.sampled_from(ORDERS)))
    used = draw(st.lists(st.sampled_from(alphabet.letters), min_size=1, max_size=4, unique=True))
    count = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 40 // count)) for _ in range(count)]
    entries = [draw(st.text(alphabet=used, min_size=n, max_size=n)) for n in sizes]
    max_len = draw(st.integers(2, 45))
    if count == 1:
        sample = sample_from_periodic(entries[0], alphabet, max_len)
    else:
        sample = sample_from_multiset(entries, alphabet, max_len)
    # Mostly the full depth, as the command line asks for.
    up_to = max_len - 2 - draw(st.integers(0, max_len - 2))
    return sample, *draw(orders_over(alphabet.letters)), up_to


def assert_stop_changes_nothing(sample, order1, order2, up_to):
    assert sample.bi_infinite
    unmarked = dataclasses.replace(sample, bi_infinite=False)
    stopped = outcome(classify, sample, order1, order2, up_to)
    assert stopped == outcome(oracle_classify, sample, order1, order2, up_to)
    assert stopped == outcome(classify, unmarked, order1, order2, up_to)


@settings(max_examples=150, deadline=None)
@given(long_word_sources())
def test_word_sources_stop_with_the_report_of_every_length(case):
    assert_stop_changes_nothing(*case)


@functools.cache
def deep_iet_sample(name):
    return sample_from_iet(parse_iet_file(str(DATA / name)), 12, label=name)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(("golden.iet", "sqrt2_4.iet")), st.data())
def test_iet_samples_stop_with_the_report_of_every_length(name, data):
    sample = deep_iet_sample(name)
    order1, order2 = data.draw(orders_over(sample.alphabet.letters))
    assert_stop_changes_nothing(sample, order1, order2, data.draw(st.integers(0, 10)))


class LookedUpWords(frozenset):
    """A word set that records the length of every word looked up in it."""

    def __new__(cls, words):
        self = super().__new__(cls, words)
        self.lengths = []
        return self

    def __contains__(self, w):
        self.lengths.append(len(w))
        return super().__contains__(w)


def first_length_without_special_word(sample):
    letters = sample.alphabet.letters
    for k in range(sample.max_len):
        level = [v for v in sample.words if len(v) == k]
        if all(
            sum(a + v in sample.words for a in letters) == 1 and sum(v + b in sample.words for b in letters) == 1
            for v in level
        ):
            return k
    return None


def test_a_long_periodic_word_stops_past_its_last_special_word(monkeypatch):
    # The word of test_a_long_periodic_word_builds_few_extension_graphs.
    rng = random.Random(120)
    w = "".join(rng.choice("abcd") for _ in range(120))
    alphabet = OrderedAlphabet("abcd")
    sample = sample_from_periodic(w, alphabet, 122)
    stop = first_length_without_special_word(sample)
    assert stop == 10
    looked_up = LookedUpWords(sample.words)
    calls = count_extension_graphs(monkeypatch)
    report = classify(dataclasses.replace(sample, words=looked_up), "dcba", alphabet.letters, 120)
    # The pass at the stop length looks up avb for each of its words, and no
    # later pass runs: checking every length would look up words of length 122.
    assert max(looked_up.lengths) == stop + 2
    stopped_calls = calls[:]
    calls.clear()
    assert classify(dataclasses.replace(sample, bi_infinite=False), "dcba", alphabet.letters, 120) == report
    assert calls == stopped_calls
    assert all(len(v) < stop for v in calls)


def test_a_hand_built_sample_gets_every_length():
    # Not factor-closed: aa and bb are missing, so a and b each have one
    # left and one right letter, yet ab has the four edges of a cycle.
    words = {"", "a", "b", "ab", "ba", "aba", "bab", "aab", "abb", "aaba", "aabb", "baba", "babb"}
    sample = LanguageSample(words=frozenset(words), max_len=4, alphabet=AB, source="hand")
    assert not sample.bi_infinite
    report = classify(sample, "ab", "ba", 2)
    assert report.witnesses == {"dendric": "", "ordered_dendric": "", "alsinic": "ab", "ordered_alsinic": "ab"}
    assert_same(sample, "ab", "ba", 2)
    # The marker is a promise about the words, not a check: on this sample it
    # would stop at length 1 and miss the cycle.
    marked = classify(dataclasses.replace(sample, bi_infinite=True), "ab", "ba", 2)
    assert marked.alsinic and marked.witnesses == {"dendric": "", "ordered_dendric": ""}


@pytest.mark.parametrize(
    "words",
    [frozenset(), frozenset({"a", "b", "ab", "ba", "aba", "bab"})],
    ids=["empty", "no-empty-word"],
)
def test_a_marked_sample_without_the_empty_word_gets_the_unmarked_report(words):
    # The factors of ...abab... without the empty word: a graph of "" would
    # be a square with two edges, not a tree, and only the check of "" fails.
    sample = LanguageSample(words=words, max_len=3, alphabet=AB, source="hand", bi_infinite=True)
    assert_stop_changes_nothing(sample, "ab", "ab", 1)


def test_a_foreign_symbol_of_a_bi_infinite_sample_is_found_among_its_letters():
    # The factors of the two-sided word ...axax... over the alphabet ab: only
    # the one-letter words are scanned for x, which the empty word's graph skips.
    words = frozenset({"", "a", "x", "ax", "xa", "axa", "xax"})
    sample = LanguageSample(words=words, max_len=3, alphabet=AB, source="ax", bi_infinite=True)
    with pytest.raises(ValueError, match=r"^symbol 'x' is not in alphabet ab$"):
        classify(sample, "ab", "ab", 1)
    assert_stop_changes_nothing(sample, "ab", "ab", 0)
    assert_stop_changes_nothing(sample, "ab", "ab", 1)


def test_the_marker_is_no_part_of_a_samples_value():
    periodic = sample_from_periodic("aab", AB, 4)
    hand = LanguageSample(words=periodic.words, max_len=4, alphabet=AB, source=periodic.source)
    assert periodic.bi_infinite and not hand.bi_infinite
    assert hand == periodic


def test_an_iet_sample_grows_its_special_words_from_the_previous_length():
    # An exchange of 3 intervals has 2k + 1 words of length k, and a special
    # word at every length.  Its special words of length k + 1 are looked up
    # from those of length k, a bounded number of lookups per length, where
    # one lookup of avb for each word would make about 58 * 58 in all.
    iet = parse_iet_file(str(DATA / "golden.iet"))
    sample = sample_from_iet(iet, 60)
    letters = iet.alphabet.letters
    pi_order = order_from_permutation(iet.permutation, iet.alphabet)
    looked_up = LookedUpWords(sample.words)
    report = classify(dataclasses.replace(sample, words=looked_up), pi_order, letters, 58)
    assert len(looked_up.lengths) <= 8 * 58 * len(letters) ** 2
    assert report.ordered_dendric and report.checked_up_to == 58
    assert report == classify(dataclasses.replace(sample, bi_infinite=False), pi_order, letters, 58)


# -- forests and trees by union-find, against depth-first search -----------------------


@st.composite
def bipartite_graphs(draw):
    """A random bipartite graph, with isolated vertices and several
    components, and the same letter now and then on both sides.  Its edges
    are a tuple, so that union-find meets them in the drawn order; some
    graphs get one more edge inside a component, closing a cycle, first or
    last in that order."""
    left = draw(st.lists(st.sampled_from("abcde"), unique=True, max_size=5))
    right = draw(st.lists(st.sampled_from("abcde"), unique=True, max_size=5))
    pairs = [(a, b) for a in left for b in right]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    components = count_components(left, right, edges)
    closing = [e for e in pairs if e not in edges and count_components(left, right, edges + [e]) == components]
    where = draw(st.sampled_from(("none", "first", "last")))
    if closing and where != "none":
        edge = draw(st.sampled_from(closing))
        edges = [edge] + edges if where == "first" else edges + [edge]
    return ExtensionGraph(word="", left=tuple(left), right=tuple(right), edges=tuple(edges))


@settings(max_examples=400, deadline=None)
@given(bipartite_graphs())
def test_forest_and_tree_match_depth_first_search(graph):
    components = count_components(graph.left, graph.right, graph.edges)
    forest = len(graph.edges) == len(graph.left) + len(graph.right) - components
    tree = forest and components == 1
    assert extgraph_module._forest_and_tree(graph) == (forest, tree)
    assert (is_forest(graph), is_tree(graph)) == (forest, tree)


def crossing_free(graph, order1, order2):
    """The pairwise definition that ``oracle_classify`` uses."""
    return all(
        order2.index(b) <= order2.index(d)
        for a, b in graph.edges
        for c, d in graph.edges
        if order1.index(a) < order1.index(c)
    )


@settings(max_examples=400, deadline=None)
@given(bipartite_graphs(), st.permutations("abcde"), st.permutations("abcde"))
def test_is_compatible_matches_the_pairwise_definition(graph, order1, order2):
    """Cycles included, where the oracle reads compatibility only through
    ``forest and compatible``."""
    assert is_compatible(graph, order1, order2) == crossing_free(graph, order1, order2)
