import itertools
import os
import pathlib
import subprocess
import sys

import pytest

import ietkit
from ietkit import (
    ExtensionGraph,
    OrderedAlphabet,
    Permutation,
    SampleTooLargeError,
    classify,
    clustering_report,
    extension_graph,
    is_compatible,
    is_forest,
    is_tree,
    order_from_permutation,
    sample_from_iet,
    sample_from_multiset,
    sample_from_periodic,
)
from ietkit.cli import main
from ietkit.instance import parse_iet_file

AB = OrderedAlphabet("ab")
ABC = OrderedAlphabet("abc")
GOLDEN = str(pathlib.Path(__file__).parent / "data" / "golden.iet")


@pytest.fixture(scope="module")
def seven_language():
    """Factors of the orbits of the 7-point discrete exchange: {aac, ab, ab}."""
    return sample_from_multiset(["aac", "ab"], ABC, 8)


@pytest.fixture(scope="module")
def pair_language():
    return sample_from_multiset(["ab", "aab"], AB, 8)


class TestSamples:
    def test_periodic_small(self):
        sample = sample_from_periodic("ab", AB, 3)
        assert sample.words == {"", "a", "b", "ab", "ba", "aba", "bab"}

    def test_periodic_banana(self):
        abn = OrderedAlphabet("abn")
        sample = sample_from_periodic("banana", abn, 2)
        for w in ("na", "an", "ab", "ba"):
            assert w in sample

    def test_multiset_is_union(self):
        union = sample_from_multiset(["ab", "aab"], AB, 5)
        left = sample_from_periodic("ab", AB, 5)
        right = sample_from_periodic("aab", AB, 5)
        assert union.words == left.words | right.words

    def test_factorial_and_biextendable(self, seven_language):
        sample = seven_language
        for w in sample.words:
            assert all(w[i:j] in sample for i in range(len(w)) for j in range(i, len(w) + 1))
            if len(w) < sample.max_len - 1:
                assert any(a + w in sample for a in ABC)
                assert any(w + b in sample for b in ABC)

    def test_iet_sample(self, golden):
        sample = sample_from_iet(golden, 4)
        assert sample.alphabet == golden.alphabet
        assert sample.words == golden.language(4)


class TestExtensionGraphs:
    def test_seven_empty_word(self, seven_language):
        graph = extension_graph(seven_language, "")
        assert graph.edges == {("c", "a"), ("b", "a"), ("a", "a"), ("a", "b"), ("a", "c")}

    def test_seven_letter_a(self, seven_language):
        graph = extension_graph(seven_language, "a")
        assert graph.edges == {("c", "a"), ("b", "b"), ("a", "c")}

    def test_pair_graphs(self, pair_language):
        assert extension_graph(pair_language, "").edges == {("b", "a"), ("a", "a"), ("a", "b")}
        assert extension_graph(pair_language, "a").edges == {("b", "a"), ("b", "b"), ("a", "b")}
        assert extension_graph(pair_language, "aba").edges == {("a", "a"), ("b", "b")}

    def test_depth_guard(self, pair_language):
        with pytest.raises(ValueError):
            extension_graph(pair_language, "a" * 7)

    def test_every_vertex_extends(self, seven_language):
        for v in seven_language.up_to(6):
            graph = extension_graph(seven_language, v)
            for a in graph.left:
                assert any(edge[0] == a for edge in graph.edges)
            for b in graph.right:
                assert any(edge[1] == b for edge in graph.edges)


class TestTreeAndForest:
    def test_matching_is_forest_not_tree(self, seven_language):
        graph = extension_graph(seven_language, "a")
        assert is_forest(graph) and not is_tree(graph)

    def test_two_disjoint_edges(self, pair_language):
        graph = extension_graph(pair_language, "aba")
        assert is_forest(graph) and not is_tree(graph)

    def test_single_edge_is_tree(self):
        sample = sample_from_periodic("ab", AB, 4)
        graph = extension_graph(sample, "ab")
        assert len(graph.edges) == 1
        assert is_tree(graph)

    def test_seven_empty_word_is_tree(self, seven_language):
        assert is_tree(extension_graph(seven_language, ""))


class TestCompatibility:
    def test_seven_graphs_compatible(self, seven_language):
        pi = Permutation.symmetric(3)
        left = order_from_permutation(pi, ABC)
        assert left == ("c", "b", "a")
        for v in ("", "a"):
            graph = extension_graph(seven_language, v)
            assert is_compatible(graph, left, ABC.letters)

    def test_crossing_edges_incompatible(self):
        sample = sample_from_multiset(["ab"], AB, 4)
        graph = extension_graph(sample, "")
        # Language of (ab)^w: edges (a,b) and (b,a) cross under identical orders.
        assert graph.edges == {("a", "b"), ("b", "a")}
        assert not is_compatible(graph, AB.letters, AB.letters)
        assert is_compatible(graph, ("b", "a"), AB.letters)

    def test_missing_vertex_rejected(self, seven_language):
        graph = extension_graph(seven_language, "")
        with pytest.raises(ValueError):
            is_compatible(graph, ("a", "b"), ABC.letters)

    def test_missing_vertices_are_named_left_first(self):
        graph = ExtensionGraph(word="", left=("a", "c"), right=("b", "c"), edges=frozenset({("a", "b"), ("c", "c")}))
        with pytest.raises(ValueError, match=r"^left vertex 'c' missing from the first order$"):
            is_compatible(graph, "ab", "ab")
        with pytest.raises(ValueError, match=r"^right vertex 'c' missing from the second order$"):
            is_compatible(graph, "abc", "ab")
        assert is_compatible(graph, "abc", "abc")


class TestForeignEdgeEnds:
    """A hand-built graph whose edge ends are not all among its vertices is
    refused by every public predicate, naming the end."""

    LEFT = ExtensionGraph(word="", left=("a",), right=("b",), edges=frozenset({("a", "b"), ("c", "b")}))
    RIGHT = ExtensionGraph(word="", left=("a",), right=("b",), edges=(("a", "d"), ("a", "b")))

    @pytest.mark.parametrize("check", [
        lambda g: is_compatible(g, "abcd", "abcd"), is_forest, is_tree,
    ], ids=["is_compatible", "is_forest", "is_tree"])
    def test_each_predicate_names_the_end(self, check):
        with pytest.raises(ValueError, match=r"^edge \('c', 'b'\) has left end 'c', which is not a left vertex$"):
            check(self.LEFT)
        with pytest.raises(ValueError, match=r"^edge \('a', 'd'\) has right end 'd', which is not a right vertex$"):
            check(self.RIGHT)

    def test_the_graph_is_refused_before_the_orders_are_read(self):
        with pytest.raises(ValueError, match="left end 'c'"):
            is_compatible(self.LEFT, "b", "a")


class TestOrderFromPermutation:
    def test_symmetric_reverses(self):
        assert order_from_permutation(Permutation.symmetric(3), ABC) == ("c", "b", "a")

    def test_identity_keeps(self):
        assert order_from_permutation(Permutation.identity(3), ABC) == ("a", "b", "c")

    def test_cycle(self):
        pi = Permutation.from_one_line_letters("bca", ABC)
        assert order_from_permutation(pi, ABC) == ("b", "c", "a")


class TestClassify:
    def test_banana_ordered_alsinic(self):
        abn = OrderedAlphabet("abn")
        report_w = clustering_report("banana", abn)
        sample = sample_from_periodic("banana", abn, 8)
        left = order_from_permutation(report_w.permutation, abn)
        report = classify(sample, left, abn.letters, 6)
        assert report.ordered_alsinic
        assert report.alsinic

    def test_pair_language_not_ordered_dendric(self, pair_language):
        # Witness lives among the empty word, "a", and "aba" for either order pair.
        for left in itertools.permutations(AB.letters):
            report = classify(pair_language, left, AB.letters, 4)
            assert not report.ordered_dendric
            assert report.witnesses["ordered_dendric"] in ("", "a", "aba")

    def test_golden_iet_ordered_dendric(self, golden):
        sample = sample_from_iet(golden, 7)
        left = order_from_permutation(golden.permutation, golden.alphabet)
        report = classify(sample, left, golden.alphabet.letters, 5)
        assert report.dendric and report.alsinic
        assert report.ordered_dendric and report.ordered_alsinic

    def test_depth_guard(self, pair_language):
        with pytest.raises(ValueError):
            classify(pair_language, AB.letters, AB.letters, 7)

    def test_compatibility_decided_by_bispecial_words(self):
        # Graphs with a single vertex on either side cannot have crossing
        # edges, so checking the two-sided branching words alone settles the
        # ordered flags.
        for w in ("ab", "aab", "banana", "aacab", "abcabacb"):
            alphabet = OrderedAlphabet(sorted(set(w)))
            sample = sample_from_periodic(w, alphabet, len(w) + 2)
            for left in itertools.permutations(alphabet.letters):
                compat_all = True
                compat_bispecial = True
                for v in sample.up_to(len(w)):
                    graph = extension_graph(sample, v)
                    good = is_compatible(graph, left, alphabet.letters)
                    bispecial = len(graph.left) >= 2 and len(graph.right) >= 2
                    if not bispecial:
                        assert good
                    compat_all = compat_all and good
                    compat_bispecial = compat_bispecial and (good or not bispecial)
                assert compat_all == compat_bispecial

    def test_compatible_implies_forest(self):
        # Spot check on many periodic languages: compatibility never holds on
        # a graph with a cycle, so ordered_alsinic == "all compatible".
        for bits in itertools.product("ab", repeat=5):
            w = "".join(bits)
            if len(set(w)) < 2:
                continue
            sample = sample_from_periodic(w, AB, 7)
            for left in itertools.permutations(AB.letters):
                report = classify(sample, left, AB.letters, 5)
                if report.ordered_alsinic:
                    assert report.alsinic


class TestSampleBound:
    # Sum of period lengths * max_len * (max_len + 1) / 2 letters at most.
    def test_periodic_refused_before_building(self):
        with pytest.raises(SampleTooLargeError, match="over 3 period letters would spell 15000150000 letters"):
            sample_from_periodic("abc", ABC, 100_000)

    def test_multiset_counts_every_entry(self):
        # 5 * 2828 * 2829 / 2 = 20_001_030 is just over the limit; "abc"
        # alone would spell 12_000_618.
        with pytest.raises(SampleTooLargeError, match="over 5 period letters would spell 20001030 letters"):
            sample_from_multiset(["abc", "ab"], ABC, 2828)

    def test_a_repeated_entry_is_counted_once(self):
        # Only distinct periods are spelled: 3000 copies of ab hold the words
        # of periodic:ab, which is accepted at the same depth.
        repeated = sample_from_multiset(["ab"] * 3000, AB, 100)
        assert repeated.words == sample_from_periodic("ab", AB, 100).words
        with pytest.raises(SampleTooLargeError, match="over 5 period letters would spell 20001030 letters"):
            sample_from_multiset(["abc", "ab", "abc", "ab"], ABC, 2828)

    def test_a_repeated_entry_is_counted_once_on_the_command_line(self, capsys):
        verdicts = []
        for source in ("multiset:" + ",".join(["ab"] * 3000), "periodic:ab"):
            assert main(["classify", "--source", source, "--depth", "98"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            verdicts.append(out.splitlines()[-4:])
        assert verdicts[0] == verdicts[1]

    def test_a_foreign_symbol_is_named_first(self):
        with pytest.raises(ValueError, match="symbol 'x'"):
            sample_from_multiset(["ab", "x"], AB, 10**6)

    # Every source refuses a depth below 1; a periodic source names an empty
    # period first and a foreign symbol last.
    @pytest.mark.parametrize(
        "build, max_len, message",
        [
            (lambda n: sample_from_periodic("ab", AB, n), 0, "max_len must be at least 1"),
            (lambda n: sample_from_periodic("ab", AB, n), -3, "max_len must be at least 1"),
            (lambda n: sample_from_multiset(["ab"], AB, n), 0, "max_len must be at least 1"),
            (lambda n: sample_from_multiset(["ab"], AB, n), -3, "max_len must be at least 1"),
            (lambda n: sample_from_periodic("", AB, n), 0, "nonempty period"),
            (lambda n: sample_from_periodic("x", AB, n), 0, "max_len must be at least 1"),
            (lambda n: sample_from_iet(parse_iet_file(GOLDEN), n), 0, "^max_len must be at least 1$"),
            (lambda n: sample_from_iet(parse_iet_file(GOLDEN), n), -3, "^max_len must be at least 1$"),
        ],
        ids=["periodic-0", "periodic-3", "multiset-0", "multiset-3", "empty-period", "foreign-symbol",
             "iet-0", "iet-3"],
    )
    def test_depth_below_one_is_refused(self, build, max_len, message):
        with pytest.raises(ValueError, match=message):
            build(max_len)


HASH_SEED_SCRIPT = """
from ietkit import LanguageSample, OrderedAlphabet, classify
sample = LanguageSample(
    words=frozenset({"", "a", "x", "y", "ax", "ya"}), max_len=4, alphabet=OrderedAlphabet("ab"), source="hand"
)
try:
    classify(sample, "ab", "ab", 2)
except ValueError as exc:
    print(exc)
"""


def test_two_foreign_symbols_give_one_message_under_every_hash_seed():
    """The least foreign symbol by code point is named, whatever order the
    frozenset of words iterates in."""
    messages = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = str(pathlib.Path(ietkit.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        messages.add(done.stdout)
    assert messages == {"symbol 'x' is not in alphabet ab\n"}
