import importlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ietkit import (
    OrderedAlphabet,
    Permutation,
    bwt,
    clustering_report,
    conjugates,
    ebwt,
    inverse_ebwt,
    is_lyndon,
    is_primitive,
    multiset_clustering_report,
    parikh,
)
from ietkit.bwt import MAX_TRANSFORM_LETTERS

bwt_module = importlib.import_module("ietkit.bwt")

AB = OrderedAlphabet("ab")
ABC = OrderedAlphabet("abc")
ENGLISH = OrderedAlphabet("abcdefghijklmnopqrstuvwxyz")


def all_words(alphabet, max_len, min_len=1):
    for n in range(min_len, max_len + 1):
        for tup in itertools.product(alphabet.letters, repeat=n):
            yield "".join(tup)


def lyndon_words(alphabet, max_len):
    return [w for w in all_words(alphabet, max_len) if is_lyndon(w, alphabet)]


class TestBwt:
    def test_sphynx(self):
        assert bwt("sphynx", ENGLISH) == "pysxnh"

    @pytest.mark.parametrize(
        "letters, expected",
        [("abn", "nnbaaa"), ("anb", "bnnaaa"), ("nab", "aabnna")],
    )
    def test_banana_three_orders(self, letters, expected):
        assert bwt("banana", OrderedAlphabet(letters)) == expected

    def test_single_letter_power(self):
        assert bwt("aaa", ABC) == "aaa"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bwt("", AB)

    def test_parikh_preserved(self):
        for w in all_words(AB, 6):
            assert parikh(bwt(w, AB), AB) == parikh(w, AB)

    def test_conjugacy_invariance_and_converse(self):
        # Same transform exactly for conjugates, different transform otherwise.
        for alphabet in (AB, ABC):
            for n in range(1, 7):
                by_bwt = {}
                by_class = {}
                for tup in itertools.product(alphabet.letters, repeat=n):
                    w = "".join(tup)
                    canon = min(conjugates(w), key=alphabet.key)
                    by_bwt.setdefault(bwt(w, alphabet), set()).add(canon)
                    by_class.setdefault(canon, set()).add(bwt(w, alphabet))
                assert all(len(v) == 1 for v in by_bwt.values())
                assert all(len(v) == 1 for v in by_class.values())

    def test_power_structure(self):
        # bwt(u^p) interleaves each transform letter p times.
        for u in all_words(AB, 4):
            if not is_primitive(u):
                continue
            base = bwt(u, AB)
            for p in (2, 3):
                assert bwt(u * p, AB) == "".join(c * p for c in base)


class TestEbwt:
    def test_three_word_multiset(self):
        assert ebwt(["aac", "ab", "ab"], ABC) == "cbbaaaa"

    def test_pair_multiset(self):
        assert ebwt(["ab", "aab"], AB) == "babaa"

    def test_singleton(self):
        assert ebwt(["a"], AB) == "a"

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            ebwt(["ba"], AB)
        with pytest.raises(ValueError):
            ebwt(["abab"], AB)

    def test_single_word_matches_bwt(self):
        for w in lyndon_words(AB, 6):
            assert ebwt([w], AB) == bwt(w, AB)


class TestInverseEbwt:
    def test_known_multisets(self):
        assert inverse_ebwt("cbbaaaa", ABC) == ("aac", "ab", "ab")
        assert inverse_ebwt("babaa", AB) == ("aab", "ab")
        assert inverse_ebwt("a", AB) == ("a",)

    def test_total_on_all_strings(self):
        # Round trip ebwt(inverse(s)) == s for every string of length <= 7.
        for s in all_words(AB, 7):
            entries = inverse_ebwt(s, AB)
            assert all(is_lyndon(w, AB) for w in entries)
            assert ebwt(entries, AB) == s

    def test_round_trip_from_multisets(self):
        # inverse(ebwt(W)) == W for every Lyndon multiset of total length <= 8.
        pool = lyndon_words(AB, 8)

        def multisets(start, budget):
            yield ()
            for i in range(start, len(pool)):
                w = pool[i]
                if len(w) <= budget:
                    for rest in multisets(i, budget - len(w)):
                        yield (w,) + rest

        count = 0
        for entries in multisets(0, 8):
            if not entries:
                continue
            ordered = tuple(sorted(entries, key=AB.key))
            assert inverse_ebwt(ebwt(ordered, AB), AB) == ordered
            count += 1
        assert count > 100


class TestClusteringReport:
    def test_banana_perfect(self):
        report = clustering_report("banana", OrderedAlphabet("abn"))
        assert report.is_clustering
        assert report.block_order == ("n", "b", "a")
        assert report.is_perfect

    def test_banana_not_clustering(self):
        report = clustering_report("banana", OrderedAlphabet("nab"))
        assert not report.is_clustering
        assert report.permutation is None
        assert not report.is_perfect

    def test_bac(self):
        report = clustering_report("bac", ABC)
        assert report.is_clustering
        assert report.block_order == ("b", "c", "a")
        assert not report.is_perfect

    def test_support_only(self):
        # Letters absent from the word get no block and no permutation image.
        report = clustering_report("aba", ABC)
        assert report.support.letters == ("a", "b")
        assert report.is_clustering

    def test_block_lengths_match_counts(self):
        for w in all_words(ABC, 5):
            report = clustering_report(w, ABC)
            if report.is_clustering:
                counts = parikh(w, ABC)
                sizes = {c: report.transform.count(c) for c in report.support}
                assert all(sizes[c] == counts[c] for c in report.support)

    def test_clustering_primitivity(self):
        # A power clusters exactly like its primitive root.
        for u in all_words(AB, 4):
            if not is_primitive(u):
                continue
            base = clustering_report(u, AB)
            for p in (2, 3):
                rep = clustering_report(u * p, AB)
                assert rep.is_clustering == base.is_clustering
                assert rep.permutation == base.permutation


class TestMultisetClustering:
    def test_clustering_multiset(self):
        report = multiset_clustering_report(["aac", "ab", "ab"], ABC)
        assert report.is_clustering
        assert report.block_order == ("c", "b", "a")
        assert report.is_perfect

    def test_non_clustering_multiset(self):
        report = multiset_clustering_report(["ab", "aab"], AB)
        assert not report.is_clustering
        assert report.transform == "babaa"

    def test_trivial(self):
        assert multiset_clustering_report(["a"], AB).is_clustering

    def test_members_cluster_but_multiset_does_not(self):
        # Regression witness: both members cluster with the swap, the pair does not.
        swap = Permutation.symmetric(2)
        for w in ("ab", "aab"):
            rep = clustering_report(w, AB)
            assert rep.is_clustering and rep.permutation == swap
        assert not multiset_clustering_report(["ab", "aab"], AB).is_clustering


@st.composite
def words_with_orders(draw):
    """A word of at most 40 letters over 1-4 letters, often a proper power
    u^p, under a drawn order of its alphabet."""
    alphabet = OrderedAlphabet("".join(draw(st.permutations("abcd"[: draw(st.integers(1, 4))]))))
    root = draw(st.text(alphabet.letters, min_size=1, max_size=40))
    power = draw(st.integers(1, 40 // len(root)))
    return root * power, alphabet


def sorted_rotations_transform(w, alphabet):
    n = len(w)
    return "".join(r[-1] for r in sorted(((w + w)[i : i + n] for i in range(n)), key=alphabet.key))


@settings(max_examples=300, deadline=None)
@given(words_with_orders())
def test_every_rotation_has_the_same_clustering_report(case):
    """A report depends on the conjugacy class only, which is what lets
    `verify` check one word of each class."""
    w, alphabet = case
    fields = lambda r: (r.transform, r.is_clustering, r.block_order, r.support, r.permutation)
    expected = fields(clustering_report(w, alphabet))
    assert expected[0] == sorted_rotations_transform(w, alphabet)
    for i in range(1, len(w)):
        assert fields(clustering_report(w[i:] + w[:i], alphabet)) == expected, i


# One letter over the bound, as one word and as a multiset of two-letter entries.
OVER = MAX_TRANSFORM_LETTERS + 1
OVER_MESSAGE = f"^a transform of {OVER} letters is over the bound of {MAX_TRANSFORM_LETTERS} letters$"


@pytest.mark.parametrize(
    "transform, argument",
    [
        (bwt, "ab" * (OVER // 2)),
        (clustering_report, "ab" * (OVER // 2)),
        (ebwt, ["ab"] * (OVER // 2)),
        (multiset_clustering_report, ["ab"] * (OVER // 2)),
        (ebwt, ["ba"] + ["a"] * (OVER - 2)),
    ],
    ids=["bwt", "clustering_report", "ebwt", "multiset_clustering_report", "ebwt-non-lyndon"],
)
def test_a_transform_over_the_bound_is_refused_before_any_work(monkeypatch, transform, argument):
    def no_work(*args, **kwargs):
        raise AssertionError("the transform should have been refused before any work")

    monkeypatch.setattr(bwt_module, "_rotation_sort", no_work)
    monkeypatch.setattr(bwt_module, "is_lyndon", no_work)
    with pytest.raises(ValueError, match=OVER_MESSAGE):
        transform(argument, AB)


def test_the_bound_is_the_largest_code_point():
    assert MAX_TRANSFORM_LETTERS == 0x10FFFF
