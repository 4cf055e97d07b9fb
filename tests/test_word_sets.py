"""Word-source samples hold their periods and spell the factors of each length
the first time a word of that length is looked up.  Checked against the
union of ``periodic_factors``, every factor spelled at once."""

import dataclasses
import importlib
import io
import itertools
import pathlib
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from ietkit import (  # noqa: E402
    LanguageSample,
    OrderedAlphabet,
    classify,
    extension_graph,
    sample_from_iet,
    sample_from_multiset,
    sample_from_periodic,
)
from ietkit.cli import main  # noqa: E402
from ietkit.iet import Language  # noqa: E402
from ietkit.instance import parse_iet_file  # noqa: E402

extgraph_module = importlib.import_module("ietkit.extgraph")
DATA = pathlib.Path(__file__).parent / "data"
AB = OrderedAlphabet("ab")

# The deepest sample drawn over each alphabet, so that every word up to
# max_len + 2 over its letters and one foreign symbol stays a few thousand.
DEEPEST = {"a": 8, "ab": 5, "abc": 4}


def build(entries, letters, max_len):
    alphabet = OrderedAlphabet(letters)
    if len(entries) == 1:
        return sample_from_periodic(entries[0], alphabet, max_len)
    return sample_from_multiset(entries, alphabet, max_len)


def periodic_factors(w, max_len):
    reps = w * (max_len // len(w) + 2)
    out = {""}
    for k in range(1, max_len + 1):
        for start in range(len(w)):
            out.add(reps[start : start + k])
    return out


def spelled(entries, max_len):
    return frozenset().union(*(periodic_factors(w, max_len) for w in entries))


@st.composite
def word_sources(draw):
    letters = draw(st.sampled_from(sorted(DEEPEST)))
    entries = draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=7), min_size=1, max_size=3))
    return tuple(entries), letters, draw(st.integers(1, DEEPEST[letters]))


@settings(max_examples=120, deadline=None)
@given(word_sources())
# Spelled one after the other, aab and b would give the false factor bb and,
# at depth 4, the false factor abaa.
@example((("aab", "b"), "ab", 4))
@example((("ab", "ba"), "ab", 5))
@example((("ab", "b", "ab"), "ab", 4))
def test_word_sets_are_the_spelled_factors(case):
    entries, letters, max_len = case
    sample = build(entries, letters, max_len)
    words = sample.words
    union = spelled(entries, max_len)
    for n in range(max_len + 3):
        # The words of length n, and none past max_len.
        haystack = extgraph_module._haystack(sample, n)
        assert haystack == {u for u in union if len(u) == n}, n
        for u in map("".join, itertools.product(letters + "x", repeat=n)):
            assert (u in words) == (u in union), u
            assert (u in haystack) == (u in union), u
    assert set(words) == union and len(words) == len(union)
    assert words == union and union == words and not words != union
    assert hash(words) == hash(union)
    assert words | frozenset() == union
    hand = LanguageSample(words=union, max_len=max_len, alphabet=sample.alphabet, source=sample.source)
    assert sample == hand and hash(sample) == hash(hand)


def test_lookups_stay_exact_when_the_sample_outgrows_its_words():
    # ab repeated for depth 4 is abababab, where ababab also occurs; a sample
    # of depth 8 over the same words must not find it.
    words = sample_from_periodic("ab", AB, 4).words
    deeper = LanguageSample(words=words, max_len=8, alphabet=AB, source="hand")
    assert "ababab" not in words
    assert extension_graph(deeper, "abab").edges == frozenset()
    frozen = dataclasses.replace(deeper, words=frozenset(words))
    assert classify(deeper, "ab", "ab", 6) == classify(frozen, "ab", "ab", 6)


def test_lookups_stay_exact_when_the_separator_is_a_letter():
    # A sample whose alphabet holds '\x00' must not see it as an extension
    # of words that never meet it, and must find it where it is a letter.
    words = sample_from_multiset(["ab", "ba"], AB, 4).words
    alphabet = OrderedAlphabet("\x00ab")
    sample = LanguageSample(words=words, max_len=4, alphabet=alphabet, source="hand")
    graph = extension_graph(sample, "b")
    assert (graph.left, graph.right) == (("a",), ("a",))
    entries = ("a\x00b", "ba")
    sample = sample_from_multiset(entries, alphabet, 4)
    union = spelled(entries, 4)
    for n in range(7):
        for u in map("".join, itertools.product(alphabet.letters, repeat=n)):
            assert (u in sample) == (u in union), u
    assert extension_graph(sample, "\x00").edges == {("a", "b")}


# -- spelling one length at a time ---------------------------------------------------


def random_period(length, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("ab") for _ in range(length))


def test_the_text_is_searched_up_to_its_bound_and_spelled_past_it():
    # Periods a little shorter and longer than the depth, and repeated
    # entries, hold exactly the oracle's words of each length.
    for entries in ([random_period(41, 1)], [random_period(42, 1)], ["ab"] * 30 + ["ba"]):
        words = (sample_from_periodic(entries[0], AB, 10) if len(entries) == 1
                 else sample_from_multiset(entries, AB, 10)).words
        union = spelled(set(entries), 10)
        for k in range(13):
            assert words.of_length(k) == {u for u in union if len(u) == k}, k


def test_a_period_up_to_the_depth_is_classified_by_search():
    period = random_period(200, 2)
    hand = LanguageSample(words=spelled((period,), 202), max_len=202, alphabet=AB, source="hand", bi_infinite=True)
    expected = classify(hand, "ab", "ab", 200)
    sample = sample_from_periodic(period, AB, 202)
    assert classify(sample, "ab", "ab", 200) == expected
    assert "_words" not in sample.words.__dict__


def test_a_period_far_past_the_depth_is_classified_by_its_spelled_factors():
    # A random period of 500 letters has special factors at every length up
    # to 12, so every length is spelled.
    period = random_period(500, 3)
    sample = sample_from_periodic(period, AB, 12)
    report = classify(sample, "ab", "ab", 10)
    hand = LanguageSample(words=spelled((period,), 12), max_len=12, alphabet=AB, source="hand", bi_infinite=True)
    assert report == classify(hand, "ab", "ab", 10)


def test_one_extension_graph_searches_even_a_long_text():
    period = random_period(500, 3)
    hand = LanguageSample(words=spelled((period,), 12), max_len=12, alphabet=AB, source="hand")
    expected = extension_graph(hand, "ab")
    assert extension_graph(sample_from_periodic(period, AB, 12), "ab") == expected


def last_level(union, letters, up_to):
    """The length at which ``classify`` stops on a word source under the
    alphabet orders: the first with no special word, or ``up_to``."""
    for k in range(up_to + 1):
        for v in (u for u in union if len(u) == k):
            left = [a for a in letters if a + v in union]
            right = [b for b in letters if v + b in union]
            if not (len(left) == len(right) == 1 and left[0] + v + right[0] in union):
                break
        else:
            return k
    return up_to


@settings(max_examples=120, deadline=None)
@given(word_sources(), st.data())
def test_classify_spells_two_lengths_past_the_last_level_it_reads(case, data):
    entries, letters, max_len = case
    assume(max_len >= 2)
    up_to = data.draw(st.integers(0, max_len - 2))
    sample = build(entries, letters, max_len)
    classify(sample, letters, letters, up_to)
    assert max(sample.words._by_length) == last_level(spelled(entries, max_len), letters, up_to) + 2


@settings(max_examples=120, deadline=None)
@given(word_sources(), st.data())
def test_one_extension_graph_spells_its_two_lengths(case, data):
    entries, letters, max_len = case
    assume(max_len >= 2)
    v = data.draw(st.text(alphabet=letters, max_size=max_len - 2))
    sample = build(entries, letters, max_len)
    extension_graph(sample, v)
    assert set(sample.words._by_length) == {len(v) + 1, len(v) + 2}


def test_a_long_random_period_stops_spelling_early():
    # Its last special factor is about twice log2(1000) letters long.
    sample = sample_from_periodic(random_period(1000, 3), AB, 102)
    classify(sample, "ab", "ab", 100)
    assert max(sample.words._by_length) < 40


# -- the command line never spells every factor at once ----------------------------


CALLS = [
    (["classify", "--source", "periodic:abaab", "--depth", "7", "--orders", "pi:A"],
     "source: periodic:abaab\n"
     "checked words up to length 7 (bounded-depth verdicts)\n"
     "dendric: no (witness: aba)\n"
     "alsinic: yes\n"
     "ordered_dendric: no (witness: aba)\n"
     "ordered_alsinic: yes\n"),
    (["classify", "--source", "multiset:aac,ab", "--depth", "6", "--orders", "pi:A"],
     "source: multiset:aac,ab\n"
     "checked words up to length 6 (bounded-depth verdicts)\n"
     "note: multiset classification is checked empirically at this depth only\n"
     "dendric: no (witness: a)\n"
     "alsinic: yes\n"
     "ordered_dendric: no (witness: a)\n"
     "ordered_alsinic: yes\n"),
    (["classify", "--source", "multiset:aab,b", "--depth", "5", "--orders", "A:A"],
     "source: multiset:aab,b\n"
     "checked words up to length 5 (bounded-depth verdicts)\n"
     "note: multiset classification is checked empirically at this depth only\n"
     "dendric: no (witness: ε)\n"
     "alsinic: no (witness: ε)\n"
     "ordered_dendric: no (witness: ε)\n"
     "ordered_alsinic: no (witness: ε)\n"),
    (["extgraph", "--source", "periodic:abaab", "--word", "a", "--depth", "5", "--orders", "pi:A"],
     "source: periodic:abaab\n"
     "word: a\n"
     "left (b < a): b a\n"
     "right (a < b): a b\n"
     "edges: (b,a) (b,b) (a,b)\n"
     "tree: yes\n"
     "forest: yes\n"
     "compatible: yes\n"),
]


@pytest.mark.parametrize(
    "argv, expected", CALLS, ids=["classify-periodic", "classify-multiset", "classify-junction", "extgraph-periodic"]
)
def test_word_sources_on_the_command_line_spell_no_factor(monkeypatch, argv, expected):
    def no_spelling(self):
        raise AssertionError("a word source spelled all its factors")

    monkeypatch.setattr(extgraph_module.PeriodicFactors, "_words", property(no_spelling))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    assert (status, out.getvalue(), err.getvalue()) == (0, expected, "")


# -- the one-letter words of an exchange's sample -----------------------------------


class Unlisted(Language):
    """An exchange's language that may be looked up but not iterated."""

    def __iter__(self):
        raise AssertionError("the sample was iterated")


def test_an_iet_sample_gives_its_letters_without_a_scan():
    sample = sample_from_iet(parse_iet_file(str(DATA / "golden.iet")), 30)
    unlisted = dataclasses.replace(sample, words=Unlisted(sample.words.by_length))
    letters = sample.alphabet.letters
    assert classify(unlisted, letters, letters, 28) == classify(sample, letters, letters, 28)
