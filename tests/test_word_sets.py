"""Word-source samples hold their periods: membership is a substring search in
the repeated periods, and the factors are spelled only when the set is
iterated or when the periods are too long for the depth to search.  Checked
against the union of ``_periodic_factors``, the spelled set."""

import dataclasses
import importlib
import io
import itertools
import pathlib
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

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


def spelled(entries, max_len):
    return frozenset().union(*(extgraph_module._periodic_factors(w, max_len) for w in entries))


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
    haystack = extgraph_module._haystack(sample)
    for n in range(max_len + 3):
        for u in map("".join, itertools.product(letters + "x", repeat=n)):
            assert (u in words) == (u in union), u
            if n <= max_len and "x" not in u:
                assert (u in words.text) == (u in union), u
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
    # The repetitions of ab and ba are joined by the separator; an alphabet
    # that has it as a letter must not see it as an extension.
    words = sample_from_multiset(["ab", "ba"], AB, 4).words
    alphabet = OrderedAlphabet(words.separator + "ab")
    sample = LanguageSample(words=words, max_len=4, alphabet=alphabet, source="hand")
    graph = extension_graph(sample, "b")
    assert (graph.left, graph.right) == (("a",), ("a",))


# -- searching or spelling ----------------------------------------------------------


def random_period(length, seed):
    rng = random.Random(seed)
    return "".join(rng.choice("ab") for _ in range(length))


def test_the_text_is_searched_up_to_its_bound_and_spelled_past_it():
    bound = extgraph_module.SEARCH_TEXT_PER_DEPTH * 10
    # One period's text is its first |w| + max_len - 1 letters.
    within = sample_from_periodic(random_period(bound - 9, 1), AB, 10)
    past = sample_from_periodic(random_period(bound - 8, 1), AB, 10)
    assert len(within.words.text) == bound
    assert extgraph_module._haystack(within) is within.words.text
    assert extgraph_module._haystack(past) is past.words._words
    # Repeated entries add nothing to the text.
    repeated = sample_from_multiset(["ab"] * 30 + ["ba"], AB, 4)
    assert repeated.words.text == "ababa" + repeated.words.separator + "babab"
    assert extgraph_module._haystack(repeated) is repeated.words.text


def test_a_period_up_to_the_depth_is_classified_by_search(monkeypatch):
    period = random_period(200, 2)
    hand = LanguageSample(words=spelled((period,), 202), max_len=202, alphabet=AB, source="hand", bi_infinite=True)
    expected = classify(hand, "ab", "ab", 200)
    monkeypatch.setattr(extgraph_module, "_periodic_factors", None)
    sample = sample_from_periodic(period, AB, 202)
    assert classify(sample, "ab", "ab", 200) == expected
    assert "_words" not in sample.words.__dict__


def test_a_period_far_past_the_depth_is_classified_by_its_spelled_factors():
    # 511 letters of text against depth 12: each lookup would read them all.
    period = random_period(500, 3)
    sample = sample_from_periodic(period, AB, 12)
    report = classify(sample, "ab", "ab", 10)
    assert "_words" in sample.words.__dict__
    # Its extension graphs then look up in the spelled factors too.
    assert extgraph_module._haystack(sample, spell=False) is sample.words._words
    hand = LanguageSample(words=spelled((period,), 12), max_len=12, alphabet=AB, source="hand", bi_infinite=True)
    assert report == classify(hand, "ab", "ab", 10)


def test_one_extension_graph_searches_even_a_long_text(monkeypatch):
    period = random_period(500, 3)
    hand = LanguageSample(words=spelled((period,), 12), max_len=12, alphabet=AB, source="hand")
    expected = extension_graph(hand, "ab")
    monkeypatch.setattr(extgraph_module, "_periodic_factors", None)
    assert extension_graph(sample_from_periodic(period, AB, 12), "ab") == expected


# -- the command line spells no factor ---------------------------------------------


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
    def no_spelling(*args, **kwargs):
        raise AssertionError("a word source spelled its factors")

    monkeypatch.setattr(extgraph_module, "_periodic_factors", no_spelling)
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
