"""The prefix-doubling rotation sort and the linear-time Lyndon functions
against the quadratic code they replaced, kept here as oracles."""

import random
import tracemalloc

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ietkit import (  # noqa: E402
    OrderedAlphabet,
    bwt,
    ebwt,
    inverse_ebwt,
    is_lyndon,
    lyndon_representative,
    primitive_root,
)

# -- oracles: the direct rotation sorts ------------------------------------------


def naive_bwt(w, alphabet):
    doubled = w + w
    n = len(w)
    rotations = sorted((doubled[i : i + n] for i in range(n)), key=alphabet.key)
    return "".join(rot[-1] for rot in rotations)


def naive_ebwt(entries, alphabet):
    span = 2 * max(len(w) for w in entries)
    rotations = []
    for w in entries:
        doubled = w + w
        rotations.extend(doubled[i : i + len(w)] for i in range(len(w)))
    rotations.sort(key=lambda u: alphabet.key((u * (span // len(u) + 1))[:span]))
    return "".join(u[-1] for u in rotations)


def naive_primitive_root(w):
    n = len(w)
    for k in range(1, n + 1):
        if n % k == 0 and w[:k] * (n // k) == w:
            return w[:k], n // k


def naive_conjugates(w):
    return [w[i:] + w[:i] for i in range(len(w))]


def naive_lyndon_representative(w, alphabet):
    return min(naive_conjugates(w), key=alphabet.key)


def naive_is_lyndon(w, alphabet):
    return bool(w) and naive_primitive_root(w)[1] == 1 and w == naive_lyndon_representative(w, alphabet)


def naive_inverse_ebwt(s, alphabet):
    """The standard permutation with its first column from sorting the
    positions of ``s`` by (letter rank, position)."""
    n = len(s)
    order = sorted(range(n), key=lambda i: (alphabet.rank(s[i]), i))
    first_column = [s[i] for i in order]
    occurrences = {}
    for i, c in enumerate(s):
        occurrences.setdefault(c, []).append(i)
    used = {}
    sigma = []
    for c in first_column:
        sigma.append(occurrences[c][used.get(c, 0)])
        used[c] = used.get(c, 0) + 1
    seen = [False] * n
    words = []
    for start in range(n):
        letters = []
        i = start
        while not seen[i]:
            seen[i] = True
            letters.append(first_column[i])
            i = sigma[i]
        if letters:
            words.append(naive_lyndon_representative("".join(letters), alphabet))
    return tuple(sorted(words, key=alphabet.key))


# -- strategies -------------------------------------------------------------------

ENGLISH = "abcdefghijklmnopqrstuvwxyz"
# Orders that are not code-point order, and an alphabet far larger than the
# two letters a word uses, so a packed key with too small a base shows.
ORDERS = ("nab", "dbca", "ab", "zyxwvutsrqponmlkjihgfedcba", ENGLISH)


@st.composite
def alphabet_and_letters(draw):
    """An ordered alphabet and the letters words may use."""
    order = draw(st.sampled_from(ORDERS + ("shuffled",)))
    if order == "shuffled":
        order = "".join(draw(st.permutations(ENGLISH)))
    used = draw(st.lists(st.sampled_from(order), min_size=1, max_size=min(4, len(order)), unique=True))
    return OrderedAlphabet(order), used


@st.composite
def word_over(draw, letters, max_len=40):
    """A random word, a power u^p of a short one, or a single-letter power."""
    shape = draw(st.sampled_from(("random", "power", "single")))
    if shape == "single":
        return draw(st.sampled_from(letters)) * draw(st.integers(1, 12))
    if shape == "power":
        u = "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=6)))
        return u * draw(st.integers(1, 8))
    return "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=max_len)))


@st.composite
def words(draw):
    alphabet, letters = draw(alphabet_and_letters())
    return alphabet, draw(word_over(letters))


@st.composite
def lyndon_multisets(draw):
    """Lyndon entries, length-1 entries and repeats among them."""
    alphabet, letters = draw(alphabet_and_letters())
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        w = draw(word_over(letters, max_len=12))
        root, _ = naive_primitive_root(w)
        entries.append(naive_lyndon_representative(root, alphabet))
    repeats = draw(st.lists(st.sampled_from(entries), max_size=3))
    return alphabet, draw(st.permutations(entries + repeats))


# -- the transforms -----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(words())
def test_bwt_equals_the_direct_sort(case):
    alphabet, w = case
    assert bwt(w, alphabet) == naive_bwt(w, alphabet)


@settings(max_examples=300, deadline=None)
@given(lyndon_multisets())
def test_ebwt_equals_the_direct_sort(case):
    alphabet, entries = case
    assert ebwt(entries, alphabet) == naive_ebwt(entries, alphabet)


@settings(max_examples=200, deadline=None)
@given(lyndon_multisets())
def test_inverse_ebwt_undoes_ebwt(case):
    alphabet, entries = case
    assert inverse_ebwt(ebwt(entries, alphabet), alphabet) == tuple(sorted(entries, key=alphabet.key))


@settings(max_examples=300, deadline=None)
@given(words())
def test_inverse_ebwt_equals_the_sorted_first_column(case):
    # Any word is the extended transform of some multiset, so every word is
    # a fair input; the oracle sorts positions where inverse_ebwt reads the
    # occurrence lists in alphabet order.
    alphabet, s = case
    assert inverse_ebwt(s, alphabet) == naive_inverse_ebwt(s, alphabet)


@pytest.mark.parametrize("word", ["sphynx", "ab", "ba", "zaz", "yyyyx"])
def test_bwt_over_an_alphabet_larger_than_the_word(word):
    for order in (ENGLISH, ENGLISH[::-1]):
        alphabet = OrderedAlphabet(order)
        assert bwt(word, alphabet) == naive_bwt(word, alphabet)


def test_ebwt_with_single_letter_and_repeated_entries():
    alphabet = OrderedAlphabet("dbca")
    entries = ["a", "d", "d", "ca", "ca", "bca"]
    assert ebwt(entries, alphabet) == naive_ebwt(entries, alphabet)


def test_a_long_bwt_stays_small_in_memory():
    # Every rotation as a key tuple would take about 800 MB at this length.
    rng = random.Random(4)
    alphabet = OrderedAlphabet("dbca")
    words = ["".join(rng.choice("abcd") for _ in range(10_000)), "abcab" * 2000]
    for w in words:
        tracemalloc.start()
        try:
            bwt(w, alphabet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


# -- the Lyndon functions -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(words())
def test_primitive_root_equals_the_divisor_scan(case):
    _, w = case
    assert primitive_root(w) == naive_primitive_root(w)


@settings(max_examples=300, deadline=None)
@given(words())
def test_lyndon_representative_equals_the_least_conjugate(case):
    alphabet, w = case
    if naive_primitive_root(w)[1] > 1:
        with pytest.raises(ValueError, match="not primitive"):
            lyndon_representative(w, alphabet)
    else:
        assert lyndon_representative(w, alphabet) == naive_lyndon_representative(w, alphabet)


@settings(max_examples=300, deadline=None)
@given(words())
def test_is_lyndon_equals_the_conjugate_check(case):
    alphabet, w = case
    for u in {w, naive_lyndon_representative(w, alphabet), w[::-1]}:
        assert is_lyndon(u, alphabet) == naive_is_lyndon(u, alphabet)


def test_lyndon_functions_on_every_short_word():
    for order in ("nab", "ab"):
        alphabet = OrderedAlphabet(order)
        level = [""]
        for _ in range(8):
            level = [w + c for w in level for c in order[:2]]
            for w in level:
                assert is_lyndon(w, alphabet) == naive_is_lyndon(w, alphabet)
                if naive_primitive_root(w)[1] == 1:
                    assert lyndon_representative(w, alphabet) == naive_lyndon_representative(w, alphabet)


def test_is_lyndon_refuses_symbols_outside_the_alphabet():
    assert not is_lyndon("", OrderedAlphabet("ab"))
    with pytest.raises(ValueError, match="not in alphabet"):
        is_lyndon("abx", OrderedAlphabet("ab"))
