"""The T-way rotation sort and the linear-time Lyndon functions against the
quadratic code they replaced, kept here as oracles."""

import random
import tracemalloc

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ietkit import (  # noqa: E402
    Diet,
    OrderedAlphabet,
    Permutation,
    bwt,
    ebwt,
    inverse_ebwt,
    is_lyndon,
    lyndon_representative,
    orbit_words,
    primitive_root,
)
from ietkit.bwt import _T as T  # noqa: E402

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


def test_an_ebwt_of_the_words_workload_size_stays_small_in_memory():
    # The orbits of a 3001-point discrete exchange, the size of the `words`
    # benchmark's multisets: one entry of 376 letters and one of 875 three times.
    alphabet = OrderedAlphabet("abcd")
    entries = orbit_words(Diet([1, 225, 1000, 1775], Permutation.symmetric(4)), alphabet)
    assert sum(map(len, entries)) == 3001
    tracemalloc.start()
    try:
        transform = ebwt(entries, alphabet)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert inverse_ebwt(transform, alphabet) == entries


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


# -- inputs that take the rotation sort through several rounds ----------------------
#
# A round ranks T times as many letters as the one before, so words of a few
# dozen letters rarely need a second round.  Sturmian words have only n + 1
# factors of length n, and powers of a word longer than T repeat a block no
# first round can tell apart, so both need several rounds.


def standard_word(a, b, directive, n):
    """The first n letters of the characteristic Sturmian word with the
    given directive sequence: s_{k+1} = s_k^{d_k} s_{k-1} from s_{-1} = b
    and s_0 = a, with the last part repeated until n letters are there."""
    older, old = b, a
    i = 0
    while len(old) < n:
        older, old = old, old * directive[min(i, len(directive) - 1)] + older
        i += 1
    return old[:n]


# Orders with a letter above U+FFFF, none of them in code point order.
WIDE_ORDERS = ("b\U0001d51ea", "\U0001d51eab", "\U0001d51eba", "c\U0001d51eba")


@st.composite
def wide_alphabet_and_letters(draw):
    """An alphabet from ORDERS or WIDE_ORDERS and two or three letters of it."""
    order = draw(st.sampled_from(ORDERS + WIDE_ORDERS))
    used = draw(st.lists(st.sampled_from(order), min_size=2, max_size=min(3, len(order)), unique=True))
    return OrderedAlphabet(order), used


@st.composite
def sturmian_prefix(draw, letters, n):
    a, b = letters[:2]
    directive = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    return standard_word(a, b, directive, n)


@st.composite
def many_round_word(draw, letters, n):
    """A word of exactly n letters that a first round cannot sort."""
    shape = draw(st.sampled_from(("sturmian", "power", "random", "single")))
    if shape == "sturmian":
        return draw(sturmian_prefix(letters, n))
    if shape == "power":
        u = "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=T + 8)))
        return (u * (n // len(u) + 1))[:n]
    if shape == "single":
        return letters[0] * n
    return "".join(draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(wide_alphabet_and_letters(), st.data())
def test_bwt_of_sturmian_prefixes_equals_the_direct_sort(case, data):
    alphabet, letters = case
    w = data.draw(sturmian_prefix(letters, data.draw(st.integers(1, 300))))
    assert bwt(w, alphabet) == naive_bwt(w, alphabet)


@settings(max_examples=150, deadline=None)
@given(wide_alphabet_and_letters(), st.data())
def test_bwt_of_powers_of_words_longer_than_t(case, data):
    alphabet, letters = case
    u = "".join(data.draw(st.lists(st.sampled_from(letters), min_size=T + 1, max_size=3 * T)))
    w = u * data.draw(st.integers(2, 8))
    assert bwt(w, alphabet) == naive_bwt(w, alphabet)


@pytest.mark.parametrize("n", [T - 1, T, T + 1, T * T, T * T + 1])
@settings(max_examples=60, deadline=None)
@given(case=wide_alphabet_and_letters(), data=st.data())
def test_bwt_at_the_round_lengths(n, case, data):
    alphabet, letters = case
    w = data.draw(many_round_word(letters, n))
    assert bwt(w, alphabet) == naive_bwt(w, alphabet)


@st.composite
def long_lyndon_multisets(draw):
    """Lyndon entries longer than T, some of them repeated, and a few short ones."""
    alphabet, letters = draw(wide_alphabet_and_letters())
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(T + 1, 120))
        w = draw(many_round_word(letters, n))
        root, _ = naive_primitive_root(w)
        entries.append(naive_lyndon_representative(root, alphabet))
    long_entries = [w for w in entries if len(w) > T] or entries
    repeats = draw(st.lists(st.sampled_from(long_entries), min_size=1, max_size=3))
    short = draw(st.lists(st.sampled_from(letters), max_size=2))
    return alphabet, draw(st.permutations(entries + repeats + short))


@settings(max_examples=150, deadline=None)
@given(long_lyndon_multisets())
def test_ebwt_of_long_repeated_entries_equals_the_direct_sort(case):
    alphabet, entries = case
    assert ebwt(entries, alphabet) == naive_ebwt(entries, alphabet)


@pytest.mark.parametrize("order", WIDE_ORDERS)
def test_transforms_over_a_letter_above_u_ffff(order):
    alphabet = OrderedAlphabet(order)
    letters = alphabet.letters
    w = standard_word(letters[0], letters[-1], [1], 200)
    assert bwt(w, alphabet) == naive_bwt(w, alphabet)
    entries = [lyndon_representative(standard_word(letters[1], letters[0], [2, 1], 40), alphabet)] * 2
    entries.append(letters[-1])
    assert ebwt(entries, alphabet) == naive_ebwt(entries, alphabet)
