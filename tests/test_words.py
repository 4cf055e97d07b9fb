import itertools
import string

import pytest

from ietkit import (
    OrderedAlphabet,
    Permutation,
    bwt,
    compare_lex,
    compare_omega,
    conjugates,
    ebwt,
    is_lyndon,
    is_primitive,
    lyndon_representative,
    parikh,
    primitive_root,
)
from ietkit.bwt import MAX_TRANSFORM_LETTERS

ENGLISH = OrderedAlphabet("abcdefghijklmnopqrstuvwxyz")
AB = OrderedAlphabet("ab")
ABC = OrderedAlphabet("abc")


def all_words(alphabet, max_len, min_len=1):
    for n in range(min_len, max_len + 1):
        for tup in itertools.product(alphabet.letters, repeat=n):
            yield "".join(tup)


class TestAlphabet:
    def test_order_is_positional(self):
        nab = OrderedAlphabet("nab")
        assert nab.rank("n") == 0
        assert compare_lex("n", "a", nab) == -1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            OrderedAlphabet("aba")

    def test_rejects_unknown_symbol(self):
        with pytest.raises(ValueError):
            ABC.require("abd")

    def test_restrict_keeps_order(self):
        assert ABC.restrict("ca").letters == ("a", "c")


class TestCompareLex:
    def test_equal(self):
        assert compare_lex("ab", "ab", ABC) == 0

    def test_second_letter_decides(self):
        assert compare_lex("aac", "ab", ABC) == -1

    def test_english_rotations(self):
        assert compare_lex("hynxsp", "nxsphy", ENGLISH) == -1

    def test_prefix_is_smaller(self):
        assert compare_lex("ab", "aba", ABC) == -1


class TestCompareOmega:
    def test_power_of_same_letter(self):
        assert compare_omega("a", "aa", ABC) == 0

    def test_expansion(self):
        assert compare_omega("aac", "ab", ABC) == -1

    def test_shorter_can_be_larger(self):
        assert compare_omega("ba", "b", AB) == -1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_omega("", "a", AB)

    def test_equal_iff_commute_exhaustive(self):
        # Every pair of words of length <= 6 over two letters.
        words = list(all_words(AB, 6))
        for u in words:
            for v in words:
                expected = u + v == v + u
                assert (compare_omega(u, v, AB) == 0) == expected


class TestConjugates:
    def test_two_letters(self):
        assert conjugates("ab") == ["ab", "ba"]

    def test_nonprimitive_repeats(self):
        assert conjugates("aa") == ["aa", "aa"]

    def test_sphynx(self):
        rots = conjugates("sphynx")
        assert len(rots) == 6
        assert "hynxsp" in rots and "ynxsph" in rots

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            conjugates("")

    def test_count_and_distinctness(self):
        for w in all_words(AB, 6):
            rots = conjugates(w)
            assert len(rots) == len(w)
            assert (len(set(rots)) == len(w)) == is_primitive(w)


class TestPrimitiveRoot:
    @pytest.mark.parametrize(
        "word, root, power",
        [("abab", "ab", 2), ("aab", "aab", 1), ("aaa", "a", 3)],
    )
    def test_examples(self, word, root, power):
        assert primitive_root(word) == (root, power)

    def test_reconstruction(self):
        for w in all_words(AB, 6):
            u, p = primitive_root(w)
            assert u * p == w
            assert is_primitive(u)


class TestLyndon:
    def test_swap(self):
        assert lyndon_representative("ba", AB) == "ab"

    def test_three_letters(self):
        assert lyndon_representative("aca", ABC) == "aac"
        assert lyndon_representative("cab", ABC) == "abc"

    def test_nonprimitive_rejected(self):
        with pytest.raises(ValueError):
            lyndon_representative("abab", AB)

    def test_minimal_among_rotations(self):
        for w in all_words(AB, 6):
            if not is_primitive(w):
                continue
            rep = lyndon_representative(w, AB)
            assert is_lyndon(rep, AB)
            assert all(compare_lex(rep, rot, AB) <= 0 for rot in conjugates(w))


class TestParikh:
    def test_multiset_sum(self):
        total = {"a": 0, "b": 0, "c": 0}
        for w in ("aac", "ab", "ab"):
            for c, k in parikh(w, ABC).items():
                total[c] += k
        assert total == {"a": 4, "b": 2, "c": 1}

    def test_empty(self):
        assert parikh("", ABC) == {"a": 0, "b": 0, "c": 0}

    def test_banana(self):
        abn = OrderedAlphabet("abn")
        assert parikh("banana", abn) == {"a": 3, "b": 1, "n": 2}

    def test_additive(self):
        for u, v in [("ab", "ba"), ("aab", "b"), ("", "ab")]:
            left = parikh(u + v, AB)
            u_counts, v_counts = parikh(u, AB), parikh(v, AB)
            assert left == {c: u_counts[c] + v_counts[c] for c in AB}


class TestPermutation:
    def test_one_line_letters(self):
        pi = Permutation.from_one_line_letters("bca", ABC)
        assert pi.images == (1, 2, 0)
        assert pi.one_line_letters(ABC) == "bca"

    def test_cycles_parse(self):
        pi = Permutation.from_cycles("(a c)(b)", ABC)
        assert pi == Permutation.from_one_line_letters("cba", ABC)
        assert Permutation.from_cycles("(ac)", ABC) == pi

    def test_parse_dispatch(self):
        assert Permutation.parse("(a c)", ABC) == Permutation.parse("cba", ABC)

    def test_symmetric(self):
        assert Permutation.symmetric(3).images == (2, 1, 0)
        assert Permutation.symmetric(3).is_symmetric

    def test_inverse_and_compose(self):
        pi = Permutation.from_one_line_letters("bca", ABC)
        assert (pi * pi.inverse()).is_identity
        assert (pi.inverse() * pi).is_identity

    def test_irreducible(self):
        assert Permutation.from_one_line_letters("bca", ABC).is_irreducible
        assert not Permutation.from_one_line_letters("bac", ABC).is_irreducible
        assert not Permutation.identity(3).is_irreducible

    def test_circular(self):
        assert Permutation.from_one_line_letters("bca", ABC).is_circular
        assert not Permutation.symmetric(3).is_circular

    def test_cycle_string(self):
        mu = Permutation([3, 4, 5, 6, 1, 2, 0])
        assert mu.cycle_string() == "(1,4,7)(2,5)(3,6)"

    def test_cycle_string_takes_an_alphabet_of_its_size_only(self):
        pi = Permutation([1, 0, 2])
        assert pi.cycle_string(ABC) == "(a b)(c)"
        for letters in ("ab", "abcd"):
            with pytest.raises(ValueError, match="^alphabet size does not match permutation size$"):
                pi.cycle_string(OrderedAlphabet(letters))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])


# -- the rank table ------------------------------------------------------------

# Letters that are rank digits themselves, ASCII letters, and letters above U+FFFF.
POOL = "\x00\x01\x02\x03" + string.ascii_letters + "\U00010000\U0001f600\U0010ffff"


def test_key_orders_words_as_rank_tuples():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        letters = data.draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=40, unique=True))
        alphabet = OrderedAlphabet(letters)
        words = data.draw(st.lists(st.text(st.sampled_from(letters), max_size=8), max_size=30))
        ranks = lambda w: tuple(map(alphabet.rank, w))
        assert sorted(words, key=alphabet.key) == sorted(words, key=ranks)
        for u, v in zip(words, reversed(words)):
            assert compare_lex(u, v, alphabet) == (ranks(u) > ranks(v)) - (ranks(u) < ranks(v))

    check()


# Each call meets '\x01' before any other foreign symbol, and '\x00' and
# '\x01' are the rank digits of a and b.
FIRST_FOREIGN = [
    ("key", lambda: AB.key("ab\x01a\x00")),
    ("require", lambda: AB.require("b\x01\x00")),
    ("bwt", lambda: bwt("ab\x01c", AB)),
    ("ebwt", lambda: ebwt(["ab", "a\x01b\x00", "a\x00"], AB)),
    ("is_lyndon", lambda: is_lyndon("a\x01\x00", AB)),
    ("lyndon_representative", lambda: lyndon_representative("ba\x01\x00", AB)),
    ("compare_lex", lambda: compare_lex("ab\x01", "\x00", AB)),
    ("compare_lex-second", lambda: compare_lex("ab", "b\x01\x00", AB)),
    ("compare_omega", lambda: compare_omega("a\x01", "\x00", AB)),
    ("compare_omega-second", lambda: compare_omega("ab", "\x01\x00", AB)),
]


@pytest.mark.parametrize("call", [c for _, c in FIRST_FOREIGN], ids=[i for i, _ in FIRST_FOREIGN])
def test_the_first_foreign_symbol_is_named(call):
    with pytest.raises(ValueError, match=r"^symbol '\\x01' is not in alphabet ab$"):
        call()


def test_an_oversized_multiset_is_refused_before_its_foreign_symbol():
    entries = ["a\x01"] + ["ab"] * (MAX_TRANSFORM_LETTERS // 2)
    with pytest.raises(ValueError, match=r"^a transform of \d+ letters is over the bound"):
        ebwt(entries, AB)
