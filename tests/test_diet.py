import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ietkit import (
    Diet,
    OrderedAlphabet,
    Permutation,
    clustering_report,
    diet_action,
    diet_cylinder,
    diet_from_multiset,
    is_primitive,
    lyndon_representative,
    multiset_clustering_report,
    multiset_parikh,
    orbit_words,
    parikh,
)

AB = OrderedAlphabet("ab")
ABC = OrderedAlphabet("abc")


def restricted_permutation(pi: Permutation, alphabet: OrderedAlphabet, support: OrderedAlphabet) -> Permutation:
    """The pattern of ``pi`` on a sub-alphabet: its image order restricted
    to the support letters, read as a permutation of the support."""
    image = "".join(c for c in pi.one_line_letters(alphabet) if c in support)
    return Permutation.from_one_line_letters(image, support)


class TestConstruction:
    def test_shift_vector(self, seven_diet):
        assert seven_diet.shifts == (3, -3, -6)

    def test_two_cycle(self):
        diet = Diet([1, 1], Permutation.symmetric(2))
        assert diet.shifts == (1, -1)

    def test_identity_is_constructible(self):
        diet = Diet([2, 3], Permutation.identity(2))
        assert diet.shifts == (0, 0)
        assert diet_action(diet).is_identity

    def test_rejects_non_positive_parts(self):
        with pytest.raises(ValueError):
            Diet([2, 0], Permutation.identity(2))


class TestAction:
    def test_seven_point_cycles(self, seven_diet):
        assert diet_action(seven_diet).cycle_string() == "(1,4,7)(2,5)(3,6)"

    def test_swap(self):
        diet = Diet([1, 1], Permutation.symmetric(2))
        assert diet_action(diet).cycle_string() == "(1,2)"

    def test_always_bijection_random(self):
        rng = random.Random(42)
        for _ in range(100):
            d = rng.randint(1, 4)
            parts = [rng.randint(1, 4) for _ in range(d)]
            pi = Permutation(rng.sample(range(d), d))
            mu = diet_action(Diet(parts, pi))  # constructor validates bijection
            assert sum(len(c) for c in mu.cycles()) == sum(parts)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.data())
    def test_action_is_apply_at_every_point(self, parts, data):
        diet = Diet(parts, Permutation(data.draw(st.permutations(range(len(parts))))))
        mu = diet_action(diet)
        assert [mu(k - 1) + 1 for k in range(1, diet.n + 1)] == [diet.apply(k) for k in range(1, diet.n + 1)]


class TestOrbitWords:
    def test_seven_point(self, seven_diet, abc):
        assert orbit_words(seven_diet, abc) == ("aac", "ab", "ab")

    def test_single_swap(self):
        diet = Diet([1, 1], Permutation.symmetric(2))
        assert orbit_words(diet, AB) == ("ab",)

    def test_three_cycle(self):
        diet = Diet([2, 1], Permutation.symmetric(2))
        assert orbit_words(diet, AB) == ("aab",)

    def test_parikh_matches_composition(self):
        rng = random.Random(5)
        for _ in range(100):
            d = rng.randint(1, 4)
            parts = [rng.randint(1, 4) for _ in range(d)]
            pi = Permutation(rng.sample(range(d), d))
            alphabet = OrderedAlphabet("abcd"[:d])
            words = orbit_words(Diet(parts, pi), alphabet)
            counts = dict.fromkeys(alphabet.letters, 0)
            for w in words:
                for c in w:
                    counts[c] += 1
            assert tuple(counts[c] for c in alphabet) == tuple(parts)


class TestCylinders:
    def test_seven_point(self, seven_diet, abc):
        assert diet_cylinder(seven_diet, "a", abc) == {1, 2, 3, 4}
        assert diet_cylinder(seven_diet, "ab", abc) == {2, 3}
        assert diet_cylinder(seven_diet, "aac", abc) == {1}

    def test_empty_word(self, seven_diet, abc):
        assert diet_cylinder(seven_diet, "", abc) == set(range(1, 8))


class TestMultisetCorrespondence:
    def test_seven_point_round_trip(self, seven_diet, abc):
        diet = diet_from_multiset(["aac", "ab", "ab"], Permutation.symmetric(3), abc)
        assert diet.composition == (4, 2, 1)
        assert orbit_words(diet, abc) == ("aac", "ab", "ab")

    def test_swap_pair(self):
        diet = diet_from_multiset(["ab"], Permutation.symmetric(2), AB)
        assert diet.composition == (1, 1)

    def test_non_clustering_rejected(self):
        with pytest.raises(ValueError, match="babaa"):
            diet_from_multiset(["ab", "aab"], Permutation.symmetric(2), AB)

    def test_round_trip_over_random_diets(self):
        rng = random.Random(10)
        done = 0
        while done < 60:
            d = rng.randint(2, 4)
            parts = [rng.randint(1, 4) for _ in range(d)]
            pi = Permutation(rng.sample(range(d), d))
            alphabet = OrderedAlphabet("abcd"[:d])
            words = orbit_words(Diet(parts, pi), alphabet)
            report = multiset_clustering_report(words, alphabet)
            if not report.is_clustering or report.permutation != pi:
                # Orbit multisets are clustering for the permutation that
                # produced them whenever every letter block really occurs.
                continue
            again = diet_from_multiset(words, pi, alphabet)
            assert again.composition == tuple(parts)
            assert orbit_words(again, alphabet) == words
            done += 1

    def test_members_cluster_with_restricted_pattern(self):
        rng = random.Random(77)
        for _ in range(80):
            d = rng.randint(2, 4)
            parts = [rng.randint(1, 3) for _ in range(d)]
            pi = Permutation(rng.sample(range(d), d))
            alphabet = OrderedAlphabet("abcd"[:d])
            words = orbit_words(Diet(parts, pi), alphabet)
            if not multiset_clustering_report(words, alphabet).is_clustering:
                continue
            for w in words:
                rep = clustering_report(w, alphabet)
                assert rep.is_clustering
                assert rep.permutation == restricted_permutation(pi, alphabet, rep.support)

    def test_non_converse_witness(self):
        # Both members cluster for the swap, the multiset does not.
        swap = Permutation.symmetric(2)
        for w in ("ab", "aab"):
            assert clustering_report(w, AB).permutation == swap
        assert not multiset_clustering_report(["ab", "aab"], AB).is_clustering


def linear_block_of(diet, k):
    """The block scan that bisection replaced."""
    start = 0
    for i, part in enumerate(diet.composition):
        start += part
        if k <= start:
            return i


@pytest.mark.parametrize("parts", [[1], [4, 2, 1], [1, 1, 1, 1], [3, 1, 5, 1, 2], [2, 7]])
def test_block_of_at_every_block_boundary(parts):
    diet = Diet(parts, Permutation.symmetric(len(parts)))
    starts = list(itertools.accumulate(parts, initial=0))
    points = {1, diet.n} | {s for s in starts[:-1] if s >= 1} | {s + 1 for s in starts[:-1]}
    for k in sorted(points):
        assert diet.block_of(k) == linear_block_of(diet, k)
    for k in (0, diet.n + 1):
        with pytest.raises(ValueError, match=rf"^{k} is outside 1\.\.{diet.n}$"):
            diet.block_of(k)


def orbit_words_oracle(diet, alphabet):
    """The orbit loop that reading the cycles of ``diet_action`` replaced:
    each orbit followed from its least integer, one block lookup a step."""
    letters = alphabet.letters
    seen = [False] * (diet.n + 1)
    words = []
    for start in range(1, diet.n + 1):
        if seen[start]:
            continue
        k = start
        spelled = []
        while not seen[k]:
            seen[k] = True
            i = diet.block_of(k)
            spelled.append(letters[i])
            k += diet.shifts[i]
        word = "".join(spelled)
        if not is_primitive(word):
            raise AssertionError(f"orbit word {word!r} is not primitive")
        words.append(lyndon_representative(word, alphabet))
    return tuple(sorted(words, key=alphabet.key))


def test_orbit_words_read_each_block_once(monkeypatch):
    """No block lookup at all, and the words the letter and shift of each
    block spell."""
    diet = Diet([4, 2, 1], Permutation.symmetric(3))
    calls = []
    real = Diet.block_of

    def counted(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(Diet, "block_of", counted)
    assert orbit_words(diet, ABC) == ("aac", "ab", "ab")
    assert calls == []


@st.composite
def compositions_and_permutations(draw):
    """1 to 6 parts of 1 to 8 points under any permutation, reducible ones included."""
    d = draw(st.integers(1, 6))
    parts = draw(st.lists(st.integers(1, 8), min_size=d, max_size=d))
    return Diet(parts, Permutation(draw(st.permutations(range(d)))))


@settings(max_examples=300, deadline=None)
@given(compositions_and_permutations())
def test_orbit_words_match_the_orbit_loop(diet):
    alphabet = OrderedAlphabet("abcdef"[: len(diet.composition)])
    assert orbit_words(diet, alphabet) == orbit_words_oracle(diet, alphabet)


def cylinder_oracle(diet, w, alphabet):
    """The orbit loop that reading the exchange's cylinder replaced: each
    integer's orbit followed letter by letter."""
    if len(alphabet) != len(diet.composition):
        raise ValueError("alphabet size does not match the number of parts")
    alphabet.require(w)
    letters = alphabet.letters
    out = set()
    for start in range(1, diet.n + 1):
        k = start
        ok = True
        for c in w:
            if letters[diet.block_of(k)] != c:
                ok = False
                break
            k = diet.apply(k)
        if ok:
            out.add(start)
    return out


@st.composite
def cylinder_cases(draw):
    """A discrete exchange of up to five parts of at most 9 points, an
    alphabet of its size or (rarely) one letter more or less, and a word of
    up to 4 letters that may hold a foreign symbol."""
    d = draw(st.integers(1, 5))
    parts = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    pi = Permutation(draw(st.permutations(range(d))))
    size = draw(st.sampled_from([d] * 8 + [max(1, d - 1), d + 1]))
    alphabet = OrderedAlphabet("abcdef"[:size])
    w = draw(st.text(alphabet="abcdefx", max_size=4))
    return Diet(parts, pi), w, alphabet


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(cylinder_cases())
def test_cylinder_matches_the_orbit_loop(case):
    diet, w, alphabet = case
    assert outcome(lambda: diet_cylinder(diet, w, alphabet)) == outcome(lambda: cylinder_oracle(diet, w, alphabet))


@pytest.mark.parametrize("parts, pi, letters, w, expected", [
    ([4, 2, 1], "cba", "abc", "", set(range(1, 8))),
    ([4, 2, 1], "cba", "abc", "cc", set()),
    ([4, 2, 1], "cba", "abc", "aacaa", {1}),
    ([2, 3], "ab", "ab", "bbbb", {3, 4, 5}),
    ([4, 2, 1], "cba", "abc", "abx", "ValueError: symbol 'x' is not in alphabet abc"),
    ([4, 2, 1], "cba", "abc", "xyz", "ValueError: symbol 'x' is not in alphabet abc"),
    ([4, 2, 1], "cba", "abcd", "ab", "ValueError: alphabet size does not match the number of parts"),
    ([4, 2, 1], "cba", "ab", "x", "ValueError: alphabet size does not match the number of parts"),
], ids=["empty", "outside-language", "long", "identity", "foreign", "foreign-first", "size", "size-first"])
def test_cylinder_pins_and_its_errors(parts, pi, letters, w, expected):
    """The size check comes before the symbol check, as in the orbit loop."""
    diet = Diet(parts, Permutation.from_one_line_letters(pi, OrderedAlphabet("abcd"[: len(parts)])))
    alphabet = OrderedAlphabet(letters)
    assert outcome(lambda: diet_cylinder(diet, w, alphabet)) == expected
    assert outcome(lambda: cylinder_oracle(diet, w, alphabet)) == expected


def summed_parikh(entries, alphabet):
    counts = dict.fromkeys(alphabet.letters, 0)
    for w in entries:
        for c, k in parikh(w, alphabet).items():
            counts[c] += k
    return counts


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="abcx", max_size=5), max_size=5))
def test_multiset_parikh_sums_the_parikh_vectors(entries):
    """The same counts, and on a foreign symbol the same message naming the
    first one in word order."""
    assert outcome(lambda: multiset_parikh(entries, ABC)) == outcome(lambda: summed_parikh(entries, ABC))


def test_multiset_parikh_names_the_first_foreign_symbol():
    with pytest.raises(ValueError, match=r"^symbol 'y' is not in alphabet abc$"):
        multiset_parikh(["ab", "cay", "x"], ABC)
