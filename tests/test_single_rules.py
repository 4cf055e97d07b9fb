"""Rules written once, checked against the earlier copies kept here as oracles.

The Rauzy step used to update its state in four branches, one per kind and
case, and built its morphism by hand; the image order of a permutation was
computed separately by ``Iet``, ``order_from_permutation`` and
``restricted_permutation`` (gone from the package; its pattern is read off
the image order below).  Each oracle below is that earlier code, and
the current single rule must agree with it on random inputs.  The Lyndon
test used to run Duval's scan beside the least-conjugate race of
``lyndon_representative``, and is now the definition over that race.  The
package's ``__all__`` used to be spelled out beside its imports, and is now
read off them.
"""

import inspect

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import ietkit.rauzy  # noqa: E402
from ietkit import Iet, OrderedAlphabet, Permutation, QuadNum, is_lyndon  # noqa: E402
from ietkit.extgraph import order_from_permutation, sample_from_multiset  # noqa: E402
from ietkit.morphisms import Morphism, make_alpha, make_alpha_tilde, substitution  # noqa: E402
from ietkit.rauzy import (  # noqa: E402
    LEFT,
    RIGHT,
    TOP_LONGER,
    TOP_SHORTER,
    StepRecord,
    ZeroConnectionError,
    _step,
    step_morphism,
)
from ietkit.verify import verify_return_words  # noqa: E402

LETTERS = "abcdefg"


# -- the earlier code --------------------------------------------------------


def oracle_image_letters(pi: Permutation, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    letters = alphabet.letters
    return tuple(letters[pi(i)] for i in range(len(letters)))


def oracle_order_from_permutation(pi: Permutation, alphabet: OrderedAlphabet) -> tuple[str, ...]:
    inv = pi.inverse()
    return tuple(sorted(alphabet.letters, key=lambda c: inv(alphabet.rank(c))))


def oracle_restricted_permutation(pi, alphabet, support) -> Permutation:
    image_letters = [alphabet.letters[pi(i)] for i in range(len(pi))]
    kept = [c for c in image_letters if c in support]
    return Permutation(support.rank(c) for c in kept)


def oracle_step(iet: Iet, kind: str):
    """(alphabet, permutation, lengths, origin, record) of the four-branch
    update, or None on a zero connection.  It checks nothing."""
    alphabet = iet.alphabet
    letters = alphabet.letters
    image = oracle_image_letters(iet.permutation, alphabet)
    if kind == RIGHT:
        pivot, partner = letters[-1], image[-1]
    else:
        pivot, partner = letters[0], image[0]
    lp = iet.length(pivot)
    lq = iet.length(partner)
    if lp == lq:
        return None
    lengths = iet.lengths
    origin = iet.origin
    if lp > lq:
        case = TOP_LONGER
        lengths[pivot] = lp - lq
        new_letters = letters
        seq = list(image[:-1]) if kind == RIGHT else list(image[1:])
        if kind == RIGHT:
            seq.insert(seq.index(pivot) + 1, partner)
        else:
            seq.insert(seq.index(pivot), partner)
            origin = origin + lq
    else:
        case = TOP_SHORTER
        lengths[partner] = lq - lp
        base = [c for c in letters if c != pivot]
        if kind == RIGHT:
            base.insert(base.index(partner) + 1, pivot)
        else:
            base.insert(base.index(partner), pivot)
            origin = origin + lp
        new_letters = tuple(base)
        seq = list(image)
    post = OrderedAlphabet(new_letters)
    permutation = Permutation(post.rank(c) for c in seq)
    record = StepRecord(kind, case, pivot, partner, alphabet, post)
    return post, permutation, lengths, origin, record


def oracle_step_morphism(record: StepRecord) -> Morphism:
    images = {c: c for c in record.pre_alphabet}
    if record.case == TOP_LONGER:
        images[record.partner_letter] = record.partner_letter + record.pivot_letter
    else:
        images[record.pivot_letter] = record.partner_letter + record.pivot_letter
    return Morphism(record.post_alphabet, record.pre_alphabet, images)


def oracle_alpha(a: str, b: str, alphabet: OrderedAlphabet, tilde: bool) -> Morphism:
    images = {c: c for c in alphabet}
    images[a] = b + a if tilde else a + b
    return Morphism(alphabet, alphabet, images)


def oracle_is_lyndon(w: str, alphabet: OrderedAlphabet) -> bool:
    """Duval's scan: ``i`` trails ``j`` by the period of the prefix read so
    far; a bigger letter resets the period to the whole prefix, an equal one
    keeps it, and a smaller one ends the first Lyndon factor before the end."""
    if not w:
        return False
    s = alphabet.key(w)
    i = 0
    for j in range(1, len(s)):
        a, b = s[i], s[j]
        if a < b:
            i = 0
        elif a == b:
            i += 1
        else:
            return False
    return i == 0


# -- strategies ----------------------------------------------------------------


@st.composite
def alphabets(draw, min_size=1, max_size=5) -> OrderedAlphabet:
    d = draw(st.integers(min_size, max_size))
    return OrderedAlphabet(draw(st.permutations(LETTERS))[:d])


@st.composite
def rational_exchanges(draw) -> Iet:
    """An irreducible exchange of 2 to 5 letters with rational lengths and origin."""
    alphabet = draw(alphabets(2, 5))
    d = len(alphabet)
    images = draw(st.permutations(range(d)).filter(lambda p: Permutation(p).is_irreducible))
    rational = st.builds(lambda p, r: QuadNum(p, 0, r), st.integers(1, 12), st.integers(1, 3))
    lengths = {c: draw(rational) for c in alphabet}
    origin = QuadNum(draw(st.integers(-3, 3)), 0, draw(st.integers(1, 3)))
    return Iet(alphabet, Permutation(images), lengths, origin)


# -- the checks ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(start=rational_exchanges(), kinds=st.lists(st.sampled_from([RIGHT, LEFT]), min_size=1, max_size=6))
def test_step_rule_matches_the_four_branches(start, kinds):
    iet = start
    for kind in kinds:
        expected = oracle_step(iet, kind)
        if expected is None:
            with pytest.raises(ZeroConnectionError):
                _step(iet, kind)
            return
        induced, record = _step(iet, kind)
        got = (induced.alphabet, induced.permutation, induced.lengths, induced.origin, record)
        assert got == expected
        assert step_morphism(record) == oracle_step_morphism(record)
        iet = induced


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_image_order_matches_the_earlier_formulas(data):
    alphabet = data.draw(alphabets())
    d = len(alphabet)
    pi = Permutation(data.draw(st.permutations(range(d))))
    iet = Iet(alphabet, pi, {c: i + 1 for i, c in enumerate(alphabet)})
    assert iet.image_order_letters() == oracle_image_letters(pi, alphabet)
    assert order_from_permutation(pi, alphabet) == oracle_order_from_permutation(pi, alphabet)
    kept = data.draw(st.lists(st.sampled_from(alphabet.letters), min_size=1, max_size=d, unique=True))
    support = OrderedAlphabet(kept)
    restricted = "".join(c for c in iet.image_order_letters() if c in support)
    assert Permutation.from_one_line_letters(restricted, support) == oracle_restricted_permutation(pi, alphabet, support)


@settings(max_examples=100, deadline=None)
@given(alphabet=alphabets(2, 5), data=st.data())
def test_alpha_and_alpha_tilde_are_substitutions(alphabet, data):
    a, b = data.draw(st.lists(st.sampled_from(alphabet.letters), min_size=2, max_size=2, unique=True))
    assert make_alpha(a, b, alphabet) == oracle_alpha(a, b, alphabet, tilde=False)
    assert make_alpha_tilde(a, b, alphabet) == oracle_alpha(a, b, alphabet, tilde=True)


def test_substitution_names_only_source_letters():
    with pytest.raises(ValueError, match="outside the source alphabet"):
        substitution("z", "ab", OrderedAlphabet("ab"), OrderedAlphabet("ab"))


def test_size_mismatch_messages_are_kept():
    pi = Permutation.identity(2)
    with pytest.raises(ValueError, match="^permutation size does not match alphabet size$"):
        order_from_permutation(pi, OrderedAlphabet("abc"))
    with pytest.raises(ValueError, match="^permutation size does not match alphabet size$"):
        Iet(OrderedAlphabet("abc"), pi, {"a": 1, "b": 1, "c": 1})


def test_return_words_of_the_empty_word_are_the_letters(golden):
    assert golden.return_words_scan("") == frozenset("abc")


def test_a_multiset_sample_refuses_an_empty_entry():
    with pytest.raises(ValueError, match="nonempty words"):
        sample_from_multiset(["", "ab"], OrderedAlphabet("ab"), 3)


# Words over a reordering of abc and one foreign symbol z: the empty word,
# any short word, and proper powers of short words.
lyndon_cases = st.tuples(
    st.permutations("abc").map(OrderedAlphabet),
    st.one_of(
        st.text("abcz", max_size=9),
        st.builds(lambda u, p: u * p, st.text("abc", min_size=1, max_size=4), st.integers(2, 3)),
    ),
)


@settings(max_examples=400, deadline=None)
@given(case=lyndon_cases)
def test_the_lyndon_test_matches_duvals_scan(case):
    alphabet, w = case
    try:
        expected = oracle_is_lyndon(w, alphabet)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            is_lyndon(w, alphabet)
        assert str(caught.value) == str(exc)
    else:
        assert is_lyndon(w, alphabet) is expected


def test_induction_tests_irreducibility_on_the_instance(monkeypatch, golden):
    """Every walk of ``verify``, resumed ones included, tests the instance
    itself, whose permutation is built once, not the state it resumes from."""
    seen = []
    inducible = ietkit.rauzy._inducible

    def recording(iet):
        seen.append(iet)
        return inducible(iet)

    monkeypatch.setattr(ietkit.rauzy, "_inducible", recording)
    verify_return_words(golden, 6)
    assert seen
    assert all(iet is golden for iet in seen)


def test_all_is_the_sorted_public_classes_and_functions_of_the_package():
    namespace = {}
    exec("from ietkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ietkit.__all__ == sorted(set(ietkit.__all__))
    for name in ietkit.__all__:
        value = getattr(ietkit, name)
        assert inspect.isclass(value) or inspect.isfunction(value), name
        assert value.__module__.startswith("ietkit."), name
    public = {
        name for name, value in vars(ietkit).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert public <= set(ietkit.__all__)
