"""The alphabet order that ``Iet.language`` carries through the refinement.

Each length of ``language(n).by_length`` is checked against the words of an
``Interval``-intersection oracle sorted by the alphabet's key, over random
exchanges whose alphabet order is not the order of their characters.  The
result is a frozenset that keeps its rows through ``copy`` and ``pickle``,
and ``iet language`` prints the rows without sorting them again.
"""

import copy
import pathlib
import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ietkit import Iet, Language, OrderedAlphabet, Permutation, QuadNum  # noqa: E402
from ietkit.cli import main, parse_iet_file  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"


def language_oracle(iet: Iet, n: int) -> set[str]:
    """The words of length <= n, by intersecting translated pieces."""
    words = {""}
    level = [("", iet.domain, QuadNum(0))]
    for _ in range(n):
        next_level = []
        for w, block, shift in level:
            for c in iet.alphabet:
                child = block.intersect(iet.interval(c).translate(-shift))
                if not child.is_empty:
                    next_level.append((w + c, child, shift + iet.translation(c)))
        words.update(w for w, _, _ in next_level)
        level = next_level
    return words


def oracle_rows(iet: Iet, n: int) -> tuple[tuple[str, ...], ...]:
    words = language_oracle(iet, n)
    return tuple(tuple(sorted((w for w in words if len(w) == k), key=iet.alphabet.key)) for k in range(n + 1))


# Letters whose character order differs from the drawn alphabet orders; one
# of them is not ASCII.
LETTERS = "abcdλ"


@st.composite
def exchanges(draw) -> Iet:
    """Exchanges on 2 to 5 letters in a shuffled order, with rational,
    Q(sqrt 2) or Q(sqrt 5) lengths and a nonzero origin; rational ones and
    reducible permutations have connections, which are kept."""
    d = draw(st.integers(2, 5))
    alphabet = OrderedAlphabet(draw(st.permutations(LETTERS))[:d])
    radicand = draw(st.sampled_from([0, 2, 5]))
    q = st.integers(-3, 3) if radicand else st.just(0)
    numbers = st.builds(QuadNum, st.integers(-9, 9), q, st.integers(1, 6), st.just(radicand))
    lengths = {c: draw(numbers.filter(lambda v: v.sign() > 0)) for c in alphabet}
    origin = draw(numbers.filter(lambda v: v.sign() != 0))
    return Iet(alphabet, Permutation(draw(st.permutations(range(d)))), lengths, origin)


@settings(max_examples=150, deadline=None)
@given(exchanges(), st.integers(0, 7))
def test_each_length_is_in_alphabet_order(iet, n):
    language = iet.language(n)
    assert language.by_length == oracle_rows(iet, n)
    assert language == language_oracle(iet, n)


def test_rows_at_the_block_length_match_the_sort():
    iet = parse_iet_file(str(DATA / "sqrt2_4.iet"))
    assert iet.language(18).by_length == oracle_rows(iet, 18)


def test_language_is_a_frozenset_with_rows():
    iet = parse_iet_file(str(DATA / "golden.iet"))
    language = iet.language(3)
    assert isinstance(language, frozenset)
    assert language == set(language) and hash(language) == hash(frozenset(language))
    assert language.by_length[:2] == (("",), ("a", "b", "c"))
    assert iet.language(0).by_length == (("",),)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda language: pickle.loads(pickle.dumps(language)),
], ids=["copy", "deepcopy", "pickle"])
def test_language_survives_copy_and_pickle(clone):
    language = parse_iet_file(str(DATA / "sqrt2_4.iet")).language(5)
    twin = clone(language)
    assert type(twin) is Language
    assert twin == language
    assert twin.by_length == language.by_length


def test_cli_rows_are_not_sorted_again(tmp_path, capsys, monkeypatch):
    """The rows printed by ``iet language`` are the oracle's, in an alphabet
    whose order is not that of its characters, and no word goes through the
    alphabet's sort key."""
    path = tmp_path / "cab.iet"
    path.write_text(
        "d = 2\nalphabet = cab\npi = bac\n"
        "len.c = (1, 1, 2)\nlen.a = (0, 1, 3)\nlen.b = (2, -1, 1)\norigin = (1, 1, 3)\n"
    )
    iet = parse_iet_file(str(path))
    expected = [
        f"length {k} ({len(row)}): {' '.join(row) if k else 'ε'}" for k, row in enumerate(oracle_rows(iet, 6))
    ]
    calls = []
    key = OrderedAlphabet.key
    monkeypatch.setattr(OrderedAlphabet, "key", lambda self, w: calls.append(w) or key(self, w))
    assert main(["iet", "language", str(path), "--max-len", "6"]) == 0
    assert calls == []
    assert capsys.readouterr().out.splitlines() == expected
