"""Substitution morphisms on free monoids.

``substitution(a, image, source, target)`` sends ``a`` to ``image`` and
fixes every other letter.  The two working horses are its instances that
map one letter to a two-letter word: ``make_alpha(a, b)`` sends ``a -> ab``
and ``make_alpha_tilde(a, b)`` sends ``a -> ba``.  Compositions of these,
produced step by step during Rauzy induction, send letters to return words.

A morphism carries explicit source and target alphabets even when the letter
sets coincide, because induction steps reorder alphabets and clustering is
order-sensitive; composition checks that the orders agree, not only the
letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from .words import OrderedAlphabet, Permutation


@dataclass(frozen=True, eq=False)
class Morphism:
    source: OrderedAlphabet
    target: OrderedAlphabet
    images: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "images", dict(self.images))
        for letter in self.source:
            img = self.images.get(letter)
            if not img:
                raise ValueError(f"letter {letter!r} has no (nonempty) image")
            self.target.require(img)
        extra = set(self.images) - set(self.source.letters)
        if extra:
            raise ValueError(f"images given for letters outside the source alphabet: {sorted(extra)}")

    def __call__(self, word: str) -> str:
        self.source.require(word)
        return "".join(self.images[c] for c in word)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and dict(self.images) == dict(other.images)
        )

    def __repr__(self) -> str:
        body = ",".join(f"{c}:{self.images[c]}" for c in self.source)
        return f"Morphism({body} : {self.source} -> {self.target})"


def identity(alphabet: OrderedAlphabet) -> Morphism:
    return Morphism(alphabet, alphabet, {c: c for c in alphabet})


def substitution(a: str, image: str, source: OrderedAlphabet, target: OrderedAlphabet) -> Morphism:
    """a -> image, every other letter fixed."""
    images = {c: c for c in source}
    images[a] = image
    return Morphism(source, target, images)


def make_alpha(a: str, b: str, alphabet: OrderedAlphabet) -> Morphism:
    """a -> ab, every other letter fixed."""
    if a == b:
        raise ValueError("the two letters must differ")
    alphabet.rank(a), alphabet.rank(b)
    return substitution(a, a + b, alphabet, alphabet)


def make_alpha_tilde(a: str, b: str, alphabet: OrderedAlphabet) -> Morphism:
    """a -> ba, every other letter fixed."""
    if a == b:
        raise ValueError("the two letters must differ")
    alphabet.rank(a), alphabet.rank(b)
    return substitution(a, b + a, alphabet, alphabet)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """f after g: (f . g)(x) = f(g(x)).  Requires source(f) == target(g), order included."""
    if f.source != g.target:
        raise ValueError(
            f"cannot compose: inner morphism targets {g.target}, outer expects {f.source}"
        )
    outer, inner, images = f.images, g.images, {}
    for c in g.source._letters:
        u = inner[c]
        images[c] = outer[u] if len(u) == 1 else "".join([outer[x] for x in u])
    return _valid(g.source, f.target, images)


def _valid(source: OrderedAlphabet, target: OrderedAlphabet, images: dict[str, str]) -> Morphism:
    """A morphism valid by construction, so built without ``__post_init__``."""
    h = Morphism.__new__(Morphism)
    h.__dict__.update(source=source, target=target, images=images)
    return h


def rename(mu: Permutation, alphabet: OrderedAlphabet) -> Morphism:
    """Letter-to-letter morphism x -> mu(x); the target is reordered so that
    the images of the source letters appear in source order."""
    if len(mu) != len(alphabet):
        raise ValueError("permutation size does not match alphabet size")
    letters = alphabet.letters
    images = {letters[i]: letters[mu(i)] for i in range(len(letters))}
    target = OrderedAlphabet(images[c] for c in letters)
    return Morphism(alphabet, target, images)


def clustering_case_target(
    case: int, a: str, b: str, pi: Permutation, alphabet: OrderedAlphabet
) -> OrderedAlphabet:
    """Target alphabet on which the image of a pi-clustering word stays clustering.

    The five clustering-preservation cases, numbered 1 to 5.  Case 1 is the
    letter renaming: its target depends on the renaming permutation and is
    produced by :func:`rename` directly, so asking for it here is an error.
    Cases 2 and 3 (the ``a -> ab`` substitutions) keep the alphabet; cases 4
    and 5 (the ``a -> ba`` substitutions) move ``a`` to the front or to the
    back.  Each case validates its own precondition and reports the clause
    that failed.
    """
    if case == 1:
        raise ValueError("case 1 is a renaming; its target alphabet comes from rename()")
    if case not in (2, 3, 4, 5):
        raise ValueError(f"no such case: {case}")
    if a == b:
        raise ValueError("the two letters must differ")
    letters = alphabet.letters
    d = len(letters)
    ra, rb = alphabet.rank(a), alphabet.rank(b)
    if len(pi) != d:
        raise ValueError("permutation size does not match alphabet size")

    if case == 2:
        if rb != 0:
            raise ValueError(f"case 2 needs b to be the smallest letter, got {b!r} in {alphabet}")
        i = pi.inverse()(ra)
        if i + 1 >= d or pi(i + 1) != rb:
            raise ValueError("case 2 needs the block of a immediately followed by the block of b")
        return alphabet

    if case == 3:
        if rb != d - 1:
            raise ValueError(f"case 3 needs b to be the largest letter, got {b!r} in {alphabet}")
        i = pi.inverse()(rb)
        if i + 1 >= d or pi(i + 1) != ra:
            raise ValueError("case 3 needs the block of b immediately followed by the block of a")
        return alphabet

    if case == 4:
        if rb != ra + 1:
            raise ValueError("case 4 needs b to follow a immediately in the alphabet")
        if pi(0) != rb:
            raise ValueError("case 4 needs the block of b to be the first block")
        return OrderedAlphabet((a,) + letters[:ra] + letters[ra + 1 :])

    # case 5
    if ra != rb + 1:
        raise ValueError("case 5 needs a to follow b immediately in the alphabet")
    if pi(d - 1) != rb:
        raise ValueError("case 5 needs the block of b to be the last block")
    return OrderedAlphabet(letters[:ra] + letters[ra + 1 :] + (a,))
