"""Ordered alphabets, finite words, and permutations.

Words are plain Python strings.  An :class:`OrderedAlphabet` fixes which
symbols are legal and, crucially, how they compare: the order is positional
in the alphabet declaration, not the characters' natural order, so
``OrderedAlphabet("nab")`` makes ``n`` the smallest letter.  Every
order-sensitive computation downstream (transforms, interval layouts,
extension graphs) takes the alphabet as an explicit argument because
induction steps reorder alphabets as they go.

A :class:`Permutation` is stored in one-line notation with 0-based images.
For an interval exchange with alphabet ``a_1 < ... < a_d`` the image
intervals appear left to right in the order ``a_{pi(1)}, ..., a_{pi(d)}``;
that convention is fixed here once and used everywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class _RankTable(dict):
    """Code point of each letter -> its rank digit ``chr(rank)``, for
    ``str.translate``.  A symbol outside the alphabet raises ValueError,
    which translate passes on: a plain table would leave the symbol in
    place, and a symbol such as ``'\\x01'`` is itself a rank digit."""

    __slots__ = ("name",)

    def __missing__(self, code: int):
        raise ValueError(f"symbol {chr(code)!r} is not in alphabet {self.name}")


class OrderedAlphabet:
    """A finite sequence of distinct single-character symbols with its order."""

    __slots__ = ("_letters", "_rank", "_table")

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must contain at least one letter")
        for x in letters:
            if not isinstance(x, str) or len(x) != 1:
                raise ValueError(f"letters must be single characters, got {x!r}")
        if len(set(letters)) != len(letters):
            raise ValueError(f"duplicate letter in alphabet {''.join(letters)!r}")
        self._build(letters)

    @classmethod
    def _reordered(cls, letters: tuple[str, ...]) -> "OrderedAlphabet":
        """``letters``, a reordering of a checked alphabet, without the checks."""
        return cls.__new__(cls)._build(letters)

    def _build(self, letters: tuple[str, ...]) -> "OrderedAlphabet":
        self._letters = letters
        self._rank = {c: i for i, c in enumerate(letters)}
        self._table = _RankTable({ord(c): chr(i) for i, c in enumerate(letters)})
        self._table.name = "".join(letters)
        return self

    @property
    def letters(self) -> tuple[str, ...]:
        return self._letters

    def rank(self, letter: str) -> int:
        """0-based position of ``letter`` in the alphabet order."""
        try:
            return self._rank[letter]
        except KeyError:
            raise ValueError(f"symbol {letter!r} is not in alphabet {self}") from None

    def key(self, word: str) -> str:
        """Sort key realizing the lexicographic order of this alphabet: the
        word with each letter replaced by its rank digit, so code-point
        order is the alphabet's order, a proper prefix first.  The first
        symbol outside the alphabet, in word order, raises ValueError."""
        return word.translate(self._table)

    def require(self, word: str) -> str:
        """Validate that every symbol of ``word`` belongs to the alphabet."""
        word.translate(self._table)
        return word

    def restrict(self, word_or_letters: str) -> "OrderedAlphabet":
        """Sub-alphabet of the letters occurring in the argument, order kept."""
        present = set(word_or_letters)
        kept = tuple(c for c in self._letters if c in present)
        if not kept:
            raise ValueError("restriction to an empty support")
        return OrderedAlphabet(kept)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self):
        return iter(self._letters)

    def __contains__(self, letter: object) -> bool:
        return letter in self._rank

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrderedAlphabet):
            return NotImplemented
        return self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __str__(self) -> str:
        return "".join(self._letters)

    def __repr__(self) -> str:
        return f"OrderedAlphabet({''.join(self._letters)!r})"


class Permutation:
    """A bijection of {0, ..., d-1} in one-line notation (0-based images).

    ``images[i]`` is the image of position ``i``.  Input and display helpers
    translate between indices and letters of a given alphabet, accepting both
    one-line letter strings (``"bca"``) and cycle notation (``"(a c)(b)"``).
    """

    __slots__ = ("_images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        d = len(images)
        if sorted(images) != list(range(d)):
            raise ValueError(f"not a bijection on 0..{d - 1}: {images}")
        self._images = images

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(d))

    @classmethod
    def symmetric(cls, d: int) -> "Permutation":
        """The order-reversing permutation i -> d - 1 - i."""
        return cls(range(d - 1, -1, -1))

    @classmethod
    def from_one_line_letters(cls, text: str, alphabet: OrderedAlphabet) -> "Permutation":
        if len(text) != len(alphabet):
            raise ValueError(f"one-line permutation {text!r} does not cover {alphabet}")
        return cls(alphabet.rank(c) for c in text)

    @classmethod
    def from_cycles(cls, text: str, alphabet: OrderedAlphabet) -> "Permutation":
        """Parse cycle notation over letters, e.g. ``"(a c)(b)"``.

        Letters may be separated by spaces or commas; omitted letters are
        fixed points.
        """
        images = list(range(len(alphabet)))
        body = text.strip()
        if body.count("(") != body.count(")"):
            raise ValueError(f"unbalanced parentheses in cycles {text!r}")
        seen: set[str] = set()
        while body:
            if not body.startswith("("):
                raise ValueError(f"expected '(' in cycles {text!r}")
            end = body.index(")")
            inner = body[1:end]
            body = body[end + 1 :].strip()
            cycle = [c for c in inner.replace(",", " ").split() if c]
            cycle = [c for chunk in cycle for c in chunk]  # tolerate "ac" style too
            if not cycle:
                raise ValueError(f"empty cycle in {text!r}")
            for c in cycle:
                if c in seen:
                    raise ValueError(f"letter {c!r} repeated in cycles {text!r}")
                seen.add(c)
            ranks = [alphabet.rank(c) for c in cycle]
            for i, r in enumerate(ranks):
                images[r] = ranks[(i + 1) % len(ranks)]
        return cls(images)

    @classmethod
    def parse(cls, text: str, alphabet: OrderedAlphabet) -> "Permutation":
        text = text.strip()
        if text.startswith("("):
            return cls.from_cycles(text, alphabet)
        return cls.from_one_line_letters(text, alphabet)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    def __call__(self, i: int) -> int:
        return self._images[i]

    def __len__(self) -> int:
        return len(self._images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self._images)
        for i, j in enumerate(self._images):
            inv[j] = i
        return Permutation(inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``self`` after ``other``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("cannot compose permutations of different sizes")
        return Permutation(self._images[j] for j in other._images)

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self._images))

    @property
    def is_symmetric(self) -> bool:
        d = len(self._images)
        return all(self._images[i] == d - 1 - i for i in range(d))

    @property
    def is_irreducible(self) -> bool:
        """No proper prefix {0..k-1} is invariant."""
        top = -1
        for k in range(len(self._images) - 1):
            top = max(top, self._images[k])
            if top == k:
                return False
        return True

    @property
    def is_circular(self) -> bool:
        return len(self.cycles()) == 1

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition (:func:`_cycles`); each cycle starts at its least element."""
        return tuple(map(tuple, _cycles(self._images)))

    def cycle_string(self, alphabet: OrderedAlphabet | None = None) -> str:
        """Cycles as text: 1-based integers, or letters when given an alphabet."""
        if alphabet is None:
            return "".join("(" + ",".join(str(i + 1) for i in cyc) + ")" for cyc in self.cycles())
        self.one_line_letters(alphabet)  # refuses an alphabet of another size
        return "".join("(" + " ".join(alphabet.letters[i] for i in cyc) + ")" for cyc in self.cycles())

    def one_line_letters(self, alphabet: OrderedAlphabet) -> str:
        if len(alphabet) != len(self):
            raise ValueError("alphabet size does not match permutation size")
        return "".join(alphabet.letters[i] for i in self._images)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __repr__(self) -> str:
        return f"Permutation({list(self._images)})"


def _cycles(images: Sequence[int]) -> list[list[int]]:
    """The cycles of the bijection ``images`` of 0..n-1, unchecked, in order
    of least elements; each cycle starts at its least element."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = images[i]
        out.append(cyc)
    return out


def _cycle_words(images: Sequence[int], labels: Sequence[str], alphabet: OrderedAlphabet) -> tuple[str, ...]:
    """The Lyndon conjugate of the word ``labels`` spells along each cycle of
    ``images``, sorted by ``alphabet``.  A cycle that spells a proper power
    raises ValueError."""
    words = ("".join([labels[i] for i in cyc]) for cyc in _cycles(images))
    return tuple(sorted((lyndon_representative(w, alphabet) for w in words), key=alphabet.key))


def compare_lex(u: str, v: str, alphabet: OrderedAlphabet) -> int:
    """Lexicographic comparison: -1, 0, or 1.  A proper prefix is smaller."""
    ku, kv = alphabet.key(u), alphabet.key(v)
    return (ku > kv) - (ku < kv)


def compare_omega(u: str, v: str, alphabet: OrderedAlphabet) -> int:
    """Compare the infinite powers u^w and v^w; equal iff uv == vu.

    Comparing prefixes of length |u| + |v| decides the order exactly, so no
    unbounded expansion is ever needed.  The prefixes hold all of u and of
    v, so their keys check both words, u first.
    """
    if not u or not v:
        raise ValueError("omega-order comparison needs nonempty words")
    n = len(u) + len(v)
    uu = (u * (n // len(u) + 1))[:n]
    vv = (v * (n // len(v) + 1))[:n]
    return compare_lex(uu, vv, alphabet)


def conjugates(w: str) -> list[str]:
    """All |w| rotations in rotation-index order, repeats included."""
    if not w:
        raise ValueError("the empty word has no conjugates")
    return [w[i:] + w[:i] for i in range(len(w))]


def primitive_root(w: str) -> tuple[str, int]:
    """Shortest u and maximal p with w == u ** p."""
    if not w:
        raise ValueError("the empty word has no primitive root")
    # The first nontrivial occurrence of w in ww is its least period that
    # divides |w|.
    k = (w + w).find(w, 1)
    return w[:k], len(w) // k


def is_primitive(w: str) -> bool:
    return primitive_root(w)[1] == 1


def lyndon_representative(w: str, alphabet: OrderedAlphabet) -> str:
    """The unique Lyndon conjugate of a primitive word w, in O(|w|) time.

    Two candidate starts i < j race letter by letter: at the first mismatch
    after k equal letters, the loser and the k starts after it cannot be
    least, so each comparison advances a start or k.
    """
    s = alphabet.key(w + w)
    if not is_primitive(w):
        raise ValueError(f"{w!r} is not primitive, so it has no Lyndon conjugate")
    n = len(w)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return w[i:] + w[:i]


def is_lyndon(w: str, alphabet: OrderedAlphabet) -> bool:
    """Whether w is strictly less than all its other rotations: primitive
    and its own Lyndon conjugate.  Symbols outside the alphabet raise
    ValueError."""
    return bool(alphabet.require(w)) and is_primitive(w) and lyndon_representative(w, alphabet) == w


def parikh(w: str, alphabet: OrderedAlphabet) -> dict[str, int]:
    """Letter-count vector of w as a dict over the whole alphabet."""
    alphabet.require(w)
    counts = dict.fromkeys(alphabet.letters, 0)
    for c in w:
        counts[c] += 1
    return counts
