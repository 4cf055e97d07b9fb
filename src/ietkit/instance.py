"""Interval exchange instance files: small ``key = value`` files such as::

    d = 5
    alphabet = abc
    pi = bca
    len.a = (-2, 1, 1)
    len.b = (3, -1, 2)
    len.c = (3, -1, 2)
    origin = (0)

Number literals are ``(p)`` or ``(p, q, r)`` meaning (p + q*sqrt(d)) / r with
the file-level radicand d.  ``d`` and ``origin`` are optional, and ``#``
starts a comment.
"""

from __future__ import annotations

from .arith import QuadNum, is_square_free
from .iet import Iet
from .words import OrderedAlphabet, Permutation

# Radicands above this are refused: checking square-freeness costs about
# d ** (1/3) trial divisions.
MAX_RADICAND = 10**18


class IetFileError(ValueError):
    """A syntax or consistency error in an interval exchange instance file."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _at(line_no: int, make, *args):
    """``make(*args)``, with its ValueError reported at ``line_no``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise IetFileError(line_no, str(exc)) from None


def _radicand(text: str, previous: int | None) -> int:
    try:
        d = int(text)
    except ValueError:
        raise ValueError(f"radicand must be an integer, got {text!r}") from None
    if d < 0:
        raise ValueError(f"radicand must be nonnegative, got {d}")
    if previous is not None and d != previous:
        raise ValueError(f"mixed radicands: d = {previous} then d = {d}")
    if d > MAX_RADICAND:
        raise ValueError(f"radicand {d} is larger than 10**18")
    if not is_square_free(d):
        raise ValueError(f"radicand {d} is not square-free")
    return d


def parse_iet_file(path: str) -> Iet:
    """Read and validate an interval exchange instance file.

    Every error is an :class:`IetFileError` naming its line, or the line after
    the last for a missing key.  The syntax of every line is checked first;
    then, line by line, ``d``, repeated keys, the alphabet and unknown keys;
    then pi, the lengths in file order, the origin and the exchange itself.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()

    entries: list[tuple[int, str, str]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IetFileError(line_no, f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise IetFileError(line_no, f"expected 'key = value', got {line!r}")
        entries.append((line_no, key, value))

    d = 0
    alphabet: OrderedAlphabet | None = None
    # The line and value of each key; only ``d`` may be repeated.
    seen: dict[str, tuple[int, str]] = {}
    for line_no, key, value in entries:
        if key == "d":
            d = _at(line_no, _radicand, value, d if key in seen else None)
        elif key in seen:
            name = f"length of {key[4:]!r}" if key.startswith("len.") else key
            raise IetFileError(line_no, f"{name} given twice")
        elif key == "alphabet":
            alphabet = _at(line_no, OrderedAlphabet, value)
        elif key not in ("pi", "origin") and not key.startswith("len."):
            raise IetFileError(line_no, f"unknown key {key!r}")
        seen.setdefault(key, (line_no, value))

    end = len(lines) + 1
    if alphabet is None:
        raise IetFileError(end, "missing alphabet")
    if "pi" not in seen:
        raise IetFileError(end, "missing pi")
    line_no, value = seen["pi"]
    pi = _at(line_no, Permutation.parse, value, alphabet)

    lengths: dict[str, QuadNum] = {}
    for key, (line_no, value) in seen.items():
        if key.startswith("len."):
            letter = key[4:]
            if letter not in alphabet:
                raise IetFileError(line_no, f"length for unknown letter {letter!r}")
            lengths[letter] = _at(line_no, QuadNum.parse, value, d)

    origin: QuadNum | int = 0
    if "origin" in seen:
        line_no, value = seen["origin"]
        origin = _at(line_no, QuadNum.parse, value, d)

    missing = [c for c in alphabet if c not in lengths]
    if missing:
        raise IetFileError(end, f"missing lengths for letters {missing}")
    return _at(end, Iet, alphabet, pi, lengths, origin)
