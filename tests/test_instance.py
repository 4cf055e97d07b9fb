"""Instance files: the parser against the earlier parser kept here as the
oracle, and the library modules that load without the CLI.

The oracle checks each concern in its own branch.  For every drawn file the
parser must give an equal ``Iet``, or the same error with the same message
and line number: the order in which errors win is part of the format."""

import os
import pathlib
import subprocess
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

import ietkit  # noqa: E402
from ietkit import Iet, OrderedAlphabet, Permutation, QuadNum  # noqa: E402
from ietkit.arith import is_square_free  # noqa: E402
from ietkit.instance import MAX_RADICAND, IetFileError, parse_iet_file  # noqa: E402

# -- the oracle ---------------------------------------------------------------


def oracle_parse(path: str) -> Iet:
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
    d_line = None
    alphabet = None
    pi_text = None
    origin_text = None
    length_texts: dict[str, tuple[int, str]] = {}

    for line_no, key, value in entries:
        if key == "d":
            try:
                new_d = int(value)
            except ValueError:
                raise IetFileError(line_no, f"radicand must be an integer, got {value!r}") from None
            if new_d < 0:
                raise IetFileError(line_no, f"radicand must be nonnegative, got {new_d}")
            if d_line is not None and new_d != d:
                raise IetFileError(line_no, f"mixed radicands: d = {d} then d = {new_d}")
            if new_d > MAX_RADICAND:
                raise IetFileError(line_no, f"radicand {new_d} is larger than 10**18")
            if not is_square_free(new_d):
                raise IetFileError(line_no, f"radicand {new_d} is not square-free")
            d, d_line = new_d, line_no
        elif key == "alphabet":
            if alphabet is not None:
                raise IetFileError(line_no, "alphabet given twice")
            try:
                alphabet = OrderedAlphabet(value)
            except ValueError as exc:
                raise IetFileError(line_no, str(exc)) from None
        elif key == "pi":
            if pi_text is not None:
                raise IetFileError(line_no, "pi given twice")
            pi_text = (line_no, value)
        elif key == "origin":
            if origin_text is not None:
                raise IetFileError(line_no, "origin given twice")
            origin_text = (line_no, value)
        elif key.startswith("len."):
            letter = key[4:]
            if letter in length_texts:
                raise IetFileError(line_no, f"length of {letter!r} given twice")
            length_texts[letter] = (line_no, value)
        else:
            raise IetFileError(line_no, f"unknown key {key!r}")

    if alphabet is None:
        raise IetFileError(len(lines) + 1, "missing alphabet")
    if pi_text is None:
        raise IetFileError(len(lines) + 1, "missing pi")

    line_no, value = pi_text
    try:
        pi = Permutation.parse(value, alphabet)
    except ValueError as exc:
        raise IetFileError(line_no, str(exc)) from None

    lengths: dict[str, QuadNum] = {}
    for letter, (line_no, value) in length_texts.items():
        if letter not in alphabet:
            raise IetFileError(line_no, f"length for unknown letter {letter!r}")
        try:
            lengths[letter] = QuadNum.parse(value, d)
        except ValueError as exc:
            raise IetFileError(line_no, str(exc)) from None

    origin = 0
    if origin_text is not None:
        line_no, value = origin_text
        try:
            origin = QuadNum.parse(value, d)
        except ValueError as exc:
            raise IetFileError(line_no, str(exc)) from None

    missing = [c for c in alphabet if c not in lengths]
    if missing:
        raise IetFileError(len(lines) + 1, f"missing lengths for letters {missing}")
    try:
        return Iet(alphabet, pi, lengths, origin)
    except ValueError as exc:
        raise IetFileError(len(lines) + 1, str(exc)) from None


# -- drawn files --------------------------------------------------------------

VALID = (
    ("d = 5", "alphabet = abc", "pi = bca", "len.a = (-2, 1, 1)", "len.b = (3, -1, 2)", "len.c = (3, -1, 2)"),
    ("d = 2", "alphabet = abcd", "pi = dcba", "len.a = (1)", "len.b = (1, 1, 2)", "len.c = (2, -1, 1)",
     "len.d = (1, 0, 3)", "origin = (1, 0, 2)"),
    ("alphabet = ab", "pi = (a b)", "len.a = (1, 0, 3)", "len.b = (2)"),
)
BAD = (
    # syntax
    "garbage", "= 5", "pi =", "   ", "# only a comment", "alphabet = ab # trailing comment",
    # radicands
    "d = 5", "d = 3", "d = 4", "d = x", "d = -7", "d = 0", f"d = {10**18 + 3}",
    # repeated and unknown keys
    "alphabet = abc", "alphabet = aa", "alphabet = ba", "pi = cab", "origin = (0)", "origin = (1, 1, 2)",
    "len.a = (1)", "len.b = (1, 1, 2)", "len. = (1)", "len.ab = (1)", "color = red", "len = (1)",
    # bad literals, letters and permutations
    "len.a = (a)", "len.c = (1, 0, 0)", "len.z = (1)", "len.a = (-5)", "len.a = (0)", "origin = x",
    "pi = abd", "pi = ab", "pi = (a b c d)", "pi = dcba",
)


def variants(line: str) -> tuple[str, ...]:
    """Wrong values for the key of a valid line."""
    key = line.split(" = ")[0]
    if key == "d":
        return "d = 4", "d = x", "d = 3", f"d = {10**18 + 3}"
    if key == "alphabet":
        return "alphabet = aa", "alphabet = ba", "alphabet = abcde"
    if key == "pi":
        return "pi = abd", "pi = ab", "pi = (a b c d)", "pi = dcba"
    if key == "origin":
        return "origin = x", "origin = (1, 1, 2)", "origin = (1, 0, 0)"
    return f"{key} = (a)", f"{key} = (1, 0, 0)", f"{key} = (-5)", f"{key} = (1, 1, 2)", "len.z = (1)"


@st.composite
def instance_text(draw) -> str:
    """A valid file, shuffled, with lines dropped or given wrong values, and
    with bad or repeated lines inserted."""
    lines = []
    for line in draw(st.permutations(draw(st.sampled_from(VALID)))):
        fate = draw(st.integers(0, 5))
        if fate == 1:
            line = draw(st.sampled_from(variants(line)))
        if fate:
            lines.append(line)
    pool = BAD + tuple(line for valid in VALID for line in valid)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(pool)))
    return "".join(line + "\n" for line in lines)


def outcome(parse, path):
    try:
        return parse(path)
    except IetFileError as exc:
        return str(exc), exc.line_no


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("instance") / "drawn.iet"


@settings(max_examples=400, deadline=None)
@given(text=instance_text())
def test_parser_agrees_with_the_oracle(scratch_file, text):
    scratch_file.write_text(text, encoding="utf-8")
    assert outcome(parse_iet_file, str(scratch_file)) == outcome(oracle_parse, str(scratch_file))


@pytest.mark.parametrize("name", ["golden", "sqrt2_4", "one_letter"])
def test_checked_in_instances_agree_with_the_oracle(name):
    path = str(pathlib.Path(__file__).parent / "data" / f"{name}.iet")
    assert parse_iet_file(path) == oracle_parse(path)


def test_library_loads_without_the_cli():
    """The parser and the verification harness are library modules: importing
    them loads neither argparse nor the executable."""
    code = "import sys, ietkit.instance, ietkit.verify; print(sorted({'argparse', 'ietkit.cli'} & set(sys.modules)))"
    src = str(pathlib.Path(ietkit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
