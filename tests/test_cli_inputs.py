"""CLI input handling: report bytes, environment variables, radicands, number
literals and work budgets."""

import hashlib
import importlib
import json
import os
import pathlib
import random
import string
import subprocess
import sys
import time

import pytest

import ietkit
from ietkit import Iet, OrderedAlphabet
from ietkit.cli import (
    MAX_LANGUAGE_LETTERS,
    MAX_ORBIT_STEPS,
    MAX_RETURN_SLOTS,
    main,
    parse_iet_file,
)
from ietkit.bwt import MAX_TRANSFORM_LETTERS
from ietkit.instance import IetFileError
from ietkit.morphisms import Morphism

bwt_module = importlib.import_module("ietkit.bwt")
cli_module = importlib.import_module("ietkit.cli")

DATA = pathlib.Path(__file__).parent / "data"
EXPECTED = DATA / "expected"


@pytest.mark.parametrize("name, status", [("golden", 0), ("sqrt2_4", 1)])
def test_verify_json_bytes_unchanged(tmp_path, name, status):
    """The structured report at --max-len 6 is byte-identical to the one
    recorded in tests/data/expected (sqrt2_4 keeps its known scan-horizon
    failure, hence exit status 1)."""
    out = tmp_path / "report.json"
    code = main(["verify", "--format", "json", "--max-len", "6", "--output", str(out), str(DATA / f"{name}.iet")])
    assert code == status
    assert out.read_bytes() == (EXPECTED / f"verify_{name}_6.json").read_bytes()


ENV_VARS = ("IETKIT_KEANE_DEPTH", "IETKIT_INDUCTION_CAP")


@pytest.mark.parametrize("name", ENV_VARS)
@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_bad_environment_value_is_a_clean_error(capsys, monkeypatch, golden_file, name, value):
    monkeypatch.setenv(name, value)
    code = main(["iet", "check", golden_file, "--depth", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {name} must be a nonnegative integer, got {value!r}\n"


@pytest.mark.parametrize("name", ENV_VARS)
def test_bad_environment_value_from_the_command_line(golden_file, name):
    """The variables are read when the command runs, not at import, so the
    process exits 2 with one line and no traceback."""
    env = dict(os.environ, **{name: "abc"})
    env["PYTHONPATH"] = str(pathlib.Path(ietkit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "ietkit.cli", "iet", "check", golden_file],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"error: {name} must be a nonnegative integer, got 'abc'"]


def test_keane_depth_variable_sets_the_default(capsys, monkeypatch, golden_file):
    monkeypatch.setenv("IETKIT_KEANE_DEPTH", "7")
    assert main(["iet", "check", golden_file]) == 0
    assert "no connection up to depth 7" in capsys.readouterr().out


def test_induction_cap_variable_bounds_the_search(capsys, monkeypatch, golden_file):
    monkeypatch.setenv("IETKIT_INDUCTION_CAP", "1")
    assert main(["iet", "returns", golden_file, "--word", "cbb", "--method", "induction"]) == 2
    assert "within 1 steps" in capsys.readouterr().err


def write_instance(tmp_path, d: int) -> str:
    path = tmp_path / "big.iet"
    path.write_text(f"alphabet = ab\nd = {d}\npi = ba\nlen.a = (1)\nlen.b = (1, 1, 2)\n")
    return str(path)


def test_fifteen_digit_radicand_parses_quickly(tmp_path):
    path = write_instance(tmp_path, 100000000000031)
    start = time.perf_counter()
    iet = parse_iet_file(path)
    assert time.perf_counter() - start < 0.2
    assert iet.length("b").d == 100000000000031


def test_huge_radicand_rejected_with_line_number(tmp_path, capsys):
    path = write_instance(tmp_path, 10**39 + 7)
    with pytest.raises(IetFileError, match=r"^line 2: radicand \d{40} is larger than 10\*\*18$"):
        parse_iet_file(path)
    assert main(["iet", "check", path]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: radicand")


def test_environment_defaults_are_read_on_every_call(capsys, monkeypatch, golden_file, tmp_path):
    """The parser is built once per process; the depth defaults still follow
    IETKIT_KEANE_DEPTH at each call."""
    for depth in ("7", "11"):
        monkeypatch.setenv("IETKIT_KEANE_DEPTH", depth)
        assert main(["iet", "check", golden_file]) == 0
        assert f"no connection up to depth {depth}\n" in capsys.readouterr().out
        out = tmp_path / f"report_{depth}.json"
        assert main(["verify", "--format", "json", "--max-len", "2", "--output", str(out), golden_file]) == 0
        assert json.loads(out.read_text())["keane_depth"] == int(depth)
    monkeypatch.delenv("IETKIT_KEANE_DEPTH")
    assert main(["iet", "check", golden_file]) == 0
    assert "no connection up to depth 1000\n" in capsys.readouterr().out
    # An explicit option still wins over the variable.
    monkeypatch.setenv("IETKIT_KEANE_DEPTH", "7")
    assert main(["iet", "check", golden_file, "--depth", "5"]) == 0
    assert "no connection up to depth 5\n" in capsys.readouterr().out


def test_language_rows_follow_the_alphabet_order(tmp_path, capsys):
    """Rows of `iet language` are sorted in the instance's alphabet order,
    which here is not the order of the characters."""
    path = tmp_path / "dcba.iet"
    path.write_text("alphabet = dcba\npi = bdac\nlen.d = (1)\nlen.c = (2)\nlen.b = (1, 0, 3)\nlen.a = (5, 0, 7)\n")
    assert main(["iet", "language", str(path), "--max-len", "5"]) == 0
    alphabet = OrderedAlphabet("dcba")
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5
    for line in rows:
        row = line.split(": ", 1)[1].split()
        assert row == sorted(row, key=alphabet.key)


@pytest.mark.parametrize("letters", ["dcba", "ab", "".join(random.Random(5).sample(string.ascii_lowercase, 26))])
def test_rank_key_sorts_as_the_alphabet_key(letters):
    alphabet = OrderedAlphabet(letters)
    rng = random.Random(letters)
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(0, 6))) for _ in range(400)]
    assert sorted(words, key=alphabet.key) == sorted(words, key=lambda w: tuple(map(letters.index, w)))


def test_budgets_cover_the_benchmark_calls():
    """Each budget is at least 100 times the largest call of the benchmark:
    10,000 trajectory steps, depth 5000 and --max-len 60 on a four-letter
    exchange, and `diet --words` on 3001 points."""
    assert MAX_ORBIT_STEPS >= 100 * 10_000
    assert MAX_ORBIT_STEPS >= 100 * 3 * 5000
    assert MAX_ORBIT_STEPS >= 100 * 3001
    assert MAX_LANGUAGE_LETTERS >= 100 * sum((3 * k + 1) * k for k in range(61))


class Admitted(Exception):
    pass


@pytest.mark.parametrize("name, admitted, slots", [
    ("golden.iet", 128, 50697),
    ("sqrt2_4.iet", 90, 50596),
])
def test_verify_refuses_a_report_over_the_return_word_budget(monkeypatch, capsys, name, admitted, slots):
    """d return words for each of the at most (d - 1) k + 1 words of length
    k: the largest --max-len admitted runs, one more is refused before any
    work with one line."""
    def admit(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(cli_module, "verify_return_words", admit)
    path = str(DATA / name)
    with pytest.raises(Admitted):
        main(["verify", path, "--max-len", str(admitted)])
    assert main(["verify", path, "--max-len", str(admitted + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --max-len {admitted + 1} would report {slots} return words, more than {MAX_RETURN_SLOTS}\n"
    )


def test_the_return_word_budget_covers_the_benchmark_calls():
    """`verify --max-len 10` on golden.iet reports 120 words of 3 return
    words each, and `--max-len 6` on a four-letter exchange 69 of 4."""
    assert MAX_RETURN_SLOTS >= 100 * 3 * sum(2 * k + 1 for k in range(1, 11))
    assert MAX_RETURN_SLOTS >= 100 * 4 * sum(3 * k + 1 for k in range(1, 7))


HUGE = str(10**12)
# The letters of the words of length k <= 10**12 of a three-letter exchange:
# the sum of (2k + 1) k.
SPELLED_HUGE = 666666666668166666666667500000000000


@pytest.mark.parametrize("argv, message", [
    (["iet", "traj", "{f}", "--point", "(0)", "--steps", HUGE],
     f"--steps {HUGE} would take {HUGE} orbit steps, more than {MAX_ORBIT_STEPS}"),
    (["iet", "check", "{f}", "--depth", HUGE],
     f"--depth {HUGE} would take {2 * 10**12} orbit steps, more than {MAX_ORBIT_STEPS}"),
    (["verify", "{f}", "--keane-depth", HUGE],
     f"--keane-depth {HUGE} would take {2 * 10**12} orbit steps, more than {MAX_ORBIT_STEPS}"),
    (["iet", "language", "{f}", "--max-len", HUGE],
     f"--max-len {HUGE} would spell {SPELLED_HUGE} letters, more than {MAX_LANGUAGE_LETTERS}"),
    (["verify", "{f}", "--max-len", HUGE],
     f"--max-len {HUGE} would spell {SPELLED_HUGE} letters, more than {MAX_LANGUAGE_LETTERS}"),
    (["classify", "--source", "iet:{f}", "--depth", "998"],
     "--depth is too large for this source: a sample of depth 1000 would spell 668167500 letters, "
     f"more than {MAX_LANGUAGE_LETTERS}"),
    (["extgraph", "--source", "iet:{f}", "--word", "a", "--depth", "1000"],
     "--depth is too large for this source: a sample of depth 1000 would spell 668167500 letters, "
     f"more than {MAX_LANGUAGE_LETTERS}"),
    (["iet", "language", str(DATA / "one_letter.iet"), "--max-len", "999999"],
     f"--max-len 999999 would spell 499999500000 letters, more than {MAX_LANGUAGE_LETTERS}"),
    (["verify", str(DATA / "one_letter.iet"), "--max-len", "999999"],
     f"--max-len 999999 would spell 499999500000 letters, more than {MAX_LANGUAGE_LETTERS}"),
    (["diet", "--composition", "1999999,2", "--pi", "ba", "--words"],
     f"--composition 1999999,2 would take 2000001 orbit steps, more than {MAX_ORBIT_STEPS}"),
    (["diet", "--composition", "1999999,1", "--pi", "ba", "--cylinder", "ab"],
     f"--composition 1999999,1 would take 2000002 orbit steps, more than {MAX_ORBIT_STEPS}"),
], ids=["traj", "check", "verify-keane", "language", "verify-max-len", "classify-iet", "extgraph-iet",
        "language-one-letter", "verify-one-letter", "diet", "diet-cylinder"])
def test_huge_work_is_refused_before_it_starts(monkeypatch, capsys, golden_file, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the request should have been refused before any work")

    for name in ("trajectory", "check_keane", "language"):
        monkeypatch.setattr(Iet, name, no_work)
    assert main([a.replace("{f}", golden_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_irrational_length_without_a_radicand_is_refused(tmp_path, capsys):
    """With no ``d =`` line, ``(1, 1, 2)`` would be read as 1/2; it is refused
    with its line number instead."""
    path = tmp_path / "no_d.iet"
    path.write_text("alphabet = ab\npi = ba\nlen.a = (1)\nlen.b = (1, 1, 2)\n")
    message = "line 4: bad number literal '(1, 1, 2)': irrational part with no radicand d"
    with pytest.raises(IetFileError) as caught:
        parse_iet_file(str(path))
    assert str(caught.value) == message
    assert main(["iet", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("steps", ["0", "1", "17"])
def test_traj_refuses_a_point_outside_the_domain_at_every_length(capsys, golden_file, steps):
    assert main(["iet", "traj", golden_file, "--point", "(100, 0, 1)", "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point (100) is outside the domain [(0), (1))\n"


def test_irrational_point_on_a_rational_instance_is_refused(tmp_path, capsys):
    """On an instance whose numbers are all rational, ``--point (1, 3, 2)``
    would run from 1/2; it is refused with one line and exit 2."""
    path = tmp_path / "rational.iet"
    path.write_text("d = 5\nalphabet = ab\npi = ba\nlen.a = (1, 0, 3)\nlen.b = (2, 0, 3)\n")
    assert main(["iet", "traj", str(path), "--point", "(1, 3, 2)", "--steps", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad number literal '(1, 3, 2)': irrational part with no radicand d\n"
    assert main(["iet", "traj", str(path), "--point", "(1, 0, 2)", "--steps", "6"]) == 0
    assert capsys.readouterr().out == "babbab\n"


@pytest.mark.parametrize("orders, message", [
    ("ab:abc", "left vertex 'c' missing from the first order"),
    ("abc:ab", "right vertex 'c' missing from the second order"),
], ids=["left", "right"])
def test_extgraph_order_without_a_vertex_prints_nothing(capsys, orders, message):
    """In aabcb the letter b has left letters a, c and right letters a, c; an
    order that lacks c is refused before any line of the graph is printed."""
    assert main(["extgraph", "--source", "periodic:aabcb", "--word", "b", "--orders", orders]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


OVER_TRANSFORM = MAX_TRANSFORM_LETTERS + 1


@pytest.mark.parametrize("argv", [
    ["bwt", "--alphabet", "ab", "ab" * (OVER_TRANSFORM // 2)],
    ["cluster", "--alphabet", "ab", "ab" * (OVER_TRANSFORM // 2)],
    ["ebwt", "--alphabet", "ab", "a" * OVER_TRANSFORM],
    ["ebwt", "--alphabet", "ab", *["ab"] * (OVER_TRANSFORM // 2)],
], ids=["bwt", "cluster", "ebwt-one-word", "ebwt-many-words"])
def test_a_transform_over_the_bound_prints_one_error_line(monkeypatch, capsys, argv):
    """In-process through ``main``, so no limit on argument length applies,
    and with the sort replaced, so nothing is sorted."""
    def no_work(*args, **kwargs):
        raise AssertionError("the transform should have been refused before any work")

    monkeypatch.setattr(bwt_module, "_rotation_sort", no_work)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: a transform of {OVER_TRANSFORM} letters is over the bound of {MAX_TRANSFORM_LETTERS} letters\n"
    )


def test_a_rauzy_step_word_over_the_bound_is_refused(monkeypatch, capsys, golden_file):
    """4097 typed steps are refused before the file is read or a step is taken."""
    def no_work(*args, **kwargs):
        raise AssertionError("the step word should have been refused before any work")

    for name in ("parse_iet_file", "rauzy_right", "rauzy_left"):
        monkeypatch.setattr(cli_module, name, no_work)
    assert main(["iet", "rauzy", golden_file, "--steps", "rl" * 2048 + "r"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --steps has 4097 steps, more than 4096\n"


def test_a_rauzy_step_word_at_the_bound_prints_in_full(capsys):
    """4096 steps on sqrt2_4 print all 3,868,902 bytes."""
    assert main(["iet", "rauzy", str(DATA / "sqrt2_4.iet"), "--steps", "r" * 4096]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 3_868_902
    assert hashlib.sha256(out).hexdigest() == "37656bf193d40ddfe6d7781da880c168556039b8752c80db6c454ec864a42949"


@pytest.mark.parametrize("image, word, letters", [
    ("a" * 10_000, "a" * 10_001, 100_010_000),
    ("ab" * 5000, "a" * 10_000 + "b", 100_000_001),
], ids=["square", "one-letter-over"])
def test_a_morphism_image_over_the_bound_is_refused(monkeypatch, capsys, image, word, letters):
    def no_work(*args, **kwargs):
        raise AssertionError("the image should have been refused before it was built")

    monkeypatch.setattr(Morphism, "__call__", no_work)
    assert main(["morphism", "apply", "--spec", f"a:{image},b:a", word]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the image of the word would spell {letters} letters, more than 100000000\n"


def test_a_morphism_image_at_the_bound_prints_and_one_more_letter_is_refused(monkeypatch, capsys):
    """With the bound lowered to 12 letters: 12 letters print, 13 are refused."""
    monkeypatch.setattr(cli_module, "MAX_IMAGE_LETTERS", 12, raising=False)
    assert main(["morphism", "apply", "--spec", "a:aba,b:ab,c:c", "ababb"]) == 0
    assert capsys.readouterr().out == "abaababaabab\n"
    assert main(["morphism", "apply", "--spec", "a:aba,b:ab,c:c", "ababbc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the image of the word would spell 13 letters, more than 12\n"


def test_a_foreign_letter_is_named_before_the_image_is_counted(capsys):
    assert main(["morphism", "apply", "--spec", f"a:{'ab' * 5000},b:a", "a" * 10_001 + "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symbol 'x' is not in alphabet ab\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--source", "iet:{golden}", "--depth", "3", "--alphabet", "xyz"],
    ["extgraph", "--source", "iet:{golden}", "--word", "a", "--alphabet", "zz"],
    ["extgraph", "--source", "iet:{golden}", "--word", "a", "--alphabet", "abc"],
    ["classify", "--source", "iet:no/such/file.iet", "--depth", "3", "--alphabet", "abc"],
], ids=["classify", "extgraph", "extgraph-same-letters", "before-the-file-is-read"])
def test_an_iet_source_refuses_an_alphabet(capsys, golden_file, argv):
    """An ``iet:`` source takes its letters and their order from its instance
    file, so ``--alphabet`` is refused rather than ignored."""
    assert main([arg.format(golden=golden_file) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --alphabet applies to word sources only: an iet: source takes its alphabet from its instance file\n"
    )


def test_a_negative_radicand_is_refused_as_negative(tmp_path, capsys):
    """-2 has no square factor; it is refused because a radicand is nonnegative."""
    path = write_instance(tmp_path, -2)
    message = "line 2: radicand must be nonnegative, got -2"
    with pytest.raises(IetFileError, match=f"^{message}$"):
        parse_iet_file(path)
    assert main(["iet", "check", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("composition", [",", "", ",,"])
def test_an_empty_composition_is_refused_as_empty(capsys, composition):
    """Not as an empty default alphabet, which the user never gave."""
    assert main(["diet", "--composition", composition, "--pi", "ba"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --composition must have at least one part, got {composition!r}\n"
