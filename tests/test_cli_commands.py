"""CLI commands: each transform computed once, classify depth checked, no
partial output from `iet returns` or from a `--json` path that cannot be
written, the same return words of ε by every method, and the source, order
and connection paths of `extgraph`, `classify` and `iet check`."""

import importlib
import pathlib

import pytest

from ietkit import cli
from ietkit.cli import main

# The package re-exports the function ``bwt``, which hides the module of
# the same name as an attribute of ``ietkit``.
bwt_module = importlib.import_module("ietkit.bwt")


def count_calls(monkeypatch, name):
    """Count calls of ``ietkit.bwt.<name>``, also through a name the CLI
    imported from that module."""
    calls = []
    original = getattr(bwt_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (bwt_module, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "name, argv",
    [
        ("bwt", ["bwt", "--alphabet", "abn", "--json", "-", "banana"]),
        ("ebwt", ["ebwt", "--alphabet", "abc", "--json", "-", "aac", "ab", "ab"]),
    ],
)
def test_transform_is_computed_once(monkeypatch, capsys, name, argv):
    calls = count_calls(monkeypatch, name)
    assert main(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("transform: ")


def test_classify_rejects_a_negative_depth(capsys):
    code = main(["classify", "--source", "periodic:abcab", "--depth", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: classification depth must be nonnegative, got -1\n"


@pytest.mark.parametrize("depth", ["-5", "-3"])
def test_classify_names_its_depth_whatever_the_negative_value(capsys, depth):
    code = main(["classify", "--source", "periodic:abcab", "--depth", depth])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: classification depth must be nonnegative, got {depth}\n"


@pytest.mark.parametrize("depth", ["-1", "0"])
def test_extgraph_rejects_a_depth_below_one(capsys, depth):
    code = main(["extgraph", "--source", "periodic:abcab", "--word", "ab", "--depth", depth])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --depth must be at least 1, got {depth}\n"


def test_iet_check_prints_nothing_before_refusing_its_depth(capsys, golden_file):
    code = main(["iet", "check", golden_file, "--depth", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --depth must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--keane-depth", "-5"], "--keane-depth must be nonnegative, got -5"),
    (["verify", "--max-len", "-1"], "--max-len must be nonnegative, got -1"),
    (["verify", "--max-len", "-1", "--keane-depth", "-5"], "--keane-depth must be nonnegative, got -5"),
    (["iet", "language", "--max-len", "-1"], "--max-len must be nonnegative, got -1"),
    (["iet", "traj", "--point", "(0)", "--steps", "-1"], "--steps must be nonnegative, got -1"),
])
def test_a_negative_count_is_refused_by_its_flag_before_the_file_is_read(monkeypatch, capsys, golden_file, argv, message):
    read = []
    monkeypatch.setattr(cli, "parse_iet_file", lambda path: read.append(path))
    assert main([*argv, golden_file]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err, read) == ("", f"error: {message}\n", [])


@pytest.mark.parametrize("composition", ["2,x", "4,2.5,1", "a"])
def test_diet_names_a_bad_composition(capsys, composition):
    code = main(["diet", "--composition", composition, "--pi", "ba"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --composition must be comma-separated integers, got {composition!r}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["iet", "rauzy", "{file}", "--steps", "rx"], "steps must be a word over 'r'/'l' or 'auto', got 'rx'"),
        (["iet", "rauzy", "{file}", "--steps", "auto"], "--steps auto needs --word"),
        (["iet", "rauzy", "{file}", "--steps", "auto", "--word", "zz"], "symbol 'z' is not in alphabet abc"),
        (["diet", "--composition", "2,1", "--pi", "ba", "--cylinder", "x"], "symbol 'x' is not in alphabet ab"),
        (["morphism", "apply", "--spec", "a:b,a:c", "a"], "letter 'a' is given twice in --spec"),
        (["bwt", "--alphabet", "aab", "banana"], "duplicate letter in alphabet 'aab'"),
        (["cluster", "--alphabet", "", "banana"], "alphabet must contain at least one letter"),
        (["ebwt", "--alphabet", "abb", "ab"], "duplicate letter in alphabet 'abb'"),
        (["ebwt-inverse", "--alphabet", "", "ba"], "alphabet must contain at least one letter"),
        (["extgraph", "--source", "abc", "--word", "a"],
         "bad source 'abc', expected periodic:..., multiset:... or iet:..."),
        (["classify", "--source", "foo:ab", "--depth", "1"], "unknown source kind 'foo'"),
        (["classify", "--source", "multiset:,", "--depth", "1"], "empty multiset source"),
        (["extgraph", "--source", "periodic:ab", "--word", "a", "--orders", "A"], "bad orders 'A', expected e.g. pi:A"),
        (["morphism", "apply", "--spec", "a:ab,bc", "a"], "bad image 'bc', expected letter:word"),
        (["classify", "--source", "periodic:aabab", "--depth", "2", "--alphabet", ""],
         "alphabet must contain at least one letter"),
        (["extgraph", "--source", "periodic:aab", "--word", "a", "--alphabet", ""],
         "alphabet must contain at least one letter"),
        (["diet", "--composition", "2,1", "--pi", "ba", "--alphabet", ""], "alphabet must contain at least one letter"),
        (["morphism", "apply", "--spec", "a:ab,b:b", "--alphabet", "", "ab"], "alphabet must contain at least one letter"),
        (["classify", "--source", f"iet:{pathlib.Path(__file__).parent / 'data' / 'golden.iet'}", "--depth", "2",
          "--alphabet", ""],
         "--alphabet applies to word sources only: an iet: source takes its alphabet from its instance file"),
    ],
)
def test_refused_input_prints_only_its_error_line(capsys, golden_file, argv, message):
    code = main([golden_file if a == "{file}" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, spelled",
    [
        (["classify", "--source", "periodic:abc", "--depth", "100000", "--orders", "A:A"], "depth 100002 over 3"),
        (["classify", "--source", "multiset:abc,ab", "--depth", "5000"], "depth 5002 over 5"),
        (["extgraph", "--source", "periodic:abc", "--word", "ab", "--depth", "100000"], "depth 100000 over 3"),
        (["extgraph", "--source", "multiset:abc,ab", "--word", "ε", "--depth", "5000"], "depth 5000 over 5"),
    ],
)
def test_a_word_source_too_deep_to_sample_names_depth(capsys, argv, spelled):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: --depth is too large for this source: a sample of {spelled} period letters")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("method", ["both", "induction", "scan"])
def test_returns_of_the_empty_word_agree_across_methods(capsys, golden_file, method):
    """The return words of the empty word are the letters, by every method."""
    code = main(["iet", "returns", golden_file, "--word", "", "--method", method])
    captured = capsys.readouterr()
    lines = {
        "both": "induction returns: a b c\nscan returns: a b c\nagreement: yes\n",
        "induction": "induction returns: a b c\n",
        "scan": "scan returns: a b c\n",
    }
    assert (code, captured.out, captured.err) == (0, lines[method], "")


def test_returns_prints_nothing_when_a_method_fails(capsys):
    """The scan runs out of horizon on cbccbc while the induction succeeds;
    the command computes every requested method before it prints anything."""
    sqrt2_4 = str(pathlib.Path(__file__).parent / "data" / "sqrt2_4.iet")
    code = main(["iet", "returns", sqrt2_4, "--word", "cbccbc", "--method", "both"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: horizon")
    assert captured.err.count("\n") == 1


JSON_COMMANDS = {
    "bwt": ["bwt", "--alphabet", "ab", "aab"],
    "ebwt": ["ebwt", "--alphabet", "ab", "aab", "ab"],
    "ebwt-inverse": ["ebwt-inverse", "--alphabet", "ab", "babaa"],
    "cluster": ["cluster", "--alphabet", "ab", "aab"],
}


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_an_unwritable_json_path_prints_only_its_error_line(capsys, tmp_path, name):
    target = tmp_path / "missing" / "x.json"
    assert main([*JSON_COMMANDS[name], "--json", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_json_to_stdout_is_the_text_report_then_the_record(capsys, tmp_path, name):
    argv = JSON_COMMANDS[name]
    assert main(argv) == 0
    text = capsys.readouterr().out
    record = tmp_path / "record.json"
    assert main([*argv, "--json", str(record)]) == 0
    assert capsys.readouterr().out == text
    assert main([*argv, "--json", "-"]) == 0
    assert capsys.readouterr().out == text + record.read_text(encoding="utf-8")


def test_a_bad_input_is_named_before_an_unwritable_json_path(capsys, tmp_path):
    assert main(["bwt", "--alphabet", "ab", "--json", str(tmp_path / "missing" / "x.json"), "abx"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symbol 'x' is not in alphabet ab\n"


def test_iet_check_reports_a_connection(capsys, tmp_path):
    """With unit lengths and the reversal cba, the left end 1 of b is a
    discontinuity of T and of its inverse: a connection of length 0."""
    path = tmp_path / "unit_cba.iet"
    path.write_text("alphabet = abc\npi = cba\nlen.a = (1)\nlen.b = (1)\nlen.c = (1)\n")
    assert main(["iet", "check", str(path)]) == 0
    assert capsys.readouterr().out == (
        "alphabet: abc  pi: cba\n"
        "lengths: a=(1) b=(1) c=(1)\n"
        "domain: [(0), (3))\n"
        "keane: 0-connection T^0((1)) = (1)\n"
    )


def test_the_pi_order_of_a_periodic_source(capsys):
    """aabab clusters for the reversal ba, so pi orders the left letters b < a."""
    assert main(["extgraph", "--source", "periodic:aabab", "--word", "a", "--orders", "pi:A"]) == 0
    assert capsys.readouterr().out == (
        "source: periodic:aabab\n"
        "word: a\n"
        "left (b < a): b a\n"
        "right (a < b): a b\n"
        "edges: (b,a) (b,b) (a,b)\n"
        "tree: yes\n"
        "forest: yes\n"
        "compatible: yes\n"
    )
    assert main(["classify", "--source", "periodic:aabab", "--depth", "3", "--orders", "pi:A"]) == 0
    assert capsys.readouterr().out == (
        "source: periodic:aabab\n"
        "checked words up to length 3 (bounded-depth verdicts)\n"
        "dendric: no (witness: aba)\n"
        "alsinic: yes\n"
        "ordered_dendric: no (witness: aba)\n"
        "ordered_alsinic: yes\n"
    )
