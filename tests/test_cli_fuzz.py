"""A grammar fuzzer over every subcommand: argument lists that argparse
accepts, with bad numbers, foreign letters, empty and huge depths and step
counts, mutated instance files and unwritable output paths.  Whatever the
input, ``main`` returns 0, 1 or 2 without raising, and status 2 comes with
exactly one stderr line naming the error or the refusal."""

import io
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ietkit.cli import main  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
INSTANCES = sorted(DATA.glob("*.iet"))

letters = st.sampled_from(["ab", "abc", "cba", "abcd", "a", "aab", "ax", "a b", "é", "\n"])
words = st.one_of(st.text(alphabet="abcdx", min_size=1, max_size=8), st.sampled_from(["ε", "eps", "a\nb"]))
# Strings that argparse's int() accepts: small values run, huge ones meet a budget.
counts = st.one_of(
    st.integers(-3, 8).map(str),
    st.sampled_from(["-0", " 3", "٣", "1_000", "1000000000", "99999999999999999999"]),
)
texts = st.one_of(
    counts,
    st.sampled_from(["", "x", "1.5", "1e3", "4,2,1", "1,,2", "0,1", "10000000,1", "(0)", "(3, -1, 2)", "(1, 2"]),
)
orders = st.sampled_from(["A:A", "pi:A", "A:pi", "pi:pi", "ab:ba", "abc:cba", "ab:", ":", "x", "xy:ab"])


@st.composite
def instance(draw, root):
    """A checked-in instance file, a mutation of one, a missing path or a directory."""
    base = draw(st.sampled_from(INSTANCES))
    kind = draw(st.sampled_from(["as is", "mutated", "missing", "directory"]))
    if kind == "as is":
        return str(base)
    if kind == "missing":
        return str(root / "missing.iet")
    if kind == "directory":
        return str(root)
    lines = base.read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "replace", "truncate"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "replace":
            j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
            c = draw(st.sampled_from(list("0123456789-,()= abcdx\t")))
            lines[i] = lines[i][:j] + c + lines[i][j + 1 :]
        else:
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        if not lines:
            break
    path = root / "mutated.iet"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def output(root):
    """No record, stdout, a writable file, a directory, or a file under a missing directory."""
    return st.sampled_from([None, "-", str(root / "out.json"), str(root), str(root / "missing" / "out.json")])


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def switch(flag):
    return st.sampled_from([[], [flag]])


def argv_lists(root):
    file = instance(root)
    source = st.one_of(
        words.map(lambda w: "periodic:" + w),
        st.lists(words, min_size=1, max_size=3).map(lambda ws: "multiset:" + ",".join(ws)),
        file.map(lambda f: "iet:" + f),
        st.sampled_from(["periodic:", "multiset:", "multiset:,", "bogus:ab", "ab"]),
    )
    json_path = output(root).map(lambda p: [] if p is None else ["--json", p])
    transforms = [
        st.tuples(st.sampled_from(["bwt", "cluster", "ebwt-inverse"]), letters, json_path, words).map(
            lambda t: [t[0], "--alphabet", t[1], *t[2], t[3]]
        ),
        st.tuples(letters, json_path, st.lists(words, min_size=1, max_size=3)).map(
            lambda t: ["ebwt", "--alphabet", t[0], *t[1], *t[2]]
        ),
        st.tuples(st.sampled_from(["a:ab,b:b", "a:b,b:a,c:c", "a:ab,a:b", "a", "a:,b:x", ":"]),
                  optional("--alphabet", letters), words).map(
            lambda t: ["morphism", "apply", "--spec", t[0], *t[1], t[2]]
        ),
        st.tuples(texts, words, optional("--alphabet", letters), switch("--orbits"), switch("--words"),
                  optional("--cylinder", words)).map(
            lambda t: ["diet", "--composition", t[0], "--pi", t[1], *t[2], *t[3], *t[4], *t[5]]
        ),
    ]
    exchanges = [
        st.tuples(file, optional("--depth", counts)).map(lambda t: ["iet", "check", t[0], *t[1]]),
        st.tuples(file, texts, counts).map(lambda t: ["iet", "traj", t[0], "--point", t[1], "--steps", t[2]]),
        st.tuples(file, counts).map(lambda t: ["iet", "language", t[0], "--max-len", t[1]]),
        st.tuples(file, st.one_of(st.text(alphabet="rlx", max_size=6), st.sampled_from(["auto", "r" * 5000])),
                  optional("--word", words)).map(lambda t: ["iet", "rauzy", t[0], "--steps", t[1], *t[2]]),
        st.tuples(file, words, optional("--method", st.sampled_from(["scan", "induction", "both"])),
                  switch("--trace")).map(lambda t: ["iet", "returns", t[0], "--word", t[1], *t[2], *t[3]]),
        st.tuples(file, optional("--max-len", counts), optional("--keane-depth", counts),
                  optional("--format", st.sampled_from(["text", "json"])),
                  output(root).map(lambda p: [] if p in (None, "-") else ["--output", p]),
                  switch("--trace")).map(lambda t: ["verify", t[0], *t[1], *t[2], *t[3], *t[4], *t[5]]),
    ]
    languages = [
        st.tuples(source, words, optional("--orders", orders), optional("--alphabet", letters),
                  optional("--depth", counts), switch("--layout")).map(
            lambda t: ["extgraph", "--source", t[0], "--word", t[1], *t[2], *t[3], *t[4], *t[5]]
        ),
        st.tuples(source, counts, optional("--orders", orders), optional("--alphabet", letters)).map(
            lambda t: ["classify", "--source", t[0], "--depth", t[1], *t[2], *t[3]]
        ),
    ]
    return st.one_of(*transforms, *exchanges, *languages)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_every_call_exits_cleanly(root):
    @settings(max_examples=200, deadline=None)
    @given(argv_lists(root))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(argv)
        assert status in (0, 1, 2), argv
        if status == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith(("error:", "refused:")), (argv, err.getvalue())

    check()


@pytest.mark.parametrize("argv, message", [
    (["bwt", "--alphabet", "\n", "a"], "symbol 'a' is not in alphabet \\n"),
    (["extgraph", "--source", "periodic:a\nb", "--word", "c"], "symbol 'c' is not in alphabet \\nab"),
])
def test_a_line_break_in_a_message_is_escaped(capsys, argv, message):
    # An alphabet prints its letters as they are; the error stays one line.
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
