"""The deterministic induction walk against the backtracking search it replaced."""

import pathlib

import pytest

import ietkit.rauzy
from ietkit import Iet, OrderedAlphabet, Permutation
from ietkit.cli import main, parse_iet_file
from ietkit.morphisms import compose, identity
from ietkit.rauzy import LEFT, RIGHT, InductionCapError, _step, induce_to_cylinder, step_morphism

DATA = pathlib.Path(__file__).parent / "data"


def search_oracle(start, target, cap, prefer_left):
    """The former depth-first search with backtracking: the (record, state)
    path onto ``target``, or None when ``cap`` step attempts ran out."""
    budget = cap
    order = (LEFT, RIGHT) if prefer_left else (RIGHT, LEFT)

    def walk(iet, path):
        nonlocal budget
        if iet.domain == target:
            return path
        for kind in order:
            if budget <= 0:
                return None
            budget -= 1
            try:
                nxt, record = _step(iet, kind)
            except ValueError:
                continue
            if not nxt.domain.contains_interval(target):
                continue
            result = walk(nxt, path + [(record, nxt)])
            if result is not None:
                return result
        return None

    return walk(start, [])


def oracle_run(iet, w, prefer_left):
    path = search_oracle(iet, iet.cylinder(w), 64 * (len(w) + 1), prefer_left)
    assert path is not None
    records = [record for record, _ in path]
    theta = identity(path[-1][1].alphabet if path else iet.alphabet)
    for record in reversed(records):
        theta = compose(step_morphism(record), theta)
    return records, theta


def summary(records, theta):
    steps = [(r.kind, r.case, r.pivot_letter, r.partner_letter) for r in records]
    return steps, {c: theta(c) for c in theta.source}


INSTANCES = {name: parse_iet_file(str(DATA / f"{name}.iet")) for name in ("golden", "sqrt2_4")}
CASES = [
    (name, w)
    for name, iet in INSTANCES.items()
    for w in sorted(iet.language(8), key=lambda w: (len(w), w))
]


@pytest.mark.parametrize("prefer_left", [False, True])
@pytest.mark.parametrize("name, w", CASES)
def test_walk_takes_the_steps_of_the_search(name, w, prefer_left):
    iet = INSTANCES[name]
    trace = induce_to_cylinder(iet, w, prefer_left=prefer_left)
    assert summary(trace.steps, trace.theta) == summary(*oracle_run(iet, w, prefer_left))
    assert trace.final.domain == iet.cylinder(w)


def count_steps(monkeypatch):
    calls = []

    def counted(iet, kind):
        calls.append(kind)
        return _step(iet, kind)

    monkeypatch.setattr(ietkit.rauzy, "_step", counted)
    return calls


@pytest.mark.parametrize("prefer_left", [False, True])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_step_built_is_kept(monkeypatch, name, prefer_left):
    iet = INSTANCES[name]
    calls = count_steps(monkeypatch)
    for w in sorted(iet.language(6)):
        del calls[:]
        trace = induce_to_cylinder(iet, w, prefer_left=prefer_left)
        assert len(calls) == len(trace.steps)


def test_cap_counts_steps_taken():
    golden = INSTANCES["golden"]
    steps = len(induce_to_cylinder(golden, "b").steps)
    assert len(induce_to_cylinder(golden, "b", cap=steps).steps) == steps
    with pytest.raises(InductionCapError, match=f"within {steps - 1} steps"):
        induce_to_cylinder(golden, "b", cap=steps - 1)


CONNECTED = [("bca", (2, 2, 5)), ("bca", (3, 1, 3)), ("cba", (5, 1, 2)), ("cab", (4, 1, 4))]


@pytest.mark.parametrize("prefer_left", [False, True])
@pytest.mark.parametrize("pi, lengths", CONNECTED)
def test_connections_end_the_walk_cleanly(pi, lengths, prefer_left):
    """On rational exchanges with connections (a zero connection on the left,
    the right or both sides) the walk either reaches the cylinder, as the
    search did, or raises InductionCapError, never another error."""
    abc = OrderedAlphabet("abc")
    iet = Iet(abc, Permutation.from_one_line_letters(pi, abc), dict(zip("abc", lengths)))
    for w in sorted(iet.language(3)):
        path = search_oracle(iet, iet.cylinder(w), 64 * (len(w) + 1), prefer_left)
        try:
            trace = induce_to_cylinder(iet, w, prefer_left=prefer_left)
        except InductionCapError:
            assert path is None
            continue
        assert summary(trace.steps, trace.theta) == summary(*oracle_run(iet, w, prefer_left))


def connected_exchange():
    """Rational exchange with pi = cba and lengths 2, 3, 5: the last map and
    inverse cuts coincide at 5, a zero connection."""
    abc = OrderedAlphabet("abc")
    return Iet(abc, Permutation.from_one_line_letters("cba", abc), {"a": 2, "b": 3, "c": 5})


def test_connection_stops_the_walk_early(monkeypatch):
    calls = count_steps(monkeypatch)
    with pytest.raises(InductionCapError, match="connection"):
        induce_to_cylinder(connected_exchange(), "a")
    assert len(calls) <= 10


def test_connection_is_a_clean_cli_error(capsys, tmp_path):
    path = tmp_path / "connected.iet"
    path.write_text("alphabet = abc\npi = cba\nlen.a = (2)\nlen.b = (3)\nlen.c = (5)\n")
    code = main(["iet", "returns", str(path), "--word", "a", "--method", "induction"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
