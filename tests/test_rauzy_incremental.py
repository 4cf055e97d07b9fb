"""Induction resumed from a prefix's trace against the walk from the instance."""

import pathlib

import pytest

import ietkit.rauzy
from ietkit.cli import parse_iet_file, verify_return_words
from ietkit.morphisms import compose, identity
from ietkit.rauzy import InductionCapError, induce_to_cylinder, step_morphism

DATA = pathlib.Path(__file__).parent / "data"
INSTANCES = ("golden", "sqrt2_4")


@pytest.fixture(scope="module", params=INSTANCES)
def instance(request):
    return parse_iet_file(str(DATA / f"{request.param}.iet"))


def shortest_first(iet, max_len):
    return sorted((w for w in iet.language(max_len) if w), key=lambda w: (len(w), iet.alphabet.key(w)))


def resumed_traces(iet, max_len):
    """Every word's trace, each resumed from its prefix's."""
    traces = {}
    for w in shortest_first(iet, max_len):
        traces[w] = induce_to_cylinder(iet, w, start=traces.get(w[:-1]))
    return traces


def pieces(iet):
    return sorted(
        (iet.interval(c).left, iet.interval(c).right, iet.translation(c)) for c in iet.alphabet
    )


def return_words(trace):
    return {trace.theta(c) for c in trace.theta.source}


def test_resumed_walk_agrees_with_the_walk_from_the_instance(instance):
    for w, trace in resumed_traces(instance, 8).items():
        scratch = induce_to_cylinder(instance, w)
        assert return_words(trace) == return_words(scratch), w
        assert trace.final.domain == instance.cylinder(w)
        assert trace.states[0] is instance
        assert trace.final is trace.states[-1]
        assert len(trace.states) == len(trace.steps) + 1
        # theta is the composition over the whole chain, innermost step first.
        theta = identity(trace.final.alphabet)
        for record in reversed(trace.steps):
            theta = compose(step_morphism(record), theta)
        assert trace.theta == theta, w
        assert pieces(trace.final) == pieces(scratch.final), w


def test_resumed_trace_extends_its_start(instance):
    traces = resumed_traces(instance, 5)
    for w, trace in traces.items():
        if len(w) > 1:
            start = traces[w[:-1]]
            n = len(start.steps)
            assert trace.steps[:n] == start.steps
            assert trace.states[: n + 1] == start.states


def test_start_whose_domain_misses_the_cylinder_is_refused(instance):
    start = induce_to_cylinder(instance, "a")
    other = next(w for w in shortest_first(instance, 3) if not w.startswith("a"))
    with pytest.raises(ValueError, match="does not contain the cylinder"):
        induce_to_cylinder(instance, other, start=start)


def test_start_of_another_transformation_is_refused():
    golden, other = (parse_iet_file(str(DATA / f"{name}.iet")) for name in INSTANCES)
    start = induce_to_cylinder(golden, "a")
    with pytest.raises(ValueError, match="another transformation"):
        induce_to_cylinder(other, "a", start=start)
    # An equal transformation parsed again is the same one.
    again = parse_iet_file(str(DATA / "golden.iet"))
    w = min(w for w in golden.language(2) if len(w) == 2 and w.startswith("a"))
    assert induce_to_cylinder(again, w, start=start).final == induce_to_cylinder(golden, w, start=start).final


def test_cap_bounds_the_whole_chain(instance):
    traces = resumed_traces(instance, 6)
    for w, trace in traces.items():
        if len(w) < 2 or not trace.steps:
            continue
        start = traces[w[:-1]]
        chain = len(trace.steps)
        assert induce_to_cylinder(instance, w, cap=chain, start=start).steps == trace.steps
        with pytest.raises(InductionCapError):
            induce_to_cylinder(instance, w, cap=chain - 1, start=start)


def test_cap_below_the_start_chain_is_refused_without_new_steps(instance):
    # A word with the same cylinder as its prefix needs no new step; the cap
    # still counts the steps it inherits.
    traces = resumed_traces(instance, 6)
    w = next(
        w for w, t in traces.items()
        if len(w) > 1 and t.steps and len(t.steps) == len(traces[w[:-1]].steps)
    )
    start = traces[w[:-1]]
    assert induce_to_cylinder(instance, w, cap=len(start.steps), start=start).steps == start.steps
    with pytest.raises(InductionCapError):
        induce_to_cylinder(instance, w, cap=len(start.steps) - 1, start=start)


def count_steps(monkeypatch):
    calls = [0]
    original = ietkit.rauzy._step

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(ietkit.rauzy, "_step", counting)
    return calls


@pytest.mark.parametrize(("name", "max_len", "bound"), [("golden", 10, 150), ("sqrt2_4", 6, 250)])
def test_verify_builds_few_steps(monkeypatch, name, max_len, bound):
    iet = parse_iet_file(str(DATA / f"{name}.iet"))
    calls = count_steps(monkeypatch)
    report = verify_return_words(iet, max_len)
    assert report.words_checked > 0
    assert 0 < calls[0] <= bound


def test_verify_trace_walks_every_word_from_the_instance(monkeypatch, golden):
    words = shortest_first(golden, 6)
    expected = sum(len(induce_to_cylinder(golden, w).steps) for w in words)
    calls = count_steps(monkeypatch)
    verify_return_words(golden, 6, trace=True)
    assert calls[0] == expected


@pytest.mark.parametrize("cap", [8, 9, 10, 12])
def test_verify_fails_a_word_only_when_the_walk_from_the_instance_fails(instance, cap):
    """A resumed chain may be longer than the word's own walk; under a cap
    between the two the word must still pass."""
    failed = set()
    for w in shortest_first(instance, 5):
        try:
            induce_to_cylinder(instance, w, cap=cap)
        except InductionCapError:
            failed.add(w)
    report = verify_return_words(instance, 5, cap=cap)
    induction_failures = {f.word for f in report.failures if f.reason.startswith("induction failed")}
    assert induction_failures == failed
