"""The shortcuts of `verify`'s Rauzy steps against the work they replace.

A step builds its post-step alphabet and its morphism without re-checking
them, a state builds its permutation only when read, the step check tests
containment on lattice pairs, and a return word takes the clustering check
of a conjugate already checked.  Each shortcut is compared here with the
checked or recomputed value, on every word up to length 8 of two instances,
and call-count guards check that `verify` still verifies every piece of every
step it builds, and transforms one word of each conjugacy class.
"""

import importlib
import json
import pathlib
from types import SimpleNamespace

import pytest

import ietkit.rauzy
import ietkit.verify
from ietkit import Iet, OrderedAlphabet, Permutation, QuadNum
from ietkit.bwt import clustering_report
from ietkit.cli import main, parse_iet_file
from ietkit.morphisms import Morphism, substitution
from ietkit.rauzy import (
    LEFT, RIGHT, TOP_LONGER, TOP_SHORTER, _step, _verify_induced, induce_to_cylinder, step_morphism,
)
from ietkit.verify import ReturnWordCheck, verify_return_words

bwt_module = importlib.import_module("ietkit.bwt")
DATA = pathlib.Path(__file__).parent / "data"
MAX_LEN = 8


@pytest.fixture(scope="module", params=("golden", "sqrt2_4"))
def instance(request):
    return parse_iet_file(str(DATA / f"{request.param}.iet"))


@pytest.fixture(scope="module")
def traces(instance):
    """Every word's trace up to ``MAX_LEN``, each resumed from its prefix's, as `verify` walks."""
    words = sorted((w for w in instance.language(MAX_LEN) if w), key=lambda w: (len(w), instance.alphabet.key(w)))
    out = {}
    for w in words:
        out[w] = induce_to_cylinder(instance, w, start=out.get(w[:-1]))
    return out


def test_each_step_morphism_is_the_checked_substitution(traces):
    steps = {r for trace in traces.values() for r in trace.steps}
    assert {r.case for r in steps} == {TOP_LONGER, TOP_SHORTER}
    for r in steps:
        a = r.partner_letter if r.case == TOP_LONGER else r.pivot_letter
        expected = substitution(a, r.partner_letter + r.pivot_letter, r.post_alphabet, r.pre_alphabet)
        got = step_morphism(r)
        assert got == expected
        assert (got.source, got.target, got.images) == (expected.source, expected.target, expected.images)
        # The checked constructor accepts it unchanged.
        assert Morphism(got.source, got.target, got.images) == got


def test_each_unchecked_alphabet_equals_the_checked_one(traces):
    alphabets = {r.post_alphabet for trace in traces.values() for r in trace.steps if r.case == TOP_SHORTER}
    assert alphabets
    for fast in alphabets:
        slow = OrderedAlphabet(fast.letters)
        assert fast == slow and hash(fast) == hash(slow)
        assert [fast.rank(c) for c in fast] == [slow.rank(c) for c in slow]
        words = ["", *fast.letters, "".join(reversed(fast.letters)) * 3]
        assert [fast.key(w) for w in words] == [slow.key(w) for w in words]
        for call in ("key", "require", "rank"):
            with pytest.raises(ValueError) as caught_fast:
                getattr(fast, call)("z")
            with pytest.raises(ValueError) as caught_slow:
                getattr(slow, call)("z")
            assert str(caught_fast.value) == str(caught_slow.value)
            assert "'z' is not in alphabet" in str(caught_fast.value)


def test_each_lazy_permutation_equals_the_eager_one(instance, traces):
    for w in traces:
        fresh = induce_to_cylinder(instance, w)
        # A walk reads no permutation but its first state's.
        assert all("permutation" not in vars(state) for state in fresh.states[1:]), w
        for state in fresh.states:
            eager = Permutation.from_one_line_letters("".join(state.image_order_letters()), state.alphabet)
            assert state.permutation == eager
            assert repr(state) == repr(Iet(state.alphabet, eager, state.lengths, state.origin))


def _relattice(iet, k):
    """``iet`` on the lattice refined by ``k``: the same numbers, as pairs over ``k R``."""
    R, d, bounds, _ = iet._grid
    out = Iet.__new__(Iet)
    lengths = {c: (P * k, Q * k) for c, (P, Q) in iet._lens.items()}
    out._place(iet.alphabet, iet.image_order_letters(), k * R, d, (bounds[0][0] * k, bounds[0][1] * k), lengths)
    return out


@pytest.mark.parametrize("kind", [RIGHT, LEFT])
def test_step_check_compares_two_lattices(kind):
    base = parse_iet_file(str(DATA / "sqrt2_4.iet"))
    induced, _ = _step(base, kind)
    lengths, letters = induced.lengths, induced.alphabet.letters
    eps = QuadNum(1, 0, 1000)
    # Each pokes out of the base domain by eps, at one end.
    left_out = dict(lengths)
    left_out[letters[0]] += induced.origin - base.origin + eps
    right_out = dict(lengths)
    right_out[letters[-1]] += base.domain.right - induced.domain.right + eps
    for origin, moved in ((base.origin - eps, left_out), (induced.origin, right_out)):
        bad = Iet(induced.alphabet, induced.permutation, moved, origin)
        assert bad._grid[0] != base._grid[0]
        assert not base.domain.contains_interval(bad.domain)
        with pytest.raises(AssertionError, match="escapes the base domain"):
            _verify_induced(base, bad)
    finer = _relattice(induced, 7)
    assert finer._grid[0] == 7 * base._grid[0] and finer.domain == induced.domain
    _verify_induced(base, finer)
    # The base on the finer lattice checks the same step.
    _verify_induced(_relattice(base, 7), induced)


def test_start_check_on_pairs_keeps_its_refusals(instance, traces):
    language = instance.language(MAX_LEN + 1)
    for u in language:
        if u and len(u) > 1:
            # A prefix's final domain holds the cylinder; the walk resumes from it.
            induce_to_cylinder(instance, u, start=traces[u[:-1]])
    for w, trace in traces.items():
        # A word of the same length has a disjoint cylinder.
        other = next((v for v in traces if len(v) == len(w) and v != w), None)
        if other is not None:
            with pytest.raises(ValueError, match=f"the start trace's domain does not contain the cylinder of {other!r}"):
                induce_to_cylinder(instance, other, start=trace)
    # A start of another exchange is refused first, whatever its domain.
    foreign = induce_to_cylinder(parse_iet_file(str(DATA / "one_letter.iet")), "a")
    with pytest.raises(ValueError, match="another transformation"):
        induce_to_cylinder(instance, max(traces, key=len), start=foreign)


def test_verify_computes_each_cylinder_once_per_method_and_checks_every_piece(monkeypatch, capsys):
    counts = {"cylinder": 0, "pieces": 0, "steps": 0}
    landings: list[tuple[QuadNum, int]] = []
    moved: list[tuple[QuadNum, int]] = []
    inside: list[str] = []
    unchecked: list[str] = []

    def wrap(owner, name, before=None, after=None, scope=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if before:
                before()
            if scope:
                inside.append(scope)
            try:
                result = original(*args, **kwargs)
            finally:
                if scope:
                    inside.pop()
            if after:
                after(result)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    def bump(key, by=1):
        counts[key] += by

    def built(result):
        induced, record = result
        bump("steps")
        bump("pieces", len(induced.alphabet))
        c = record.partner_letter if record.case == TOP_LONGER else record.pivot_letter
        moved.append((induced.interval(c).left + induced.translation(c), 2))

    def checked_constructor(name):
        return lambda: unchecked.append(f"{name} in {inside[-1]}") if inside else None

    wrap(Iet, "cylinder", before=lambda: bump("cylinder"))
    wrap(Iet, "first_return", after=landings.append)
    wrap(ietkit.rauzy, "_step", after=built, scope="_step")
    wrap(ietkit.rauzy, "step_morphism", scope="step_morphism")
    wrap(Morphism, "__post_init__", before=checked_constructor("Morphism.__post_init__"))
    wrap(OrderedAlphabet, "__init__", before=checked_constructor("OrderedAlphabet.__init__"))
    wrap(Permutation, "__init__", before=checked_constructor("Permutation.__init__"))

    assert main(["verify", str(DATA / "golden.iet"), "--max-len", "10", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["words_checked"] == 120 and not report["failures"]
    # One per word for the walk, and one per scanned word for the scan: the
    # 3 letters and the 9 fresh words.
    assert counts["cylinder"] == 120 + 12
    assert counts["steps"] > 0
    assert counts["pieces"] == 3 * counts["steps"]
    # The pieces a step keeps are certified whole; one first return per step
    # follows the moved letter's piece, which comes back in two base steps.
    assert landings == moved
    assert unchecked == []


def least_rotation(u):
    return min(u[i:] + u[:i] for i in range(len(u)))


def test_each_check_equals_a_fresh_report_of_its_own_word(instance):
    image = instance.permutation.one_line_letters(instance.alphabet)
    report = verify_return_words(instance, MAX_LEN)
    fresh = {}
    for r in report.records:
        assert [c.word for c in r.checks] == list(r.return_words), r.word
        for c in r.checks:
            if c.word not in fresh:
                cr = clustering_report(c.word, instance.alphabet)
                blocks = "".join(cr.block_order)
                # The block order is the image order of pi on the support.
                matches = cr.is_clustering and blocks == "".join(x for x in image if x in cr.support)
                fresh[c.word] = ReturnWordCheck(c.word, cr.transform, cr.is_clustering, blocks, matches)
            assert c == fresh[c.word], (r.word, c.word)
        named = [f.return_word for f in report.failures if f.word == r.word and f.return_word is not None]
        assert named == [c.word for c in r.checks if not c.is_clustering], r.word
    # Both instances have conjugate return words, so checks were shared.
    assert len({least_rotation(u) for u in fresh}) < len(fresh)


def test_verify_transforms_one_word_of_each_conjugacy_class(monkeypatch, capsys):
    transformed = []
    real = bwt_module.bwt

    def counted(w, alphabet):
        transformed.append(w)
        return real(w, alphabet)

    monkeypatch.setattr(bwt_module, "bwt", counted)
    assert main(["verify", str(DATA / "golden.iet"), "--max-len", "10", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    words = {c["word"] for r in report["records"] for c in r["checks"]}
    classes = sorted({least_rotation(u) for u in words})
    assert len(classes) < len(words)
    assert sorted(map(least_rotation, transformed)) == classes


def test_a_check_is_shared_by_rotations_only(monkeypatch):
    """In the return words of the instance files, two words of one length
    and one Parikh vector are always conjugate, so this case is made by
    hand, with the induction and the scan faked: aabc and abac have one
    length and one Parikh vector but two transforms, and abca is a rotation
    of aabc."""
    golden = parse_iet_file(str(DATA / "golden.iet"))
    returns = dict(zip("abc", ("aabc", "abca", "abac")))

    def theta(c):
        return returns[c]

    theta.source = tuple(returns)
    made = SimpleNamespace(theta=theta)
    monkeypatch.setattr(ietkit.verify, "induce_to_cylinder", lambda *args, **kwargs: made)
    monkeypatch.setattr(Iet, "return_words_scan", lambda self, w: frozenset(returns.values()))
    transformed = []
    real = bwt_module.bwt
    monkeypatch.setattr(bwt_module, "bwt", lambda w, alphabet: transformed.append(w) or real(w, alphabet))
    report = verify_return_words(golden, 1)
    assert sorted(map(least_rotation, transformed)) == ["aabc", "abac"]
    assert real("aabc", golden.alphabet) != real("abac", golden.alphabet)
    for r in report.records:
        assert r.method_agreement and [c.word for c in r.checks] == sorted(returns.values())
        for c in r.checks:
            cr = clustering_report(c.word, golden.alphabet)
            assert (c.transform, c.is_clustering, c.blocks) == (cr.transform, cr.is_clustering, "".join(cr.block_order))
