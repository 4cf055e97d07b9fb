"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expectation is exact (string equality, exact rationals or
integers in Q(sqrt(d))), so there are no tolerances to tune.
"""

import itertools
import json
import random
import time

import pytest

from ietkit import (
    Diet,
    Interval,
    Iet,
    OrderedAlphabet,
    Permutation,
    QuadNum,
    ZeroConnectionError,
    bwt,
    clustering_case_target,
    clustering_report,
    conjugates,
    diet_action,
    diet_cylinder,
    ebwt,
    extension_graph,
    induce_to_cylinder,
    inverse_ebwt,
    is_compatible,
    is_forest,
    is_primitive,
    is_tree,
    make_alpha,
    make_alpha_tilde,
    multiset_clustering_report,
    multiset_parikh,
    orbit_words,
    order_from_permutation,
    primitive_root,
    rauzy_left,
    rauzy_right,
    rename,
    sample_from_multiset,
    sample_from_periodic,
    classify,
    as_iet,
)
from ietkit.cli import KeaneCheckFailed, emit_report, verify_return_words
from ietkit.rauzy import LEFT, RIGHT

AB = OrderedAlphabet("ab")
ABC = OrderedAlphabet("abc")
ENGLISH = OrderedAlphabet("abcdefghijklmnopqrstuvwxyz")


def ok(criterion, summary):
    print(f"PASS criterion {criterion}: {summary}")


def test_c01_bwt_golden_values():
    assert bwt("sphynx", ENGLISH) == "pysxnh"
    assert bwt("banana", OrderedAlphabet("abn")) == "nnbaaa"
    assert bwt("banana", OrderedAlphabet("anb")) == "bnnaaa"
    assert bwt("banana", OrderedAlphabet("nab")) == "aabnna"
    ok(1, "bwt(sphynx) and the three banana transforms match exactly")


def test_c02_ebwt_and_inverse():
    assert ebwt(["aac", "ab", "ab"], ABC) == "cbbaaaa"
    assert multiset_parikh(["aac", "ab", "ab"], ABC) == {"a": 4, "b": 2, "c": 1}
    assert ebwt(["ab", "aab"], AB) == "babaa"
    assert not multiset_clustering_report(["ab", "aab"], AB).is_clustering
    assert inverse_ebwt("cbbaaaa", ABC) == ("aac", "ab", "ab")
    assert inverse_ebwt("babaa", AB) == ("aab", "ab")
    assert ebwt(inverse_ebwt("cbbaaaa", ABC), ABC) == "cbbaaaa"
    assert ebwt(inverse_ebwt("babaa", AB), AB) == "babaa"
    ok(2, "extended transforms, letter counts, non-clustering verdict, and round trips")


def test_c03_discrete_exchange():
    diet = Diet([4, 2, 1], Permutation.symmetric(3))
    assert diet_action(diet).cycle_string() == "(1,4,7)(2,5)(3,6)"
    assert orbit_words(diet, ABC) == ("aac", "ab", "ab")
    assert diet_cylinder(diet, "a", ABC) == {1, 2, 3, 4}
    assert diet_cylinder(diet, "ab", ABC) == {2, 3}
    assert diet_cylinder(diet, "aac", ABC) == {1}
    ok(3, "7-point exchange: action cycles, orbit words, and cylinders")


def q5(p, q_=0, r=1):
    return QuadNum(p, q_, r, 5)


def test_c04_golden_end_to_end(golden):
    trace = induce_to_cylinder(golden, "b")
    assert [r.kind for r in trace.steps] == [RIGHT, RIGHT, LEFT, LEFT]

    morphism_moves = []
    from ietkit import step_morphism

    for record in trace.steps:
        morphism = step_morphism(record)
        moved = [c for c in morphism.source if morphism.images[c] != c][0]
        morphism_moves.append((moved, morphism.images[moved]))
    # alpha_{a,c}, alpha~_{c,a}, alpha~_{a,b}, alpha~_{c,b}, outermost first.
    assert morphism_moves == [("a", "ac"), ("c", "ac"), ("a", "ba"), ("c", "bc")]

    returns = frozenset(trace.theta(c) for c in trace.theta.source)
    assert returns == {"bac", "b", "bacc"}

    expected_states = [
        ("abc", {"a": (q5(0), q5(-2, 1)), "b": (q5(-2, 1), q5(-1, 1, 2)), "c": (q5(-1, 1, 2), q5(1))}),
        ("abc", {"a": (q5(0), q5(-2, 1)), "b": (q5(-2, 1), q5(-1, 1, 2)), "c": (q5(-1, 1, 2), q5(3, -1))}),
        ("acb", {"a": (q5(0), q5(-11, 5, 2)), "c": (q5(-11, 5, 2), q5(-2, 1)), "b": (q5(-2, 1), q5(-1, 1, 2))}),
        ("cab", {"c": (q5(-11, 5, 2), q5(-2, 1)), "a": (q5(-2, 1), q5(-15, 7, 2)), "b": (q5(-15, 7, 2), q5(-1, 1, 2))}),
        ("acb", {"a": (q5(-2, 1), q5(-15, 7, 2)), "c": (q5(-15, 7, 2), q5(-4, 2)), "b": (q5(-4, 2), q5(-1, 1, 2))}),
    ]
    for state, (alphabet_text, pieces) in zip(trace.states, expected_states):
        assert str(state.alphabet) == alphabet_text
        for letter, (left, right) in pieces.items():
            assert state.interval(letter) == Interval(left, right)
    assert trace.final.domain == golden.cylinder("b")
    ok(4, "induction onto the b-cylinder: steps, morphisms, alphabets, exact endpoints")


def test_c05_return_word_suite(golden):
    start = time.monotonic()
    words = golden.language(6)
    for n in range(1, 7):
        assert sum(1 for w in words if len(w) == n) == 2 * n + 1
    assert len(words) == 49  # 48 nonempty factors plus the empty word

    report = verify_return_words(golden, 6)
    assert report.ok, report.failures
    assert report.words_checked == 48
    for record in report.records:
        assert record.method_agreement
        assert len(record.return_words) == 3
        assert all(check.is_clustering for check in record.checks)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(5, f"48 factors: scan == induction, 3 clustering return words each ({elapsed:.1f}s)")


def test_c06_clustering_iff_ordered_alsinic():
    mismatches = []
    words_checked = 0
    for letters in ("ab", "abc"):
        alphabet = OrderedAlphabet(letters)
        size = len(letters)
        perms = [Permutation(images) for images in itertools.permutations(range(size))]
        pi_orders = {pi: order_from_permutation(pi, alphabet) for pi in perms}
        # The periodic language depends only on the necklace of the primitive
        # root, so classification verdicts are cached per (necklace, length).
        cache = {}
        for n in range(size, 9):
            for tup in itertools.product(letters, repeat=n):
                w = "".join(tup)
                if len(set(w)) != size:
                    continue
                words_checked += 1
                report = clustering_report(w, alphabet)
                root, _ = primitive_root(w)
                key = (min(conjugates(root), key=alphabet.key), n)
                if key not in cache:
                    sample = sample_from_periodic(w, alphabet, n + 2)
                    cache[key] = {
                        pi: classify(sample, pi_orders[pi], alphabet.letters, n).ordered_alsinic
                        for pi in perms
                    }
                for pi in perms:
                    clusters_for_pi = report.is_clustering and report.permutation == pi
                    if clusters_for_pi != cache[key][pi]:
                        mismatches.append((w, pi.images))
    assert not mismatches, mismatches[:10]
    assert words_checked == 494 + 8334  # pangrammatic words of length <= 8
    ok(6, f"{words_checked} words x all support permutations: zero discrepancies")


def _random_clustering_words(rng, count):
    """Primitive clustering words harvested from random discrete exchanges."""
    out = []
    while len(out) < count:
        d = rng.randint(2, 4)
        parts = [rng.randint(1, 5) for _ in range(d)]
        if sum(parts) > 12:
            continue
        pi = Permutation(rng.sample(range(d), d))
        diet = Diet(parts, pi)
        alphabet = OrderedAlphabet("abcd"[:d])
        for w in orbit_words(diet, alphabet):
            if len(w) < 2:
                continue
            support = alphabet.restrict(w)
            report = clustering_report(w, support)
            assert report.is_clustering  # orbit words cluster on their support
            out.append((w, support, report.permutation))
    return out[:count]


def test_c07_clustering_preservation_cases():
    rng = random.Random(58238)
    corpus = _random_clustering_words(rng, 520)
    assert len(corpus) >= 500
    applied = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    for w, support, pi in corpus:
        # Renaming case: positional block permutation is unchanged on the
        # reordered target alphabet.
        mu = Permutation(rng.sample(range(len(support)), len(support)))
        renamed = rename(mu, support)
        moved = clustering_report(renamed(w), renamed.target)
        assert moved.is_clustering and moved.permutation == pi, (w, mu.images)
        applied[1] += 1
        for a in support:
            for b in support:
                if a == b:
                    continue
                for case in (2, 3, 4, 5):
                    try:
                        target = clustering_case_target(case, a, b, pi, support)
                    except ValueError:
                        continue
                    morphism = (
                        make_alpha(a, b, support)
                        if case in (2, 3)
                        else make_alpha_tilde(a, b, support)
                    )
                    image = morphism(w)
                    assert is_primitive(image), (w, case, a, b)
                    assert clustering_report(image, target).is_clustering, (w, case, a, b)
                    applied[case] += 1
    assert all(applied[case] > 100 for case in applied), applied
    ok(7, f"{len(corpus)} clustering words, applications per case {applied}: all images cluster")


def test_c08_bwt_structural_propositions():
    # Conjugacy invariance and its converse, exhaustively to length 8.
    for alphabet in (AB, ABC):
        for n in range(1, 9):
            by_bwt = {}
            by_class = {}
            for tup in itertools.product(alphabet.letters, repeat=n):
                w = "".join(tup)
                canon = min(conjugates(w), key=alphabet.key)
                transform = bwt(w, alphabet)
                by_bwt.setdefault(transform, set()).add(canon)
                by_class.setdefault(canon, set()).add(transform)
            assert all(len(v) == 1 for v in by_bwt.values())
            assert all(len(v) == 1 for v in by_class.values())

    # Power structure: transforms of powers interleave each letter p times.
    checked = 0
    for alphabet in (AB, ABC):
        for n in range(1, 6):
            for tup in itertools.product(alphabet.letters, repeat=n):
                u = "".join(tup)
                if not is_primitive(u):
                    continue
                base = bwt(u, alphabet)
                for p in (2, 3):
                    assert bwt(u * p, alphabet) == "".join(c * p for c in base)
                    checked += 1
    ok(8, f"conjugacy fibers exact to length 8; {checked} power transforms verified")


def test_c09_extension_graph_figures():
    seven = sample_from_multiset(["aac", "ab"], ABC, 6)
    g_eps = extension_graph(seven, "")
    g_a = extension_graph(seven, "a")
    assert g_eps.edges == {("c", "a"), ("b", "a"), ("a", "a"), ("a", "b"), ("a", "c")}
    assert g_a.edges == {("c", "a"), ("b", "b"), ("a", "c")}
    left = order_from_permutation(Permutation.symmetric(3), ABC)
    for graph in (g_eps, g_a):
        assert is_compatible(graph, left, ABC.letters)
    assert is_tree(g_eps)
    assert is_forest(g_a) and not is_tree(g_a)

    pair = sample_from_multiset(["ab", "aab"], AB, 7)
    assert extension_graph(pair, "").edges == {("b", "a"), ("a", "a"), ("a", "b")}
    assert extension_graph(pair, "a").edges == {("b", "a"), ("b", "b"), ("a", "b")}
    g_aba = extension_graph(pair, "aba")
    assert g_aba.edges == {("a", "a"), ("b", "b")}
    assert is_forest(g_aba) and not is_tree(g_aba)
    # Not ordered dendric for any order pair: dendricity already fails at "aba".
    for left in itertools.permutations(AB.letters):
        report = classify(pair, left, AB.letters, 5)
        assert not report.ordered_dendric
    ok(9, "both figure families reproduced edge-for-edge with stated verdicts")


def test_c10_robustness(golden, abc, seven_diet):
    # Equal-length pivot pair: the step must refuse, never mislabel.
    tied = Iet(abc, Permutation.from_one_line_letters("bca", abc), {"a": 3, "b": 1, "c": 3})
    with pytest.raises(ZeroConnectionError):
        rauzy_right(tied)
    tied_left = Iet(abc, Permutation.from_one_line_letters("bca", abc), {"a": 2, "b": 2, "c": 5})
    with pytest.raises(ZeroConnectionError):
        rauzy_left(tied_left)

    # Connected (periodic) instance: verification refuses with an explanation.
    with pytest.raises(KeaneCheckFailed):
        verify_return_words(as_iet(seven_diet, abc), 2)

    # Determinism: two fresh runs serialize to identical bytes.
    first = emit_report(verify_return_words(golden, 3), "structured")
    second = emit_report(verify_return_words(golden, 3), "structured")
    assert first == second
    payload = json.loads(first.decode())
    assert payload["failures"] == []
    ok(10, "tied pivots and connected instances refuse; structured reports byte-identical")
