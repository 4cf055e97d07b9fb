import itertools
import pathlib
import random

import pytest

from ietkit import (
    Morphism,
    OrderedAlphabet,
    Permutation,
    bwt,
    clustering_case_target,
    clustering_report,
    compose,
    identity,
    is_primitive,
    make_alpha,
    make_alpha_tilde,
    rename,
)
from ietkit.instance import parse_iet_file
from ietkit.rauzy import induce_to_cylinder, step_morphism

AB = OrderedAlphabet("ab")
ABC = OrderedAlphabet("abc")


class TestAlpha:
    def test_appends_second_letter(self):
        assert make_alpha("a", "c", ABC)("ba") == "bac"

    def test_empty_word(self):
        assert make_alpha("a", "b", ABC)("") == ""

    def test_fixes_other_letters(self):
        assert make_alpha("a", "b", ABC)("ccc") == "ccc"

    def test_rejects_equal_letters(self):
        with pytest.raises(ValueError):
            make_alpha("a", "a", ABC)

    def test_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            make_alpha("a", "z", ABC)
        with pytest.raises(ValueError):
            make_alpha_tilde("z", "a", ABC)


class TestAlphaTilde:
    def test_prepends_second_letter(self):
        assert make_alpha_tilde("c", "b", ABC)("c") == "bc"

    def test_fixes_other_letters(self):
        assert make_alpha_tilde("a", "b", ABC)("b") == "b"

    def test_inside_word(self):
        assert make_alpha_tilde("c", "a", ABC)("bc") == "bac"


class TestCompose:
    def test_step_chain_images(self):
        theta = compose(
            make_alpha("a", "c", ABC),
            compose(
                make_alpha_tilde("c", "a", ABC),
                compose(make_alpha_tilde("a", "b", ABC), make_alpha_tilde("c", "b", ABC)),
            ),
        )
        assert theta("a") == "bac"
        assert theta("b") == "b"
        assert theta("c") == "bacc"

    def test_identity_neutral(self):
        f = make_alpha("a", "b", ABC)
        assert compose(f, identity(ABC)) == f
        assert compose(identity(ABC), f) == f

    def test_associative_sampled(self):
        rng = random.Random(3)
        pool = [make_alpha(a, b, ABC) for a in "abc" for b in "abc" if a != b]
        pool += [make_alpha_tilde(a, b, ABC) for a in "abc" for b in "abc" if a != b]
        for _ in range(50):
            f, g, h = (rng.choice(pool) for _ in range(3))
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_rejects_alphabet_mismatch(self):
        f = make_alpha("a", "b", AB)
        g = make_alpha("a", "b", ABC)
        with pytest.raises(ValueError):
            compose(f, g)

    def test_order_sensitive_mismatch(self):
        # Same letters, different order: composition must refuse.
        acb = OrderedAlphabet("acb")
        f = make_alpha("a", "b", ABC)
        g = Morphism(acb, acb, {"a": "a", "b": "b", "c": "c"})
        with pytest.raises(ValueError, match=r"^cannot compose: inner morphism targets acb, outer expects abc$"):
            compose(f, g)


class TestMorphismValidation:
    def test_needs_every_image(self):
        with pytest.raises(ValueError):
            Morphism(AB, AB, {"a": "ab"})

    def test_rejects_empty_image(self):
        with pytest.raises(ValueError):
            Morphism(AB, AB, {"a": "", "b": "b"})

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            Morphism(AB, AB, {"a": "ac", "b": "b"})


class TestRename:
    def test_identity(self):
        assert rename(Permutation.identity(3), ABC) == identity(ABC)

    def test_target_reordered(self):
        swap = Permutation.from_cycles("(a b)", ABC)
        morphism = rename(swap, ABC)
        assert morphism.target.letters == ("b", "a", "c")
        assert morphism("aab") == "bba"

    def test_clustering_preserved_with_conjugated_permutation(self):
        # In positional form the block permutation is literally unchanged:
        # conjugating by the renaming is absorbed by the reordered target.
        abn = OrderedAlphabet("abn")
        base = clustering_report("banana", abn)
        for images in itertools.permutations(range(3)):
            mu = Permutation(images)
            morphism = rename(mu, abn)
            moved = clustering_report(morphism("banana"), morphism.target)
            assert moved.is_clustering
            assert moved.permutation == base.permutation
            # Block letters are the renamed block letters, in order.
            assert moved.block_order == tuple(morphism.images[c] for c in base.block_order)

    def test_block_count_preserved_by_cyclic_rename(self):
        cyc = Permutation.from_cycles("(a b c)", ABC)
        morphism = rename(cyc, ABC)
        for w in ("bac", "aabc", "abcabc"):
            before = len(clustering_report(w, ABC).block_order)
            after = len(clustering_report(morphism(w), morphism.target).block_order)
            assert before == after


class TestCaseTargets:
    def test_case_2_keeps_alphabet(self):
        # Blocks (b, a, c): block of b is followed by block of a = smallest letter.
        pi = Permutation.from_one_line_letters("bac", ABC)
        assert clustering_case_target(2, "b", "a", pi, ABC) == ABC

    def test_case_3_keeps_alphabet(self):
        pi = Permutation.from_one_line_letters("cab", ABC)
        assert clustering_case_target(3, "a", "c", pi, ABC) == ABC

    def test_case_4_moves_a_to_front(self):
        # a = second letter, b = third, block of b first.
        pi = Permutation.from_one_line_letters("cba", ABC)
        target = clustering_case_target(4, "b", "c", pi, ABC)
        assert target.letters == ("b", "a", "c")

    def test_case_5_moves_a_to_back(self):
        # b = first letter, a = second, block of b last.
        pi = Permutation.from_one_line_letters("cba", ABC)
        target = clustering_case_target(5, "b", "a", pi, ABC)
        assert target.letters == ("a", "c", "b")

    def test_case_1_points_to_rename(self):
        with pytest.raises(ValueError, match="rename"):
            clustering_case_target(1, "a", "b", Permutation.identity(3), ABC)

    def test_reports_failed_clause(self):
        pi = Permutation.from_one_line_letters("bac", ABC)
        with pytest.raises(ValueError, match="smallest letter"):
            clustering_case_target(2, "a", "c", pi, ABC)
        with pytest.raises(ValueError, match="first block"):
            clustering_case_target(4, "a", "b", Permutation.identity(3), ABC)


def case_applications(word, alphabet):
    """All (case, a, b) whose precondition holds for the word's clustering data."""
    report = clustering_report(word, alphabet)
    assert report.is_clustering
    pi, support = report.permutation, report.support
    out = []
    for a in support:
        for b in support:
            if a == b:
                continue
            for case in (2, 3, 4, 5):
                try:
                    target = clustering_case_target(case, a, b, pi, support)
                except ValueError:
                    continue
                out.append((case, a, b, target))
    return out


class TestPreservationCasesSmoke:
    # The full randomized sweep lives in the acceptance suite; this pins a
    # couple of instances of each case.
    def test_every_case_reachable_and_preserving(self):
        seen = set()
        words = ["ab", "aab", "bac", "aabab", "cbaa", "aacab"]
        for w in words:
            support = OrderedAlphabet(sorted(set(w)))
            report = clustering_report(w, support)
            if not report.is_clustering or not is_primitive(w):
                continue
            for case, a, b, target in case_applications(w, support):
                morphism = (
                    make_alpha(a, b, support) if case in (2, 3) else make_alpha_tilde(a, b, support)
                )
                image = morphism(w)
                assert clustering_report(image, target).is_clustering, (w, case, a, b)
                seen.add(case)
        assert seen == {2, 3, 4, 5}

    def test_alpha_images_stay_primitive(self):
        for w in ("ab", "aab", "bac", "abcb"):
            for a in set(w):
                for b in set(w) - {a}:
                    support = OrderedAlphabet(sorted(set(w)))
                    assert is_primitive(make_alpha(a, b, support)(w))
                    assert is_primitive(make_alpha_tilde(a, b, support)(w))


def composed_oracle(f, g):
    """f after g through the validating constructor."""
    return Morphism(g.source, f.target, {c: f(g(c)) for c in g.source})


def step_chains():
    """The step morphisms of the walks onto every word up to length 5 of
    the two test instances; each chain runs from the instance."""
    for name in ("golden.iet", "sqrt2_4.iet"):
        iet = parse_iet_file(str(pathlib.Path(__file__).parent / "data" / name))
        for w in sorted(iet.language(5)):
            yield [step_morphism(r) for r in induce_to_cylinder(iet, w).steps]


class TestComposeOracle:
    def test_matches_the_validating_constructor_on_step_chains(self):
        rng = random.Random(16)
        seen = 0
        for chain in step_chains():
            if len(chain) < 2:
                continue
            for _ in range(3):
                i, j, k = sorted(rng.sample(range(len(chain) + 1), 3))
                if i == j or j == k:
                    continue
                f, g = chain[i], chain[j]
                for m in chain[i + 1 : j]:
                    f = composed_oracle(f, m)
                for m in chain[j + 1 : k]:
                    g = composed_oracle(g, m)
                got, expected = compose(f, g), composed_oracle(f, g)
                assert got == expected
                assert repr(got) == repr(expected)
                assert list(got.images) == list(g.source)
                seen += 1
        assert seen > 100
