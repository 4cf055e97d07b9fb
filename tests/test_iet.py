import pytest

from ietkit import (
    CapExceededError,
    IncompleteScanError,
    Interval,
    Iet,
    OrderedAlphabet,
    Permutation,
    QuadNum,
    as_iet,
)

ALPHA = QuadNum(3, -1, 2, 5)


def q(p, q_=0, r=1, d=5):
    return QuadNum(p, q_, r, d)


class TestConstruction:
    def test_golden_is_valid(self, golden, abc):
        assert golden.domain == Interval(QuadNum(0), QuadNum(1))
        assert golden.translation("a") == q(3, -1)  # 2 * alpha
        assert golden.translation("b") == q(2, -1)  # 2 * alpha - 1
        assert golden.translation("c") == golden.translation("b")

    def test_integer_lengths(self, abc):
        iet = Iet(abc, Permutation.symmetric(3), {"a": 4, "b": 2, "c": 1})
        assert iet.domain == Interval(QuadNum(0), QuadNum(7))

    def test_zero_length_rejected(self, abc):
        with pytest.raises(ValueError):
            Iet(abc, Permutation.symmetric(3), {"a": 0, "b": 2, "c": 1})

    def test_negative_length_rejected(self, abc):
        with pytest.raises(ValueError):
            Iet(abc, Permutation.symmetric(3), {"a": QuadNum(-1), "b": 2, "c": 1})

    def test_missing_length_rejected(self, abc):
        with pytest.raises(ValueError):
            Iet(abc, Permutation.symmetric(3), {"a": 1, "b": 2})

    def test_size_mismatch_rejected(self, abc):
        with pytest.raises(ValueError):
            Iet(abc, Permutation.symmetric(2), {"a": 1, "b": 2, "c": 3})


class TestApply:
    def test_golden_at_zero(self, golden):
        assert golden.apply(QuadNum(0)) == q(3, -1, 1)  # 2 * alpha

    def test_inverse_round_trip_sampled(self, golden):
        for k in range(100):
            x = QuadNum(k, 0, 101) * golden.domain.length() + golden.origin
            assert golden.apply_inverse(golden.apply(x)) == x
            assert golden.apply(golden.apply_inverse(x)) == x

    def test_outside_domain_rejected(self, golden):
        with pytest.raises(ValueError):
            golden.apply(QuadNum(1))
        with pytest.raises(ValueError):
            golden.apply_inverse(QuadNum(-1, 0, 2))

    def test_discrete_grid_midpoints(self, abc, seven_diet):
        from ietkit import diet_action

        iet = as_iet(seven_diet, abc)
        mu = diet_action(seven_diet)
        half = QuadNum(1, 0, 2)
        for k in range(1, 8):
            image = iet.apply(QuadNum(k) - half)
            assert image == QuadNum(mu(k - 1) + 1) - half


class TestDiscontinuities:
    def test_golden(self, golden):
        d_map, d_inv = golden.discontinuities()
        assert d_map == (q(-2, 1, 1), q(-1, 1, 2))
        assert d_inv == (q(3, -1, 2), q(3, -1, 1))

    def test_single_interval(self):
        one = Iet(OrderedAlphabet("a"), Permutation.identity(1), {"a": 1})
        assert one.discontinuities() == ((), ())

    def test_discrete_grid(self, abc, seven_diet):
        iet = as_iet(seven_diet, abc)
        d_map, _ = iet.discontinuities()
        assert d_map == (QuadNum(4), QuadNum(6))


class TestKeane:
    def test_golden_regular_to_depth(self, golden):
        verdict = golden.check_keane(100)
        assert verdict.is_regular
        assert verdict.regular_to_depth == 100

    def test_monotone_in_depth(self, golden):
        for depth in (0, 1, 10, 50):
            assert golden.check_keane(depth).is_regular

    def test_periodic_instance_has_connection(self, abc, seven_diet):
        verdict = as_iet(seven_diet, abc).check_keane(50)
        assert not verdict.is_regular
        c = verdict.failure
        assert c.n >= 0 and not c.is_zero_connection
        # The connection is a genuine orbit hit.
        iet = as_iet(seven_diet, abc)
        y = c.x
        for _ in range(c.n):
            y = iet.apply(y)
        assert y == c.y

    def test_zero_connection(self):
        ab = OrderedAlphabet("ab")
        rotation = Iet(ab, Permutation.symmetric(2), {"a": 1, "b": 1})
        verdict = rotation.check_keane(5)
        assert not verdict.is_regular
        assert verdict.failure.is_zero_connection


class TestTrajectory:
    def test_discrete_cell(self, abc, seven_diet):
        iet = as_iet(seven_diet, abc)
        start = QuadNum(7, 0, 2)  # midpoint of cell 4
        assert iet.trajectory(start, 6) == "acaaca"

    def test_empty(self, golden):
        assert golden.trajectory(QuadNum(0), 0) == ""

    def test_golden_prefix(self, golden):
        assert golden.trajectory(QuadNum(0), 5) == "acbba"


class TestCylinder:
    def test_letter_piece(self, golden):
        assert golden.cylinder("b") == Interval(q(-2, 1, 1), q(-1, 1, 2))

    def test_empty_word_gives_domain(self, golden):
        assert golden.cylinder("") == golden.domain

    def test_forbidden_factor_is_empty(self, golden):
        assert golden.cylinder("ab").is_empty

    def test_trajectory_of_midpoint_matches(self, golden):
        for w in sorted(golden.language(5)):
            if not w:
                continue
            block = golden.cylinder(w)
            assert golden.trajectory(block.midpoint(), len(w)) == w


class TestLanguage:
    def test_length_two_factors(self, golden):
        assert {w for w in golden.language(2) if len(w) == 2} == {"ac", "ba", "bb", "cb", "cc"}

    def test_zero_bound(self, golden):
        assert golden.language(0) == {""}

    def test_linear_complexity(self, golden):
        words = golden.language(8)
        for n in range(1, 9):
            assert sum(1 for w in words if len(w) == n) == 2 * n + 1


class TestFirstReturn:
    def test_whole_domain(self, golden):
        point, steps = golden.first_return(golden.domain, QuadNum(1, 0, 3))
        assert steps == 1
        assert point == golden.apply(QuadNum(1, 0, 3))

    def test_golden_return_times_into_b(self, golden):
        block = golden.cylinder("b")
        # Midpoint of the sub-piece whose return word is "bac" (length 3).
        point, steps = golden.first_return(block, q(-19, 9, 4))
        assert steps == 3
        # Midpoint of the sub-piece whose return word is "b" (length 1).
        point, steps = golden.first_return(block, q(-9, 5, 4))
        assert steps == 1

    def test_cap_exceeded(self, golden):
        block = golden.cylinder("b")
        with pytest.raises(CapExceededError):
            golden.first_return(block, q(-19, 9, 4), cap=2)

    def test_point_must_lie_inside(self, golden):
        with pytest.raises(ValueError):
            golden.first_return(golden.cylinder("b"), QuadNum(0))


class TestReturnWordScan:
    def test_golden_b(self, golden):
        assert golden.return_words_scan("b") == {"b", "bac", "bacc"}

    def test_periodic_orbit(self, abc):
        ab = OrderedAlphabet("ab")
        swap = Iet(ab, Permutation.symmetric(2), {"a": 1, "b": 1})
        # Every orbit spells ... a b a b ..., so "a" always returns as "ab".
        assert swap.return_words_scan("a", expected=1) == {"ab"}

    def test_three_words_for_every_short_factor(self, golden):
        for w in sorted(golden.language(6)):
            if w:
                assert len(golden.return_words_scan(w)) == 3

    def test_unknown_factor_rejected(self, golden):
        with pytest.raises(ValueError):
            golden.return_words_scan("ab")

    def test_horizon_exhaustion_reports_partial(self, golden):
        with pytest.raises(IncompleteScanError) as err:
            golden.return_words_scan("b", horizon=4)
        assert err.value.words <= {"b", "bac", "bacc"}

    @pytest.mark.parametrize("w", ["b", ""])
    @pytest.mark.parametrize("expected", [0, -3])
    def test_expected_must_be_positive(self, golden, w, expected):
        with pytest.raises(ValueError, match="expected must be positive"):
            golden.return_words_scan(w, expected=expected)

    @pytest.mark.parametrize("w", ["b", ""])
    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_must_be_positive(self, golden, w, horizon):
        with pytest.raises(ValueError, match="horizon must be positive"):
            golden.return_words_scan(w, horizon=horizon)
