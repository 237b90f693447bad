import math
from math import comb, sqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterbounds import (
    ChannelParams,
    CodeParams,
    ValidationError,
    bad_probability_bound_css,
    bad_probability_bound_depol,
    bad_probability_bound_ft,
    cluster_count_bound,
    condition_holds,
    condition_lhs,
    effective_erasure,
    effective_erasure_css,
    erasure_tail_bound,
    exact_bad_probability_css,
    exact_bad_probability_depol,
    exact_bad_probability_ft,
    ft_total_bad_bound,
    solve_threshold,
    threshold_curve,
)

from oracles import bad_sum_css, bad_sum_depol, bad_sum_ft

RATES = [round(0.05 * i, 2) for i in range(11)]
# the edges and the ties of the closed forms, then any rate
_rates = st.sampled_from([0.0, 1.0, 0.5, 0.75, 1 / 3]) | st.floats(0.0, 1.0)


class TestEffectiveErasure:
    def test_pure_erasure(self):
        for y in RATES:
            assert effective_erasure(y, 0.0) == pytest.approx(y, abs=1e-15)
            assert effective_erasure_css(y, 0.0) == pytest.approx(y, abs=1e-15)

    def test_certain_erasure(self):
        for p in RATES:
            assert effective_erasure(1.0, p) == pytest.approx(1.0, abs=1e-15)

    def test_depolarizing_value(self):
        # 2p/3 = 1/2 and p(1-p)/3 = 1/16 at p = 3/4
        assert effective_erasure(0.0, 0.75) == pytest.approx(1.0, abs=1e-15)

    def test_css_maximal_noise(self):
        assert effective_erasure_css(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_css_one_third_crossing(self):
        p = (1 - sqrt(8.0 / 9.0)) / 2
        assert effective_erasure_css(0.0, p) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_monotone_in_each_rate(self):
        for f in (effective_erasure, effective_erasure_css):
            for i in range(10):
                assert f(RATES[i + 1], 0.2) >= f(RATES[i], 0.2)
                assert f(0.2, RATES[i + 1]) >= f(0.2, RATES[i])

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            effective_erasure(-0.1, 0.0)
        with pytest.raises(ValidationError):
            effective_erasure_css(0.0, 1.5)


class TestConditions:
    def test_css_boundary_satisfied(self):
        code = CodeParams(w=4)
        assert condition_holds(code, ChannelParams(y=1.0 / 3.0), "css")

    def test_css_beyond_boundary(self):
        code = CodeParams(w=4)
        assert not condition_holds(code, ChannelParams(y=0.34), "css")

    def test_css_flip_rate_edges(self):
        code = CodeParams(w=4)
        assert not condition_holds(code, ChannelParams(p_Z=0.029), "css")
        assert condition_holds(code, ChannelParams(p_Z=0.0285), "css")

    def test_ft_reduces_at_q_zero(self):
        # with no syndrome noise the coefficient moves from w-1 to w
        ch = ChannelParams(y=0.05, p=0.01)
        lhs_ft = condition_lhs(CodeParams(w=4), ch, "ft-stabilizer")
        lhs_plain = condition_lhs(CodeParams(w=5), ch, "stabilizer")
        assert lhs_ft == pytest.approx(lhs_plain, abs=1e-15)

    def test_maximal_syndrome_noise_fails(self):
        code = CodeParams(w=4)
        for model in ("ft-stabilizer", "ft-css"):
            lhs = condition_lhs(code, ChannelParams(q=0.5), model)
            assert lhs >= 2.0
            assert not condition_holds(code, ChannelParams(q=0.5), model)

    def test_finite_D_tightens(self):
        ch = ChannelParams(y=0.3)
        assert condition_holds(CodeParams(w=4, D=math.inf), ch, "css")
        assert not condition_holds(CodeParams(w=4, D=2.0), ch, "css")

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            condition_lhs(CodeParams(w=4), ChannelParams(), "nope")

    def test_asymmetric_css_weights(self):
        code = CodeParams(w_X=6, w_Z=4)
        ch = ChannelParams(p_X=0.01, p_Z=0.002)
        lhs = condition_lhs(code, ch, "css")
        expect = max(
            5 * effective_erasure_css(0.0, 0.002), 3 * effective_erasure_css(0.0, 0.01)
        )
        assert lhs == expect


class TestSolveThreshold:
    def test_css_erasure_third(self):
        val = solve_threshold(CodeParams(w=4), "y", ChannelParams(), model="css")
        assert abs(val - 1.0 / 3.0) <= 1e-9

    def test_css_flip_root(self):
        val = solve_threshold(CodeParams(w=4), "pZ", ChannelParams(), model="css")
        exact = (1 - sqrt(8.0 / 9.0)) / 2
        assert abs(val - exact) <= 1e-9
        assert abs(val - 0.0286) <= 0.0005

    def test_stabilizer_erasure_sixth(self):
        val = solve_threshold(CodeParams(w=4), "y", ChannelParams(), model="stabilizer")
        assert abs(val - 1.0 / 6.0) <= 1e-9

    def test_ft_css_syndrome_root(self):
        # 4 sqrt(q(1-q)) = 1 at q = (2 - sqrt(3))/4
        val = solve_threshold(CodeParams(w=4), "q", ChannelParams(), model="ft-css")
        assert abs(val - (2 - sqrt(3.0)) / 4) <= 1e-9

    def test_tied_p_under_css(self):
        val = solve_threshold(CodeParams(w=4), "p", ChannelParams(), model="css")
        exact = (1 - sqrt(8.0 / 9.0)) / 2
        assert abs(val - exact) <= 1e-9

    def test_no_sign_change(self):
        with pytest.raises(ValidationError):
            solve_threshold(CodeParams(w=2), "pZ", ChannelParams(), model="css")

    def test_already_violated(self):
        with pytest.raises(ValidationError):
            solve_threshold(CodeParams(w=4), "pZ", ChannelParams(y=0.9), model="css")


class TestThresholdCurve:
    def test_endpoints_and_spacing(self):
        y_max = solve_threshold(CodeParams(w=4), "y", model="css")
        rows = threshold_curve(CodeParams(w=4), "y", "pZ", ChannelParams(), "css", 5)
        assert [a for a, _ in rows] == [y_max * i / 4 for i in range(5)]
        assert rows[0][1] == solve_threshold(CodeParams(w=4), "pZ", model="css")
        assert rows[-1][1] == 0.0  # no flip budget left at the erasure threshold

    def test_one_point_is_a_zero(self):
        rows = threshold_curve(CodeParams(w=4), "y", "p", ChannelParams(q=0.001), "ft-css", 1)
        assert rows == [(0.0, solve_threshold(CodeParams(w=4), "p", ChannelParams(q=0.001),
                                              model="ft-css"))]

    @pytest.mark.parametrize("points", [0, -3])
    def test_rejects_no_points(self, points):
        with pytest.raises(ValidationError, match="curve point"):
            threshold_curve(CodeParams(w=4), "y", "p", ChannelParams(), "css", points)

    @pytest.mark.parametrize("a, b", [("p_X", "y"), ("y", "p_Z"), ("y", "bogus")])
    def test_rejects_names_outside_rates(self, a, b):
        with pytest.raises(ValidationError, match="unknown rate"):
            threshold_curve(CodeParams(w=4), a, b, ChannelParams(), "css", 3)


class TestErasureTail:
    def test_worked_value(self):
        assert erasure_tail_bound(10, 4, 2, 1.0 / 12.0) == pytest.approx(2.5, abs=1e-12)

    def test_zero_rate(self):
        assert erasure_tail_bound(10, 4, 2, 0.0) == 0.0

    def test_divergence(self):
        with pytest.raises(ValidationError):
            erasure_tail_bound(10, 4, 2, 0.2)

    def test_dominates_partial_sums(self):
        n, w, d, y = 12, 4, 3, 0.07
        total = erasure_tail_bound(n, w, d, y)
        partial = 0.0
        for m in range(d, 40):
            partial += cluster_count_bound(n, w, m) * y**m
            assert partial <= total + 1e-12


class TestExactCss:
    def test_single_position(self):
        assert exact_bad_probability_css(1, 0.0, 0.1) == pytest.approx(0.1, abs=1e-15)
        assert bad_probability_bound_css(1, 0.0, 0.1) == pytest.approx(0.6, abs=1e-15)

    def test_all_erasures_saturate(self):
        for m in (1, 3, 5):
            assert exact_bad_probability_css(m, 1.0, 0.3) == 1.0
            assert bad_probability_bound_css(m, 1.0, 0.3) == 1.0

    def test_symmetric_rate_ties_everywhere(self):
        # at p = 1/2 the inverted error is always exactly as likely
        assert exact_bad_probability_css(2, 0.0, 0.5) == 1.0

    def test_matches_oracle(self):
        for m in (1, 2, 3, 4):
            for y in (0.0, 0.1, 0.35):
                for p in (0.0, 0.05, 0.3, 0.5):
                    assert exact_bad_probability_css(m, y, p) == pytest.approx(
                        bad_sum_css(m, y, p), abs=1e-13
                    )


class TestExactDepol:
    def test_single_position(self):
        for p in (0.0, 0.1, 0.4):
            assert exact_bad_probability_depol(1, 0.0, p) == pytest.approx(p, abs=1e-15)

    def test_all_erasures_saturate(self):
        for m in (1, 2, 4):
            assert exact_bad_probability_depol(m, 1.0, 0.2) == 1.0

    def test_two_qubit_value(self):
        assert exact_bad_probability_depol(2, 0.0, 0.3) == pytest.approx(0.23, abs=1e-15)

    def test_matches_oracle(self):
        for m in (1, 2, 3):
            for y in (0.0, 0.15):
                for p in (0.0, 0.05, 0.3, 0.5):
                    assert exact_bad_probability_depol(m, y, p) == pytest.approx(
                        bad_sum_depol(m, y, p), abs=1e-13
                    )


class TestExactFt:
    def test_reduces_to_css_without_syndrome_positions(self):
        for m in (1, 2, 4):
            for p in (0.05, 0.2, 0.4):
                assert exact_bad_probability_ft(m, m, p, 0.7) == pytest.approx(
                    exact_bad_probability_css(m, 0.0, p), abs=1e-14
                )

    def test_equal_rates_collapse_to_binomial_tail(self):
        for m, m_q in ((3, 1), (4, 2), (5, 3)):
            for p in (0.1, 0.3):
                tail = sum(
                    comb(m, j) * p**j * (1 - p) ** (m - j)
                    for j in range(m + 1)
                    if 2 * j >= m
                )
                assert exact_bad_probability_ft(m, m_q, p, p) == pytest.approx(
                    tail, abs=1e-13
                )

    def test_bound_value(self):
        assert bad_probability_bound_ft(2, 1, 0.1, 0.1) == pytest.approx(0.36, abs=1e-12)

    def test_power_tie_rates_match_oracle(self):
        # odds 9 and 3 are an exact power pair, so ties appear at
        # mixed counts; the region test must agree with the literal
        # probability comparison there
        for m, m_q in ((5, 1), (6, 2), (4, 1)):
            assert exact_bad_probability_ft(m, m_q, 0.1, 0.25) == pytest.approx(
                bad_sum_ft(m, m_q, 0.1, 0.25), abs=1e-13
            )

    def test_matches_oracle(self):
        for m in (1, 2, 3, 4):
            for m_q in range(m + 1):
                for p in (0.0, 0.1, 0.5):
                    for q in (0.0, 0.25, 0.5):
                        assert exact_bad_probability_ft(m, m_q, p, q) == pytest.approx(
                            bad_sum_ft(m, m_q, p, q), abs=1e-13
                        )

    def test_degenerate_rates(self):
        assert exact_bad_probability_ft(3, 2, 0.0, 0.3) == pytest.approx(
            bad_sum_ft(3, 2, 0.0, 0.3), abs=1e-15
        )
        assert exact_bad_probability_ft(3, 2, 1.0, 0.3) == pytest.approx(
            bad_sum_ft(3, 2, 1.0, 0.3), abs=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            exact_bad_probability_ft(2, 3, 0.1, 0.1)


# (m, m_q, y, p, q, css, depol, ft): float.hex of the three sums at
# rates 0, 1, 1/2, the tie pair 1/4, 3/4 and non-dyadic rates
_EXACT_SUM_BITS = [
    (5, 2, 0.0, 0.1, 0.25, "0x1.187e7c06e19bap-7", "0x1.43e4bad062e30p-9", "0x1.3851eb851eb86p-5"),
    (6, 3, 0.1, 0.25, 0.75, "0x1.3e0e02d9cf13ep-3", "0x1.064c9c4da9004p-5", "0x1.5b00000000000p-3"),
    (4, 1, 0.5, 0.75, 0.1, "0x1.60c0000000000p-2", "0x1.0000000000000p+0", "0x1.cac083126e97cp-6"),
    (7, 7, 1.0, 0.5, 0.0, "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    (3, 0, 0.25, 0.0, 1.0, "0x1.0000000000000p-6", "0x1.0000000000000p-6", "0x0.0p+0"),
    (8, 4, 0.75, 1.0, 0.5, "0x1.9a10000000000p-4", "0x1.fe7eb6873ce86p-2", "0x0.0p+0"),
    (12, 5, 0.1, 0.1, 0.3, "0x1.b98709a71ad11p-11", "0x1.59a9d4ac24f3dp-16", "0x1.6311c3ddf6fcdp-8"),
]


@pytest.mark.parametrize("m, m_q, y, p, q, css, depol, ft", _EXACT_SUM_BITS)
def test_exact_sums_to_the_last_bit(m, m_q, y, p, q, css, depol, ft):
    assert exact_bad_probability_css(m, y, p).hex() == css
    assert exact_bad_probability_depol(m, y, p).hex() == depol
    assert exact_bad_probability_ft(m, m_q, p, q).hex() == ft


class TestDomination:
    def test_css_and_depol_grid(self):
        for m in range(1, 13):
            for y in RATES:
                for p in RATES:
                    assert exact_bad_probability_css(m, y, p) <= bad_probability_bound_css(
                        m, y, p
                    ) + 1e-12
                    assert exact_bad_probability_depol(
                        m, y, p
                    ) <= bad_probability_bound_depol(m, y, p) + 1e-12

    def test_ft_grid_spot(self):
        for m in (1, 4, 8, 12):
            for m_q in range(0, m + 1, 2):
                for p in RATES[::2]:
                    for q in RATES[::2]:
                        assert exact_bad_probability_ft(
                            m, m_q, p, q
                        ) <= bad_probability_bound_ft(m, m_q, p, q) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 8), y=_rates, p=_rates)
    def test_css_and_depol_at_random_rates(self, m, y, p):
        assert exact_bad_probability_css(m, y, p) <= bad_probability_bound_css(m, y, p) + 1e-12
        assert exact_bad_probability_depol(m, y, p) <= bad_probability_bound_depol(m, y, p) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 8), data=st.data(), p=_rates, q=_rates)
    def test_ft_at_random_rates(self, m, data, p, q):
        m_q = data.draw(st.integers(0, m))
        assert exact_bad_probability_ft(m, m_q, p, q) <= bad_probability_bound_ft(m, m_q, p, q) + 1e-12

    def test_exact_sums_monotone_in_flip_rate(self):
        # monotone in p at fixed y; the erasure direction can decrease
        # the sum (a revealed location is easier to decode than an
        # unknown flip), so only p is asserted here
        for m in (2, 4):
            for y in (0.0, 0.1, 0.3):
                for i in range(10):
                    assert exact_bad_probability_css(m, y, RATES[i + 1]) >= (
                        exact_bad_probability_css(m, y, RATES[i]) - 1e-13
                    )
                    assert exact_bad_probability_depol(m, y, RATES[i + 1]) >= (
                        exact_bad_probability_depol(m, y, RATES[i]) - 1e-13
                    )


class TestFtTotalBound:
    def test_noiseless_is_zero(self):
        assert ft_total_bad_bound(100, 4, 3, 0.0, 0.0) == 0.0

    def test_geometric_half(self):
        # pick q so that 4 sqrt(q(1-q)) = 1/2, p = 0
        q = (1 - sqrt(15.0) / 4) / 2
        assert ft_total_bad_bound(1, 4, 2, 0.0, q) == pytest.approx(0.5, abs=1e-12)

    def test_base_matches_condition_lhs(self):
        # the series base equals the ft-css condition expression at y=0
        for w in (4, 6):
            for p in (0.001, 0.01):
                for q in (0.0005, 0.004):
                    base = 4 * sqrt(q * (1 - q)) + 2 * w * sqrt(p * (1 - p))
                    lhs = condition_lhs(
                        CodeParams(w_X=w, w_Z=w),
                        ChannelParams(p_X=p, p_Z=p, q=q),
                        "ft-css",
                    )
                    assert lhs == pytest.approx(base, abs=1e-15)

    def test_divergence(self):
        with pytest.raises(ValidationError):
            ft_total_bad_bound(10, 4, 3, 0.3, 0.3)


class TestChannelValidation:
    def test_rates_within_unit_interval(self):
        with pytest.raises(ValidationError):
            ChannelParams(y=1.2)
        with pytest.raises(ValidationError):
            ChannelParams(q=-0.1)

    def test_D_positive(self):
        with pytest.raises(ValidationError):
            CodeParams(w=4, D=0.0)

    def test_D_nan_rejected(self):
        with pytest.raises(ValidationError, match="D must be positive"):
            CodeParams(w=4, D=math.nan)

    @pytest.mark.parametrize(
        "weights", [{"w": 0}, {"w": -3}, {"w_X": 0, "w_Z": 4}, {"w": 4, "w_Z": -1}]
    )
    def test_weights_below_one_rejected(self, weights):
        with pytest.raises(ValidationError, match="must be at least 1"):
            CodeParams(**weights)

    def test_weight_one_accepted(self):
        assert CodeParams(w=1).weight() == 1
        assert CodeParams(w_X=4, w_Z=1).weights_xz() == (4, 1)
