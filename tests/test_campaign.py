"""Campaign cost model, break-even analysis, regret, and its smooth surrogate."""

import itertools
import re

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churnopt.campaign import (
    CampaignParams,
    break_even_clv,
    campaign_cost,
    midpoint,
    normalized_gap,
    optimal_decision,
    optimal_total_profit,
    prescribe,
    regret,
    sigmoid,
    smooth_regret,
    smooth_regret_grad,
    surrogate,
    total_profit,
)

# reference parameterization used by the hand-derived values below
P = CampaignParams(f=1.36, d=4.25, gamma=0.3, slope=10.0)
CLV = 85.0


class TestParams:
    def test_valid(self):
        CampaignParams(f=0.0, d=1.0, gamma=1.0, slope=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f=-1.0, d=4.25, gamma=0.3),
            dict(f=1.36, d=0.0, gamma=0.3),
            dict(f=1.36, d=4.25, gamma=0.0),
            dict(f=1.36, d=4.25, gamma=1.2),
            dict(f=1.36, d=4.25, gamma=0.3, slope=0.0),
            dict(f=np.inf, d=4.25, gamma=0.3),
            dict(f=1.36, d=np.inf, gamma=0.3),
            dict(f=1.36, d=4.25, gamma=0.3, slope=np.inf),
            dict(f=np.nan, d=4.25, gamma=0.3),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CampaignParams(**kwargs)


class TestCampaignCost:
    def test_untargeted_costs_nothing(self):
        assert campaign_cost(0, 0, P, CLV) == 0.0
        assert campaign_cost(0, 1, P, CLV) == 0.0

    def test_targeted_nonchurner(self):
        assert campaign_cost(1, 1, P, CLV) == pytest.approx(5.61, abs=1e-12)

    def test_targeted_churner(self):
        assert campaign_cost(1, 0, P, CLV) == pytest.approx(-22.865, abs=1e-12)

    def test_linear_in_relaxed_decision(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(0, 1)
            y = rng.integers(0, 2)
            clv = rng.uniform(1, 300)
            assert campaign_cost(z, y, P, clv) == pytest.approx(
                z * campaign_cost(1, y, P, clv), rel=1e-15
            )


class TestBreakEven:
    def test_reference_value(self):
        assert break_even_clv(P) == pytest.approx(8.7833, abs=1e-4)

    def test_free_contact(self):
        assert break_even_clv(CampaignParams(f=0.0, d=4.25, gamma=0.3)) == 4.25

    def test_full_acceptance_equal_costs(self):
        assert break_even_clv(CampaignParams(f=3.0, d=3.0, gamma=1.0)) == 6.0

    def test_targeting_cost_vanishes_there(self):
        clv = break_even_clv(P)
        assert campaign_cost(1, 0, P, clv) == pytest.approx(0.0, abs=1e-12)


class TestMidpoint:
    def test_reference_value(self):
        # -22.865 / -28.475 by hand
        assert midpoint(P, CLV) == pytest.approx(0.80298, abs=1e-4)

    def test_zero_at_break_even(self):
        assert midpoint(P, break_even_clv(P)) == pytest.approx(0.0, abs=1e-12)

    def test_negative_below_break_even(self):
        assert midpoint(P, 8.0) < 0

    def test_in_unit_interval_above_break_even(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            params = CampaignParams(
                f=rng.uniform(0, 3), d=rng.uniform(0.5, 10), gamma=rng.uniform(0.05, 1.0)
            )
            clv = break_even_clv(params) * rng.uniform(1.001, 50)
            assert 0 < midpoint(params, clv) < 1

    def test_vanishing_denominator_rejected(self):
        # gamma = 1 and clv = 0 make the denominator gamma*(d - clv) - d zero
        message = "degenerate midpoint denominator; requires clv > 0 and d > 0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            midpoint(CampaignParams(f=1.0, d=4.25, gamma=1.0), 0.0)


class TestPrescribe:
    def test_below_midpoint_targets(self):
        assert prescribe(0.5, 0.80298) == 1

    def test_above_midpoint_skips(self):
        assert prescribe(0.9, 0.80298) == 0

    def test_tie_goes_to_no_target(self):
        assert prescribe(0.80298, 0.80298) == 0

    def test_monotone_reparameterization_invariance(self):
        # z depends only on the order of y_hat and m, so any strictly
        # increasing transform applied to both leaves it unchanged
        rng = np.random.default_rng(2)
        transforms = [np.exp, np.tanh, lambda v: v**3, lambda v: 2 * v + 1]
        for _ in range(200):
            y_hat, m = rng.uniform(-2, 2, size=2)
            t = transforms[rng.integers(len(transforms))]
            assert prescribe(y_hat, m) == prescribe(t(y_hat), t(m))


class TestOptimalDecision:
    def test_churner_above_break_even(self):
        assert optimal_decision(0, P, CLV) == 1

    def test_nonchurner(self):
        assert optimal_decision(1, P, CLV) == 0

    def test_below_break_even_never_targets(self):
        assert optimal_decision(0, P, 5.0) == 0

    def test_is_cost_minimizer(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = int(rng.integers(0, 2))
            clv = rng.uniform(1, 300)
            z_opt = optimal_decision(y, P, clv)
            costs = [campaign_cost(z, y, P, clv) for z in (0, 1)]
            assert campaign_cost(z_opt, y, P, clv) == min(costs)


class TestRegret:
    def test_missed_churner(self):
        assert regret(0, 0.9, P, CLV) == pytest.approx(22.865, abs=1e-9)

    def test_wrongly_targeted_nonchurner(self):
        assert regret(1, 0.5, P, CLV) == pytest.approx(5.61, abs=1e-9)

    def test_correct_prescription(self):
        assert regret(0, 0.5, P, CLV) == 0.0

    def test_nonnegative_above_break_even(self):
        # exhaustive over the 2x2 (label, side-of-midpoint) grid for
        # random parameterizations
        rng = np.random.default_rng(4)
        for _ in range(100):
            params = CampaignParams(
                f=rng.uniform(0, 3), d=rng.uniform(0.5, 10), gamma=rng.uniform(0.05, 1.0)
            )
            clv = break_even_clv(params) * rng.uniform(1.01, 20)
            m = midpoint(params, clv)
            for y, y_hat in itertools.product((0, 1), (m / 2, (1 + m) / 2)):
                r = regret(y, y_hat, params, clv)
                assert r >= 0
                agrees = prescribe(y_hat, m) == optimal_decision(y, params, clv)
                assert (r == 0) == agrees


class TestSurrogate:
    def test_half_at_midpoint(self):
        assert surrogate(0.3, 0.3, 10.0) == pytest.approx(0.5, abs=1e-15)

    def test_far_above_midpoint(self):
        # 1 - sigmoid(10)
        assert surrogate(0.3 + 10 / 7.0, 0.3, 7.0) == pytest.approx(4.5398e-5, rel=1e-3)

    def test_steeper_slope_closer_to_step(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.uniform(0.1, 0.9)
            y_hat = rng.uniform(0, 1)
            if y_hat == m:
                continue
            s = rng.uniform(0.5, 50)
            step = float(prescribe(y_hat, m))
            assert abs(surrogate(y_hat, m, 2 * s) - step) < abs(surrogate(y_hat, m, s) - step)

    def test_overflow_safe(self):
        assert surrogate(1.0, 0.0, 1e4) == pytest.approx(0.0, abs=1e-300)
        assert surrogate(0.0, 1.0, 1e4) == pytest.approx(1.0, abs=1e-300)

    def test_monotone_decreasing(self):
        grid = np.linspace(-2, 2, 101)
        vals = surrogate(grid, 0.4, 10.0)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.parametrize("slope", [0.0, -1.0, np.nan])
    def test_non_positive_slope_rejected(self, slope):
        with pytest.raises(ValueError, match=f"^{re.escape(f'slope must be > 0, got {slope}')}$"):
            surrogate(0.3, 0.3, slope)


class TestSmoothRegret:
    def test_nonchurner_at_midpoint(self):
        m = midpoint(P, CLV)
        assert smooth_regret(1, m, P, CLV) == pytest.approx(2.805, abs=1e-9)

    def test_churner_at_midpoint(self):
        m = midpoint(P, CLV)
        assert smooth_regret(0, m, P, CLV) == pytest.approx(11.4325, abs=1e-9)

    def test_churner_limit_recovers_optimum(self):
        assert smooth_regret(0, -50.0, P, CLV) == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_regret_as_slope_grows(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            clv = rng.uniform(12, 300)
            y = int(rng.integers(0, 2))
            y_hat = rng.uniform(0, 1)
            m = midpoint(P, clv)
            if abs(y_hat - m) < 1e-3:
                continue
            scale = abs(campaign_cost(1, y, P, clv)) + abs(campaign_cost(1, 0, P, clv))
            for s in (1.0, 10.0, 100.0, 1000.0):
                params = CampaignParams(f=P.f, d=P.d, gamma=P.gamma, slope=s)
                tol = 4 * scale * np.exp(-s * abs(y_hat - m))
                assert abs(smooth_regret(y, y_hat, params, clv) - regret(y, y_hat, params, clv)) <= tol


class TestSmoothRegretGrad:
    def test_nonchurner_at_midpoint(self):
        m = midpoint(P, CLV)
        assert smooth_regret_grad(1, m, P, CLV) == pytest.approx(-14.025, abs=1e-9)

    def test_churner_at_midpoint(self):
        m = midpoint(P, CLV)
        assert smooth_regret_grad(0, m, P, CLV) == pytest.approx(57.1625, abs=1e-9)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        checked = 0
        while checked < 100:
            params = CampaignParams(
                f=rng.uniform(0.5, 3),
                d=rng.uniform(2, 10),
                gamma=rng.uniform(0.1, 0.9),
                slope=rng.uniform(1, 20),
            )
            clv = rng.uniform(20, 200)
            y = int(rng.integers(0, 2))
            y_hat = rng.uniform(0, 1)
            analytic = smooth_regret_grad(y, y_hat, params, clv)
            numeric = (
                smooth_regret(y, y_hat + h, params, clv) - smooth_regret(y, y_hat - h, params, clv)
            ) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-5)
            checked += 1


class TestTotalProfit:
    def test_empty_campaign(self):
        assert total_profit([0, 0, 0], [0, 1, 0], P, [85.0, 85.0, 85.0]) == 0.0

    def test_two_targeted_churners(self):
        assert total_profit([1, 1], [0, 0], P, [85.0, 85.0]) == pytest.approx(45.73, abs=1e-9)

    def test_optimal_decisions_mixed_pair(self):
        labels = np.array([0, 1])
        clvs = np.array([85.0, 85.0])
        z = optimal_decision(labels, P, clvs)
        assert total_profit(z, labels, P, clvs) == pytest.approx(22.865, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            total_profit([1], [0, 1], P, [85.0, 85.0])

    def test_optimal_beats_all_vectors_brute_force(self):
        # exhaustive over all 2^n decision vectors
        rng = np.random.default_rng(8)
        for n in (1, 4, 8, 12):
            labels = rng.integers(0, 2, size=n)
            clvs = rng.uniform(2, 200, size=n)
            best = max(
                total_profit(np.array(bits), labels, P, clvs)
                for bits in itertools.product((0, 1), repeat=n)
            )
            assert optimal_total_profit(labels, P, clvs) == pytest.approx(best, rel=1e-12)


class TestNormalizedGap:
    def test_optimal_model(self):
        assert normalized_gap(-100.0, -100.0) == 0.0

    def test_zero_profit_model(self):
        assert normalized_gap(-100.0, 0.0) == 1.0

    def test_reference_month(self):
        assert normalized_gap(-663.94, -110.12) == pytest.approx(0.8341, abs=1e-4)

    def test_losses_exceed_one(self):
        assert normalized_gap(-100.0, 50.0) > 1.0

    def test_zero_optimal_cost_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            normalized_gap(0.0, -5.0)


def test_sigmoid_stable_and_symmetric():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1e4) == 1.0
    assert sigmoid(-1e4) == pytest.approx(0.0, abs=1e-300)
    x = np.linspace(-30, 30, 61)
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 700.0, -700.0, 745.2, -745.2, 1e308, -1e308])


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(min_value=700.0),
            st.floats(max_value=-700.0),
            _EDGE_FLOATS,
        ),
        max_size=40,
    ),
    step=st.sampled_from([1, 2]),
)
def test_sigmoid_matches_mask_oracle_bit_for_bit(xs, step):
    x = np.array(xs, dtype=float)[::step]  # step 2: a strided view
    got, want = sigmoid(x), oracles.sigmoid(x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got[~np.isnan(got)]), np.signbit(want[~np.isnan(want)]))
    for value in xs[:3]:
        scalar = sigmoid(value)
        assert isinstance(scalar, float)
        assert scalar == float(oracles.sigmoid(value)) or (np.isnan(scalar) and np.isnan(oracles.sigmoid(value)))
