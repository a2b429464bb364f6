"""Threshold-profit metrics against brute-force enumeration oracles."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import profit_at_threshold, threshold_candidates

from churnopt.campaign import CampaignParams
from churnopt.data import quantile_segments
from churnopt.metrics import (
    accuracy,
    mp,
    msp,
    targeted_fraction,
)

P = CampaignParams(f=1.36, d=4.25, gamma=0.3, slope=10.0)

SCORES = np.array([0.1, 0.4, 0.6, 0.9])
LABELS = np.array([0, 0, 1, 1])


def direct_profit(scores, labels, t, params, clv_avg):
    """Per-customer profit by direct accumulation (test oracle)."""
    total = 0.0
    for s, y in zip(scores, labels):
        if s <= t:
            if y == 0:
                total += params.gamma * (clv_avg - params.d) - params.f
            else:
                total -= params.d + params.f
    return total / len(scores)


def brute_force_mp(scores, labels, params, clv_avg):
    """Best profit over the empty campaign and every observed score as t."""
    candidates = [-np.inf] + sorted(set(scores))
    return max(direct_profit(scores, labels, t, params, clv_avg) for t in candidates)


class TestProfitAtThreshold:
    def test_hand_example(self):
        ev = profit_at_threshold(SCORES, LABELS, 0.5, P, 85.0)
        assert ev.profit_per_customer == pytest.approx(11.4325, abs=1e-9)
        assert ev.profit_per_customer == pytest.approx(85.0 * 0.269 * 0.5, abs=1e-9)
        assert ev.targeted_churners == 2 and ev.targeted_nonchurners == 0

    def test_below_min_score_is_empty_campaign(self):
        ev = profit_at_threshold(SCORES, LABELS, 0.05, P, 85.0)
        assert ev.profit_per_customer == 0.0
        assert ev.targeted_churners == 0 and ev.targeted_nonchurners == 0

    def test_above_max_score_targets_everyone(self):
        ev = profit_at_threshold(SCORES, LABELS, 2.0, P, 85.0)
        assert ev.profit_per_customer == pytest.approx(0.5 * 22.865 - 0.5 * 5.61, abs=1e-9)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            scores = rng.uniform(0, 1, n).round(2)
            labels = rng.integers(0, 2, n)
            t = rng.uniform(-0.2, 1.2)
            clv_avg = rng.uniform(10, 200)
            ev = profit_at_threshold(scores, labels, t, P, clv_avg)
            assert ev.profit_per_customer == pytest.approx(
                direct_profit(scores, labels, t, P, clv_avg), abs=1e-12
            )

    def test_piecewise_constant_between_scores(self):
        s = np.sort(SCORES)
        for lo, hi in zip(s[:-1], s[1:]):
            at_lo = profit_at_threshold(SCORES, LABELS, lo, P, 85.0)
            for t in np.linspace(lo, hi, 7)[:-1]:  # [lo, hi) shares one campaign
                ev = profit_at_threshold(SCORES, LABELS, t, P, 85.0)
                assert ev.profit_per_customer == at_lo.profit_per_customer
                assert ev.targeted_churners == at_lo.targeted_churners
                assert ev.targeted_nonchurners == at_lo.targeted_nonchurners

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            profit_at_threshold([0.5], [0, 1], 0.5, P, 85.0)


class TestMp:
    def test_hand_example(self):
        value, t = mp(SCORES, LABELS, P, 85.0)
        assert value == pytest.approx(11.4325, abs=1e-9)
        assert 0.4 < t < 0.6

    def test_all_nonchurners(self):
        value, t = mp(np.array([0.2, 0.7]), np.array([1, 1]), P, 85.0)
        assert value == 0.0
        assert t == -np.inf

    def test_single_churner_above_break_even(self):
        scores = np.array([0.3, 0.6, 0.8])
        labels = np.array([0, 1, 1])
        value, t = mp(scores, labels, P, 85.0)
        assert value == pytest.approx((0.3 * (85.0 - 4.25) - 1.36) / 3, abs=1e-12)
        assert 0.3 <= t < 0.6  # targets exactly the churner's score

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            scores = rng.uniform(0, 1, n).round(2)  # rounded to force ties
            labels = rng.integers(0, 2, n)
            clv_avg = rng.uniform(5, 300)
            value, _ = mp(scores, labels, P, clv_avg)
            assert value == pytest.approx(brute_force_mp(scores, labels, P, clv_avg), abs=1e-12)

    def test_tie_breaks_toward_smaller_campaign(self):
        # parameters chosen so the churner gain exactly equals the
        # non-churner cost in float arithmetic: gamma*(7-1)-1 == 1+1 == 2.
        # Targeting {churner} and {churner, nonchurner, churner} then tie,
        # and the smaller campaign must win.
        params = CampaignParams(f=1.0, d=1.0, gamma=0.5)
        scores = np.array([0.1, 0.5, 0.6, 0.9])
        labels = np.array([0, 1, 0, 1])
        value, t = mp(scores, labels, params, 7.0)
        assert value == pytest.approx(0.5, abs=0)  # 2.0 / 4 exactly
        assert t < 0.5

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        for transform in (np.exp, lambda v: v**3, lambda v: 10 * v - 3):
            scores = rng.uniform(-1, 1, 20)
            labels = rng.integers(0, 2, 20)
            v1, t1 = mp(scores, labels, P, 85.0)
            v2, t2 = mp(transform(scores), labels, P, 85.0)
            assert v1 == pytest.approx(v2, abs=1e-12)
            assert np.array_equal(scores <= t1, transform(scores) <= t2)

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            mp(np.array([0.2, np.nan]), np.array([0, 1]), P, 85.0)

    def test_no_customer_rejected(self):
        with pytest.raises(ValueError, match="^mp needs at least one customer$"):
            mp(np.array([]), np.array([], dtype=int), P, 85.0)

    def test_candidates_cover_all_campaigns(self):
        scores = np.array([0.2, 0.2, 0.5])
        cands = threshold_candidates(scores)
        assert cands[0] == -np.inf and cands[-1] == np.inf
        assert len(cands) == 3  # one midpoint for two distinct values


def _same_mp(scores, labels, params, clv_avg):
    got, want = mp(scores, labels, params, clv_avg), oracles.mp(scores, labels, params, clv_avg)
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want)), (got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMpSweep:
    """The sorted pass against the per-candidate rescan of tests/oracles.py, warning about nothing."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_rescan(self, data):
        n = data.draw(st.integers(1, 40))
        eps = np.finfo(float).eps
        pool = data.draw(
            st.sampled_from(["rounded", "adjacent", "signed_zero_inf", "huge"]), label="pool"
        )
        if pool == "rounded":  # few distinct values, many ties
            values = st.integers(0, 6).map(lambda v: v / 6)
        elif pool == "adjacent":  # consecutive doubles, whose midpoints round onto an end
            values = st.integers(0, 8).map(lambda j: 0.5 + j * eps / 4)
        elif pool == "signed_zero_inf":
            values = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 0.25, -0.25])
        else:  # near the float maximum, where midpoints overflow
            big = np.finfo(float).max
            values = st.sampled_from([big, 1.5e308, 1e308, -1e308, -big, np.inf, 0.5])
        scores = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
        params = CampaignParams(
            f=data.draw(st.sampled_from([0.0, 1.0, 1.36])),
            d=data.draw(st.sampled_from([1.0, 4.25, 40.0])),
            gamma=data.draw(st.sampled_from([0.3, 0.5, 1.0])),
        )
        clv_avg = data.draw(st.sampled_from([0.0, 7.0, 85.0, 300.0, np.inf, -np.inf]))
        _same_mp(scores, labels, params, clv_avg)

    @pytest.mark.parametrize(
        "scores, labels",
        [
            ([-np.inf, np.inf], [1, 1]),  # their midpoint is NaN, and -inf stands in
            ([-np.inf, np.inf, np.inf], [0, 1, 0]),
            ([-0.0, 0.0, -0.0], [0, 1, 0]),
            ([0.3, 0.3, 0.3], [0, 0, 0]),
            ([0.3, 0.7], [1, 1]),
            ([np.inf, -np.inf], [0, 1]),
            ([-np.inf, -np.inf, 0.5], [0, 0, 1]),  # t = -inf targets the -inf scores
            ([0.5, np.inf, np.inf], [1, 0, 0]),  # the midpoint of 0.5 and +inf is +inf, and 0.5 stands in
            ([-0.0, np.inf], [0, 1]),  # -0.0 stands in as +0.0, as in the oracle
            ([0.4, 0.4, 0.4], [0, 1, 0]),
            ([0.3], [0]),
            ([0.3], [1]),
        ],
    )
    def test_edge_inputs(self, scores, labels):
        for params in (P, CampaignParams(f=1.0, d=1.0, gamma=0.5)):
            for clv_avg in (1.0, 7.0, 85.0, np.inf, -np.inf):
                _same_mp(np.array(scores), np.array(labels), params, clv_avg)

    def test_exact_tie_parameters(self):
        params = CampaignParams(f=1.0, d=1.0, gamma=0.5)
        _same_mp(np.array([0.1, 0.5, 0.6, 0.9]), np.array([0, 1, 0, 1]), params, 7.0)

    @pytest.mark.parametrize(
        "scores, labels, clv_avg, want",
        [
            ([-np.inf, np.inf], [0, 1], 85.0, ((0.3 * (85.0 - 4.25) - 1.36) / 2, -np.inf)),  # -inf + inf
            ([0.2, 0.7], [0, 1], np.inf, (np.inf, 0.45)),  # inf * 0 churners
        ],
    )
    def test_nan_paths_warn_nothing(self, scores, labels, clv_avg, want):
        assert mp(np.array(scores), np.array(labels), P, clv_avg) == pytest.approx(want)

    @pytest.mark.parametrize(
        "scores", [[0.5, np.inf], [1e308, 1.5e308]], ids=["infinite-score", "overflowing-midpoint"]
    )
    def test_lower_score_stands_in_for_a_midpoint_that_is_not_finite(self, scores):
        # targeting the churner alone earns gain / 2; the midpoint, +inf, would target both
        gain = 0.3 * (85.0 - 4.25) - 1.36
        assert mp(np.array(scores), np.array([0, 1]), P, 85.0) == (gain / 2, scores[0])
        assert gain / 2 == pytest.approx(11.4325)

    @pytest.mark.parametrize("clv_avg", [np.inf, -np.inf])
    def test_campaign_without_churners_earns_no_churner_term(self, clv_avg):
        # targeting no churner earns 0 at t = -inf, as for a finite clv_avg
        assert mp(np.array([0.2, 0.7]), np.array([1, 1]), P, clv_avg) == (0.0, -np.inf)


class TestMsp:
    @pytest.mark.parametrize("q", [1, 2, 3, 7])
    def test_edges_are_the_training_segmentation(self, q):
        rng = np.random.default_rng(9)
        clvs = rng.uniform(5, 300, 20).round(0)  # rounded to tie CLVs
        result = msp(rng.uniform(0, 1, 20), rng.integers(0, 2, 20), clvs, q, P)
        assert np.array_equal(result.edges, oracles.segment_edges(clvs, oracles.quantile_segments(clvs, q)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_segments_and_edges_match_the_oracle_for_every_q(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        # a few distinct CLVs, so most segments start or end inside a run of ties
        clvs = np.array(data.draw(st.lists(st.sampled_from([1.0, 2.5, 7.0, 7.5, 300.0]), min_size=n, max_size=n)))
        scores = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=n, max_size=n)))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        for q in range(1, n + 1):
            expected = oracles.quantile_segments(clvs, q)
            segments = quantile_segments(clvs, q)
            assert len(segments) == q
            for s, rows in enumerate(segments):
                assert np.array_equal(rows, expected.indices(s))
            assert np.array_equal(msp(scores, labels, clvs, q, P).edges, oracles.segment_edges(clvs, expected))

    def test_q1_degenerates_to_mp(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            scores = rng.uniform(0, 1, n)
            labels = rng.integers(0, 2, n)
            clvs = rng.uniform(5, 300, n)
            result = msp(scores, labels, clvs, 1, P)
            value, t = mp(scores, labels, P, float(clvs.mean()))
            assert result.msp == pytest.approx(value, abs=1e-12)
            assert result.thresholds[0] == t

    def test_segmentwise_beats_global_on_split_instance(self):
        # low-CLV segment: targeting is never profitable; high-CLV
        # segment: target both churners. A single global threshold
        # cannot do both.
        scores = np.array([0.1, 0.2, 0.3, 0.9, 0.1, 0.2, 0.3, 0.9])
        labels = np.array([1, 0, 1, 1, 0, 0, 1, 1])
        clvs = np.array([20.0] * 4 + [200.0] * 4)
        result = msp(scores, labels, clvs, 2, P)
        mp_value, _ = mp(scores, labels, P, float(clvs.mean()))
        low_gain = P.gamma * (20.0 - P.d) - P.f
        high_gain = P.gamma * (200.0 - P.d) - P.f
        assert result.msp == pytest.approx((0.0 + 2 * high_gain / 4) / 2, abs=1e-12)
        assert result.msp > mp_value
        assert low_gain < P.d + P.f  # why the low segment stays empty

    def test_q_equals_n_is_per_customer_best_case(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(0, 1, 12)
        labels = rng.integers(0, 2, 12)
        clvs = rng.uniform(5, 300, 12)
        result = msp(scores, labels, clvs, 12, P)
        per_customer = [
            max(0.0, P.gamma * (c - P.d) - P.f) if y == 0 else 0.0 for y, c in zip(labels, clvs)
        ]
        assert result.msp == pytest.approx(float(np.mean(per_customer)), abs=1e-12)

    def test_matches_per_segment_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            q = int(rng.integers(1, min(n, 6) + 1))
            scores = rng.uniform(0, 1, n).round(2)
            labels = rng.integers(0, 2, n)
            clvs = rng.uniform(5, 300, n)
            result = msp(scores, labels, clvs, q, P)
            order = np.argsort(clvs, kind="stable")
            base, extra = divmod(n, q)
            start, maxima = 0, []
            for s in range(q):
                size = base + (1 if s < extra else 0)
                idx = order[start : start + size]
                start += size
                maxima.append(
                    brute_force_mp(scores[idx], labels[idx], P, float(clvs[idx].mean()))
                )
            assert result.msp == pytest.approx(float(np.mean(maxima)), abs=1e-12)

    def test_msp_dominates_mp_with_equal_segments(self):
        # Heterogeneous CLVs tied to churn propensity (the regime the
        # segment metric is built for): high-CLV customers score low.
        # With a shared CLV average, a single threshold cannot trade the
        # segments off, so per-segment optimization wins or ties.
        rng = np.random.default_rng(6)
        wins = 0
        for _ in range(100):
            q = int(rng.integers(2, 5))
            n = q * int(rng.integers(8, 21))
            labels = rng.integers(0, 2, n)
            scores = np.clip(0.35 * labels + 0.5 * rng.uniform(0, 1, n), 0, 1)
            clvs = 40 + 220 * (1 - scores) + rng.uniform(-10, 10, n)
            result = msp(scores, labels, clvs, q, P)
            mp_value, _ = mp(scores, labels, P, float(clvs.mean()))
            assert result.msp >= mp_value - 1e-9
            wins += result.msp > mp_value + 1e-9
        assert wins > 50  # per-segment thresholds genuinely help, not just tie

    def test_msp_equals_mp_value_or_better_with_constant_clv(self):
        # with one shared CLV the aggregation error vanishes and
        # domination is exact for every instance
        rng = np.random.default_rng(8)
        for _ in range(50):
            q = int(rng.integers(2, 5))
            n = q * int(rng.integers(3, 10))
            scores = rng.uniform(0, 1, n)
            labels = rng.integers(0, 2, n)
            clvs = np.full(n, 85.0)
            result = msp(scores, labels, clvs, q, P)
            mp_value, _ = mp(scores, labels, P, 85.0)
            assert result.msp >= mp_value - 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_segment_mean_clv_past_the_float_maximum_rejected(self):
        # 1e308 + 1.5e308 overflows, so the upper segment's mean CLV would be inf
        with pytest.raises(ValueError, match="segment 2 of 2: mean CLV is inf"):
            msp([0.1, 0.6, 0.2, 0.7], [0, 1, 0, 1], [1, 2, 1e308, 1.5e308], 2, P)
        # each value alone is finite, and so is a segment that holds it alone
        result = msp([0.1, 0.6, 0.2, 0.7], [0, 1, 0, 1], [1, 2, 1e308, 1.5e308], 4, P)
        assert np.isfinite(result.msp)


class TestAccuracy:
    def test_perfect_separation(self):
        assert accuracy(np.array([0.1, 0.2, 0.8, 0.9]) <= 0.5, [0, 0, 1, 1]) == 1.0

    def test_inverted_scores(self):
        assert accuracy(np.array([0.9, 0.8, 0.1, 0.2]) <= 0.5, [0, 0, 1, 1]) == 0.0

    def test_hand_count(self):
        assert accuracy(np.array([0.1, 0.9]) <= 0.5, [0, 0]) == 0.5


class TestTargetedFraction:
    def test_extremes(self):
        assert targeted_fraction([0, 0, 0]) == 0.0
        assert targeted_fraction([1, 1]) == 1.0

    def test_count(self):
        assert targeted_fraction([1, 0, 0, 1] + [0] * 7 + [1]) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            targeted_fraction([])
