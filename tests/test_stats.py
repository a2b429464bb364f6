"""Rank machinery and the Friedman/Nemenyi/Holm protocol.

The twelve-method reference values (average ranks, pairwise p-values,
reject pattern) are the published benchmark figures this module must
reproduce; scipy serves as an independent oracle for the special
functions, which the package implements itself.
"""

import numpy as np
import pytest
import scipy.stats as sstats
from hypothesis import given, settings
from hypothesis import strategies as st

from churnopt.stats import (
    average_ranks,
    compare_methods,
    f_sf,
    friedman_iman_davenport,
    holm,
    nemenyi_z,
    normal_cdf,
    rank_methods,
)

from reference import (
    MONTHS,
    PUBLISHED_AVG_RANKS,
    REFERENCE_METHODS,
    REFERENCE_PROFITS,
    REJECTED_METHODS,
)

# published average ranks in ascending order (best first)
REFERENCE_RANKS = sorted(PUBLISHED_AVG_RANKS.values())


class TestSpecialFunctions:
    def test_normal_cdf_against_scipy(self):
        for z in np.linspace(-8, 8, 161):
            assert normal_cdf(z) == pytest.approx(sstats.norm.cdf(z), abs=1e-12)

    def test_f_sf_against_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d1 = float(rng.integers(1, 40))
            d2 = float(rng.integers(1, 200))
            x = float(rng.uniform(0, 8))
            assert f_sf(x, d1, d2) == pytest.approx(sstats.f.sf(x, d1, d2), rel=1e-9, abs=1e-12)

    def test_f_sf_closed_form_2_2(self):
        # F(2,2) has sf(x) = 1/(1+x)
        for x in (0.5, 1.0, 4.0, 10.0):
            assert f_sf(x, 2, 2) == pytest.approx(1 / (1 + x), rel=1e-12)

    def test_f_sf_edges(self):
        assert f_sf(0.0, 3, 5) == 1.0
        assert f_sf(-1.0, 3, 5) == 1.0
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 5)


class TestRanks:
    def test_strict_order(self):
        assert average_ranks(np.array([30.0, 10.0, 20.0])).tolist() == [1.0, 3.0, 2.0]

    def test_two_way_tie_for_best(self):
        assert average_ranks(np.array([5.0, 5.0, 1.0])).tolist() == [1.5, 1.5, 3.0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3).map(float),  # small integers: ties in most draws
                st.sampled_from([0.0, -0.0, 0.5, -0.5]),
                st.floats(allow_nan=False),
            ),
            max_size=40,
        )
    )
    def test_matches_scipy_rankdata(self, values):
        x = np.array(values, dtype=float)
        np.testing.assert_array_equal(average_ranks(x), sstats.rankdata(-x, method="average"))

    def test_signed_zeros_tie(self):
        assert average_ranks(np.array([0.0, -0.0, 1.0])).tolist() == [2.5, 2.5, 1.0]

    def test_rank_sums(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k, n = int(rng.integers(2, 10)), int(rng.integers(2, 8))
            profits = rng.integers(0, 4, size=(k, n)).astype(float)  # ties likely
            table = rank_methods(profits, [f"m{i}" for i in range(k)], [f"d{j}" for j in range(n)])
            assert np.allclose(table.ranks.sum(axis=0), k * (k + 1) / 2)

    def test_reference_month_puts_top_method_first(self):
        table = rank_methods(REFERENCE_PROFITS, REFERENCE_METHODS, MONTHS)
        assert table.ranks[0, MONTHS.index("jan")] == 1.0
        assert table.best_method() == 0

    def test_reference_avg_ranks_match_published(self):
        table = rank_methods(REFERENCE_PROFITS, REFERENCE_METHODS, MONTHS)
        for m, r in zip(table.methods, table.avg_ranks):
            assert r == pytest.approx(PUBLISHED_AVG_RANKS[m], abs=0.05)

    def test_missing_cells_rejected(self):
        profits = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(ValueError, match="missing"):
            rank_methods(profits, ["a", "b"], ["d1", "d2"])

    def test_repeated_method_rejected(self):
        profits = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=r"method name\(s\) \['a'\] appear more than once"):
            rank_methods(profits, ["a", "a", "b", "c"], ["d1", "d2"])


class TestFriedman:
    def test_published_value(self):
        result = friedman_iman_davenport(REFERENCE_RANKS, 12)
        assert result["f_stat"] == pytest.approx(4.1018, abs=0.06)
        assert result["p_value"] < 0.0001
        assert result["df"] == [11, 121]

    def test_no_disagreement_gives_zero_chi2(self):
        result = friedman_iman_davenport([2.0, 2.0, 2.0], 5)
        assert result["chi2"] == pytest.approx(0.0, abs=1e-12)
        assert result["f_stat"] == 0.0
        assert result["p_value"] == 1.0

    def test_hand_sized_instance(self):
        # datasets rank the 3 methods (1,2,3), (1,2,3), (2,1,3):
        # avg ranks (4/3, 5/3, 3), chi2 = 14/3, F = 7
        avg = [4 / 3, 5 / 3, 3.0]
        result = friedman_iman_davenport(avg, 3)
        assert result["chi2"] == pytest.approx(14 / 3, rel=1e-12)
        assert result["f_stat"] == pytest.approx(7.0, rel=1e-12)
        assert result["p_value"] == pytest.approx((1 + 7.0 / 2) ** -2, rel=1e-9)  # F(2,4) tail

    def test_perfectly_consistent_ranks_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            friedman_iman_davenport([1.0, 2.0, 3.0], 4)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="3 methods"):
            friedman_iman_davenport([1.0, 2.0], 5)
        with pytest.raises(ValueError, match="2 datasets"):
            friedman_iman_davenport([1.0, 2.0, 3.0], 1)


class TestNemenyi:
    def test_published_pairs(self):
        _, p = nemenyi_z(2.7917, 4.4167, 12, 12)
        assert p == pytest.approx(0.2696, abs=0.003)
        _, p = nemenyi_z(2.7917, 5.0833, 12, 12)
        assert p == pytest.approx(0.1195, abs=0.003)

    def test_equal_ranks(self):
        z, p = nemenyi_z(3.0, 3.0, 12, 12)
        assert z == 0.0 and p == 1.0

    def test_unit_z(self):
        k, n = 12, 12
        se = np.sqrt(k * (k + 1) / (6 * n))
        z, p = nemenyi_z(2.0, 2.0 + se, n, k)
        assert z == pytest.approx(1.0, rel=1e-12)
        assert p == pytest.approx(0.3173, abs=1e-4)


class TestHolm:
    def test_thresholds(self):
        judged = holm([0.2, 0.01, 0.001], alpha=0.05)
        assert [t for t, _ in judged] == pytest.approx([0.05, 0.025, 0.05 / 3])

    def test_all_ones_never_reject(self):
        assert all(not rej for _, rej in holm([1.0] * 5, alpha=0.05))

    def test_published_pattern(self):
        ps = [nemenyi_z(REFERENCE_RANKS[0], r, 12, 12)[1] for r in REFERENCE_RANKS[1:]]
        judged = holm(ps, alpha=0.05)
        assert [rej for _, rej in judged] == [False] * 4 + [True] * 7

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            holm([0.5], alpha=0.0)


class TestCompareMethods:
    def test_full_protocol_reproduces_reject_set(self):
        table = rank_methods(REFERENCE_PROFITS, REFERENCE_METHODS, MONTHS)
        report = compare_methods(table, alpha=0.05)
        assert report["best"] == "regret_net"
        assert {c["method"] for c in report["comparisons"] if c["outcome"] == "reject"} == REJECTED_METHODS
        thresholds = [c["threshold"] for c in report["comparisons"]]
        assert thresholds == sorted(thresholds, reverse=True)
        assert thresholds[:3] == pytest.approx([0.0500, 0.0250, 0.0167], abs=5e-5)

    def test_identical_columns_reject_nothing(self):
        profits = np.tile(np.array([[3.0], [3.0], [3.0]]), (1, 4))
        table = rank_methods(profits, ["a", "b", "c"], list("wxyz"))
        report = compare_methods(table)
        assert tuple(c["method"] for c in report["comparisons"] if c["outcome"] == "reject") == ()
        result = friedman_iman_davenport(table.avg_ranks, 4)
        assert result["p_value"] == 1.0
