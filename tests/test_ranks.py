import numpy as np
import pytest

from conftest import constant_sample
from rankdyn.errors import (
    BoundaryError,
    DataError,
    DomainError,
    EvaluationError,
    InsufficientDataError,
)
from rankdyn.ranks import (
    Bandwidths,
    RankTrajectories,
    default_bandwidths,
    empirical_ranks,
    smooth_cdf,
    smooth_ranks,
)
from rankdyn.sample import FunctionalSample, pooled_std, presmooth
from reference import naive_smooth_cdf


class TestBandwidths:
    def test_validation(self):
        Bandwidths(1.0, 0.2)
        with pytest.raises(DomainError):
            Bandwidths(-1.0, 0.2)
        with pytest.raises(DomainError):
            Bandwidths(1.0, 0.5)
        with pytest.raises(DomainError):
            Bandwidths(1.0, 0.0)

    def test_default_rule(self, sim50):
        bw = default_bandwidths(sim50.sample)
        rate = 50 ** (-0.25)
        assert bw.h_t == pytest.approx(0.3 * rate)
        assert bw.h_y == pytest.approx(pooled_std(sim50.sample) * rate)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_ranks_rejected(bad):
    with pytest.raises(DataError, match="finite"):
        RankTrajectories(["a", "b"], [0, 1], [[0.5, bad], [0.5, 0.5]], "empirical")


class TestEmpiricalRanks:
    def test_three_constants(self):
        rk = empirical_ranks(constant_sample([1.0, 2.0, 3.0]))
        assert np.allclose(rk.ranks[0], 0.0)
        assert np.allclose(rk.ranks[1], 1 / 3)
        assert np.allclose(rk.ranks[2], 2 / 3)

    def test_tied_pair(self):
        rk = empirical_ranks(constant_sample([4.0, 4.0]))
        assert np.all(rk.ranks == 0.5)

    def test_crossing_lines(self):
        grid = np.linspace(0, 1, 5)
        s = FunctionalSample.from_matrix(grid, np.vstack([grid, 1 - grid]))
        rk = empirical_ranks(s, eval_grid=[0.75])
        assert rk.ranks[0, 0] == 0.5  # t curve is on top, ties with itself excluded
        assert rk.ranks[1, 0] == 0.0

    def test_permutation_without_ties(self, sim50):
        rk = empirical_ranks(sim50.sample)
        n = sim50.sample.n
        expected = np.arange(n) / n
        for g in range(rk.eval_grid.size):
            assert np.array_equal(np.sort(rk.ranks[:, g]), expected)

    def test_invariance_under_increasing_transform(self, sim50):
        base = empirical_ranks(sim50.sample)
        warped = FunctionalSample(
            list(sim50.sample.ids),
            [t.copy() for t in sim50.sample.times],
            [np.exp(0.5 * v) + v**3 for v in sim50.sample.values],
        )
        assert np.array_equal(base.ranks, empirical_ranks(warped).ranks)

    def test_needs_two_subjects(self):
        grid = np.linspace(0, 1, 5)
        s = FunctionalSample.from_matrix(grid, np.zeros((1, 5)))
        with pytest.raises(DataError):
            empirical_ranks(s)

    def test_off_grid_evaluation_rejected(self):
        with pytest.raises(EvaluationError):
            empirical_ranks(constant_sample([1.0, 2.0]), eval_grid=[0.123456])


class TestSmoothCdf:
    def test_single_subject_far_above(self):
        grid = np.linspace(0, 1, 33)
        s = FunctionalSample.from_matrix(grid, np.full((1, 33), 2.0))
        assert smooth_cdf(s, Bandwidths(0.5, 0.2), y=5.0, t=0.5) == 1.0

    def test_two_constants_midpoint(self):
        s = constant_sample([1.0, 3.0])
        # H(a/h) + H(-a/h) = 1 regardless of the bandwidth
        for h_y in (0.4, 1.0, 3.0):
            assert smooth_cdf(s, Bandwidths(h_y, 0.2), y=2.0, t=0.5) == pytest.approx(
                0.5, abs=1e-15
            )

    def test_matches_naive_double_sum(self, sim50):
        bw = Bandwidths(0.8, 0.2)
        ours = smooth_cdf(sim50.sample, bw, y=0.0, t=0.5)
        ref = naive_smooth_cdf(sim50.sample.times, sim50.sample.values, 0.8, 0.2, 0.0, 0.5)
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_monotone_in_y(self, sim50):
        rng = np.random.default_rng(10)
        bw = Bandwidths(0.7, 0.25)
        for _ in range(100):
            t = rng.uniform(0.25, 0.75)
            y1 = rng.uniform(-3, 8)
            y2 = y1 + rng.uniform(0, 3)
            f1 = smooth_cdf(sim50.sample, bw, y1, t)
            f2 = smooth_cdf(sim50.sample, bw, y2, t)
            assert f2 >= f1 - 1e-12

    def test_exact_tails(self, sim50):
        allv = np.concatenate(sim50.sample.values)
        bw = Bandwidths(0.6, 0.2)
        assert smooth_cdf(sim50.sample, bw, allv.min() - 0.6, 0.5) == 0.0
        assert smooth_cdf(sim50.sample, bw, allv.max() + 0.6, 0.5) == 1.0

    def test_boundary_strip_guard(self):
        s = constant_sample([1.0, 2.0])
        with pytest.raises(BoundaryError):
            smooth_cdf(s, Bandwidths(0.5, 0.2), y=1.5, t=0.05)
        smooth_cdf(s, Bandwidths(0.5, 0.2), y=1.5, t=0.05, allow_boundary=True)

    def test_no_local_data(self):
        s = FunctionalSample(
            ["a"], [np.array([0.25, 0.75])], [np.array([1.0, 2.0])]
        )
        with pytest.raises(InsufficientDataError):
            smooth_cdf(s, Bandwidths(0.5, 0.1), y=1.0, t=0.5)


class TestSmoothRanks:
    def test_two_constants_lower_curve(self):
        rk = smooth_ranks(constant_sample([1.0, 3.0]), Bandwidths(0.5, 0.2))
        assert np.allclose(rk.ranks[0], 0.25, atol=1e-14)
        assert np.allclose(rk.ranks[1], 0.75, atol=1e-14)

    def test_grid_is_trimmed(self):
        rk = smooth_ranks(constant_sample([1.0, 3.0]), Bandwidths(0.5, 0.2))
        assert rk.eval_grid[0] >= 0.2 - 1e-12
        assert rk.eval_grid[-1] <= 0.8 + 1e-12
        assert rk.method == "smooth"

    def test_ranks_in_unit_interval(self, sim50):
        rk = smooth_ranks(sim50.sample, Bandwidths(0.5, 0.1))
        assert rk.ranks.min() >= 0.0 and rk.ranks.max() <= 1.0

    def test_not_invariant_under_nonlinear_transform(self, sim50):
        bw = Bandwidths(0.8, 0.2)
        base = smooth_ranks(sim50.sample, bw)
        warped = FunctionalSample(
            list(sim50.sample.ids),
            [t.copy() for t in sim50.sample.times],
            [np.exp(0.4 * v) for v in sim50.sample.values],
        )
        other = smooth_ranks(warped, bw)
        assert np.max(np.abs(base.ranks - other.ranks)) > 1e-3

    def test_smoothed_source(self, sim50):
        smoothed = presmooth(sim50.sample, h_d=0.12, eval_grid_size=101)
        rk = smooth_ranks(smoothed, Bandwidths(0.8, 0.2))
        assert rk.ranks.shape[0] == 50
        assert rk.ranks.min() >= 0.0 and rk.ranks.max() <= 1.0

    def test_mean_rank_near_half(self, sim200):
        bw = default_bandwidths(sim200.sample)
        rk = smooth_ranks(sim200.sample, bw)
        keep = (rk.eval_grid >= 0.3) & (rk.eval_grid <= 0.7)
        means = rk.ranks[:, keep].mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.05)
