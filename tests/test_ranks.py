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
from rankdyn.kernels import BIWEIGHT, EPANECHNIKOV
from rankdyn.ranks import _estimates
from reference import naive_empirical_ranks, naive_smooth_cdf


class TestBandwidths:
    def test_validation(self):
        Bandwidths(1.0, 0.2)
        with pytest.raises(DomainError):
            Bandwidths(-1.0, 0.2)
        with pytest.raises(DomainError):
            Bandwidths(1.0, 0.5)
        with pytest.raises(DomainError):
            Bandwidths(1.0, 0.0)

    @pytest.mark.parametrize("h_y, h_t, message", [
        (float("inf"), 0.2, "h_y must be positive and finite, got inf"),
        (float("nan"), 0.2, "h_y must be positive and finite, got nan"),
        (1.0, float("inf"), "h_t must lie in (0, 0.5), got inf"),
        (1.0, float("nan"), "h_t must lie in (0, 0.5), got nan"),
    ])
    def test_non_finite_values_are_named(self, h_y, h_t, message):
        with pytest.raises(DomainError) as info:
            Bandwidths(h_y, h_t)
        assert str(info.value) == message

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

    def test_tie_heavy_columns_match_the_count_per_column(self):
        # three levels over 40 subjects, signed zeros, whole tied columns and
        # a requested grid that repeats and reorders points
        rng = np.random.default_rng(11)
        grid = np.linspace(0, 1, 9)
        vals = rng.integers(-1, 2, size=(40, 9)).astype(float)
        vals[rng.random(vals.shape) < 0.2] *= -1.0  # flips 0.0 to -0.0 too
        vals[:, 4] = 2.5
        vals[:7, 6] = -1e300
        s = FunctionalSample.from_matrix(grid, vals)
        rk = empirical_ranks(s)
        assert np.array_equal(rk.ranks, np.array(naive_empirical_ranks(vals.tolist())))
        pick = [8, 0, 4, 4, 2]
        sub = empirical_ranks(s, eval_grid=grid[pick])
        assert np.array_equal(sub.ranks, rk.ranks[:, pick])

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

    def test_shuffled_grid_keeps_its_order(self, sim50):
        smoothed = presmooth(sim50.sample, h_d=0.12, eval_grid_size=101)
        bw = Bandwidths(0.5, 0.0648)
        ascending = smooth_ranks(smoothed, bw)
        shuffled = np.random.default_rng(3).permutation(smoothed.eval_grid)
        rk = smooth_ranks(smoothed, bw, eval_grid=shuffled)
        assert np.array_equal(rk.eval_grid, shuffled[np.isin(shuffled, ascending.eval_grid)])
        cols = np.searchsorted(ascending.eval_grid, rk.eval_grid)
        assert np.array_equal(rk.ranks, ascending.ranks[:, cols])

    @pytest.mark.parametrize("kernel", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
    def test_cdf_only_engine_call_matches_the_full_one(self, sim50, kernel):
        # smooth_ranks asks the engine for F alone; the call that also builds
        # the partials must give the same F
        bw = Bandwidths(0.52, 0.0648)
        rk = smooth_ranks(sim50.sample, bw, kernel=kernel)
        vals = sim50.sample.value_matrix()[:, np.searchsorted(sim50.sample.shared_grid, rk.eval_grid)]
        [(f, d1, _)] = _estimates(sim50.sample, kernel, [bw], rk.eval_grid, vals)
        assert d1 is not None
        np.testing.assert_allclose(rk.ranks, np.clip(f, 0.0, 1.0), rtol=0.0, atol=1e-14)

    def test_mean_rank_near_half(self, sim200):
        bw = default_bandwidths(sim200.sample)
        rk = smooth_ranks(sim200.sample, bw)
        keep = (rk.eval_grid >= 0.3) & (rk.eval_grid <= 0.7)
        means = rk.ranks[:, keep].mean(axis=0)
        assert np.all(np.abs(means - 0.5) < 0.05)
