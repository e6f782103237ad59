import numpy as np
import pytest

from conftest import constant_sample
from rankdyn import _engine
from rankdyn.dynamics import (
    ComponentContributions,
    DecompositionResult,
    contributions,
    decompose,
    decompose_many,
    estimate_partials,
)
from rankdyn.errors import BoundaryError, DegenerateSampleError, DomainError
from rankdyn.kernels import EPANECHNIKOV
from rankdyn.ranks import Bandwidths, smooth_cdf
from rankdyn.sample import FunctionalSample, presmooth
from reference import naive_partials


class TestEstimatePartials:
    def test_flat_curves_symmetric_grid(self):
        # constant curves, grid symmetric about 0.5: the K' sums cancel pairwise
        s = constant_sample([0.5, 1.5, 2.5], grid_size=33)
        d1, d2 = estimate_partials(s, Bandwidths(1.0, 0.25), y=1.0, t=0.5)
        assert abs(d1) < 1e-14
        assert d2 >= 0.0

    def test_d2_nonnegative(self, sim50):
        rng = np.random.default_rng(21)
        bw = Bandwidths(0.7, 0.2)
        for _ in range(200):
            t = rng.uniform(0.2, 0.8)
            y = rng.uniform(-4.0, 10.0)
            _, d2 = estimate_partials(sim50.sample, bw, y, t)
            assert d2 >= 0.0

    def test_d1_matches_time_derivative_of_cdf(self, sim50):
        rng = np.random.default_rng(22)
        bw = Bandwidths(0.9, 0.22)
        delta = 1e-5
        for _ in range(20):
            t = rng.uniform(0.25, 0.75)
            y = rng.uniform(-2.0, 8.0)
            d1, _ = estimate_partials(sim50.sample, bw, y, t)
            fd = (
                smooth_cdf(sim50.sample, bw, y, t + delta)
                - smooth_cdf(sim50.sample, bw, y, t - delta)
            ) / (2 * delta)
            assert d1 == pytest.approx(fd, abs=1e-4)

    def test_matches_naive_formulas(self, tiny_sample):
        d1, d2 = estimate_partials(tiny_sample, Bandwidths(0.8, 0.3), y=0.6, t=0.45)
        r1, r2 = naive_partials(tiny_sample.times, tiny_sample.values, 0.8, 0.3, 0.6, 0.45)
        assert d1 == pytest.approx(r1, abs=1e-12)
        assert d2 == pytest.approx(r2, abs=1e-12)

    def test_boundary_guard(self, tiny_sample):
        with pytest.raises(BoundaryError):
            estimate_partials(tiny_sample, Bandwidths(0.8, 0.3), y=0.5, t=0.1)

    def test_chain_rule_holds_for_biweight(self, sim50):
        from rankdyn.kernels import BIWEIGHT

        bw = Bandwidths(0.9, 0.22)
        delta = 1e-5
        rng = np.random.default_rng(31)
        for _ in range(10):
            t = rng.uniform(0.25, 0.75)
            y = rng.uniform(-1.0, 6.0)
            d1, d2 = estimate_partials(sim50.sample, bw, y, t, kernel=BIWEIGHT)
            fd = (
                smooth_cdf(sim50.sample, bw, y, t + delta, kernel=BIWEIGHT)
                - smooth_cdf(sim50.sample, bw, y, t - delta, kernel=BIWEIGHT)
            ) / (2 * delta)
            assert d1 == pytest.approx(fd, abs=1e-4)

    def test_q4_antisymmetry_at_center(self, sim50):
        flat = _engine.flatten_sample(sim50.sample)
        [(_, _, _, q4, _)] = _engine.qbar_grid(flat, EPANECHNIKOV, [(0.8, 0.25)], [0.5], [[0.0]])
        assert abs(q4[0]) < 1e-12


class TestDecompose:
    def test_flat_population(self):
        s = constant_sample([0.0, 1.0, 2.0, 3.0], grid_size=33)
        sm = presmooth(s, h_d=0.2, eval_grid_size=41)
        dec = decompose(s, sm, Bandwidths(1.0, 0.25))
        mid = np.argmin(np.abs(dec.trimmed_grid - 0.5))
        assert np.max(np.abs(dec.c2[:, mid])) < 1e-10
        assert np.max(np.abs(dec.c1[:, mid])) < 1e-12
        assert np.max(np.abs(dec.rprime[:, mid])) < 1e-10

    def test_rprime_is_exact_sum(self, sim50):
        sm = presmooth(sim50.sample, h_d=0.12)
        dec = decompose(sim50.sample, sm, Bandwidths(0.8, 0.2))
        assert np.array_equal(dec.rprime, dec.c1 + dec.c2)
        assert np.all(np.isfinite(dec.c1)) and np.all(np.isfinite(dec.c2))

    def test_constant_rank_parallel_family(self):
        # Y_i = c_i + sin(2 pi t): every rank is constant, so C1 = -C2;
        # dense grid keeps the Riemann error of the K' sums small
        n = 50
        grid = np.linspace(0, 1, 401)
        offsets = np.linspace(0.0, 2.0, n)
        s = FunctionalSample.from_matrix(
            grid, offsets[:, None] + np.sin(2 * np.pi * grid)[None, :]
        )
        sm = presmooth(s, h_d=0.10)
        from rankdyn.ranks import default_bandwidths

        dec = decompose(s, sm, default_bandwidths(s))
        ratio = np.mean(np.abs(dec.c1 + dec.c2)) / np.mean(np.abs(dec.c2))
        assert ratio < 0.05

    def test_trim_modes(self, sim50):
        sm = presmooth(sim50.sample, h_d=0.12)
        bw = Bandwidths(0.8, 0.2)
        auto = decompose(sim50.sample, sm, bw)
        assert auto.trimmed_grid[0] >= 0.2 - 1e-12
        wide = decompose(sim50.sample, sm, bw, trim=0.3)
        assert wide.trimmed_grid[0] >= 0.3 - 1e-12
        with pytest.raises(DomainError):
            decompose(sim50.sample, sm, bw, trim=0.1)  # smaller than h_t

    def test_many_matches_single(self, sim50):
        sm = presmooth(sim50.sample, h_d=0.12)
        pairs = [Bandwidths(0.9, 0.25), Bandwidths(0.5, 0.12)]
        batch = decompose_many(sim50.sample, sm, pairs, trim=0.25)
        for bw, got in zip(pairs, batch):
            single = decompose(sim50.sample, sm, bw, trim=0.25)
            assert np.allclose(got.c1, single.c1, atol=1e-13)
            assert np.allclose(got.c2, single.c2, atol=1e-13)

    def test_mismatched_smoothed_rejected(self, sim50, tiny_sample):
        sm = presmooth(tiny_sample, h_d=0.6)
        with pytest.raises(Exception):
            decompose(sim50.sample, sm, Bandwidths(0.8, 0.2))

    def test_strict_vs_marked_on_local_gaps(self):
        # dense-regular m=4 grid whose largest hole leaves t=0.4 without data
        # inside an h_t=0.1 window
        from rankdyn.errors import InsufficientDataError

        grid = np.array([0.05, 0.3, 0.55, 0.8])
        s = FunctionalSample.from_matrix(grid, np.vstack([np.zeros(4), np.ones(4)]))
        sm = presmooth(s, h_d=0.75, eval_grid_size=21)
        bw = Bandwidths(0.5, 0.1)
        # the first trimmed grid time without data: 0.15 lies just over h_t from 0.05
        with pytest.raises(InsufficientDataError, match=r"h_t=0\.1 of t=(np\.float64\()?0\.1500"):
            decompose(s, sm, bw)
        # with several pairs, the first such time names the first pair without data there
        with pytest.raises(InsufficientDataError, match=r"h_t=0\.08 of t=(np\.float64\()?0\.1500"):
            decompose_many(s, sm, [Bandwidths(0.5, 0.08), bw])


class TestContributions:
    @staticmethod
    def _result(c1, c2):
        grid = np.linspace(0.2, 0.8, c1.shape[1])
        return DecompositionResult(
            [f"s{i}" for i in range(c1.shape[0])], grid, c1, c2, c1 + c2
        )

    def test_population_only(self):
        c1 = np.ones((3, 11))
        c2 = np.zeros((3, 11))
        lam = contributions(self._result(c1, c2))
        assert lam == ComponentContributions(1.0, 0.0)

    def test_equal_magnitudes(self):
        rng = np.random.default_rng(5)
        c1 = rng.normal(size=(4, 21))
        c2 = -c1
        lam = contributions(self._result(c1, c2))
        assert lam.lambda1 == pytest.approx(0.5, abs=1e-15)

    def test_sum_is_exactly_one(self, sim50):
        sm = presmooth(sim50.sample, h_d=0.12)
        dec = decompose(sim50.sample, sm, Bandwidths(0.8, 0.2))
        lam = contributions(dec)
        assert lam.lambda1 + lam.lambda2 == 1.0
        assert 0.0 <= lam.lambda1 <= 1.0

    def test_degenerate(self):
        zero = np.zeros((2, 5))
        with pytest.raises(DegenerateSampleError):
            contributions(self._result(zero, zero))

    def test_one_trimmed_point_is_not_a_flat_population(self):
        one = np.ones((2, 1))
        with pytest.raises(DegenerateSampleError, match=r"fewer than two evaluation points remain inside \[trim, 1 - trim\]"):
            contributions(self._result(one, one))
