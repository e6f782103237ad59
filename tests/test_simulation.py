import numpy as np
import pytest
from scipy.stats import kstest

from rankdyn import simulation
from rankdyn.bandwidth import BandwidthGrid
from rankdyn.dynamics import DecompositionResult, decompose_many
from rankdyn.errors import DegenerateSampleError, DomainError, GridMismatchError
from rankdyn.ranks import Bandwidths
from rankdyn.sample import presmooth
from rankdyn.simulation import (
    SimModel,
    basis_matrix,
    generate_sample,
    mise,
    model_pooled_std,
    run_monte_carlo,
    true_values,
)


class TestBasis:
    def test_piecewise_square_curve(self):
        psi, dpsi = basis_matrix(np.array([0.4, 0.5, 0.75]))
        assert psi[0, 0] == 0.0 and psi[1, 0] == 0.0
        assert psi[2, 0] == pytest.approx(6 * 0.25**2)
        assert dpsi[1, 0] == 0.0  # kink convention

    def test_sine_curve_values(self):
        psi, dpsi = basis_matrix(0.25)
        assert psi[3] == pytest.approx(2.0, abs=1e-15)
        assert dpsi[3] == pytest.approx(0.0, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(13)
        t = rng.uniform(0.005, 0.995, 200)
        t = t[np.abs(t - 0.5) > 1e-3]  # skip the curvature kink of psi_1
        h = 1e-6
        p_hi, _ = basis_matrix(t + h)
        p_lo, _ = basis_matrix(t - h)
        _, d = basis_matrix(t)
        for k in range(5):
            assert np.max(np.abs((p_hi[:, k] - p_lo[:, k]) / (2 * h) - d[:, k])) < 1e-5


class TestGenerate:
    def test_seed_determinism(self, model):
        a = generate_sample(model, 7, seed=123)
        b = generate_sample(model, 7, seed=123)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.sample.value_matrix(), b.sample.value_matrix())
        c = generate_sample(model, 7, seed=124)
        assert not np.array_equal(a.xi, c.xi)

    def test_dimensions(self, model):
        s = generate_sample(model, 9, seed=1)
        assert s.sample.value_matrix().shape == (9, model.m + 1)
        assert s.xi.shape == (9, 5)
        assert np.array_equal(s.sample.shared_grid, np.arange(model.m + 1) / model.m)

    def test_reconstruction_identity(self, model):
        s = generate_sample(model, 6, seed=5)
        psi, _ = basis_matrix(model.grid)
        rebuilt = s.xi @ psi.T
        assert np.max(np.abs(rebuilt - s.sample.value_matrix())) < 1e-12

    def test_score_moments_at_large_n(self):
        s = generate_sample(SimModel(m=2), 100_000, seed=31)
        assert abs(s.xi[:, 0].mean() - 1.4) < 0.02
        assert abs(s.xi[:, 0].std(ddof=1) - 1.7) < 0.02

    def test_model_validation(self):
        with pytest.raises(Exception):
            SimModel(sds=(1.0, -0.5, 1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            SimModel(m=1)


class TestTrueValues:
    def test_mean_scores_rank_half(self, model):
        r, _, _ = true_values(model, model.means, 0.4)
        assert r == pytest.approx(0.5, abs=1e-15)

    def test_shifted_score_raises_rank(self, model):
        xi = np.array(model.means)
        xi[0] += model.sds[0]
        r, _, _ = true_values(model, xi, 0.8)  # psi_1(0.8) > 0
        assert r > 0.5

    def test_rank_monotone_in_scores(self, model):
        t = 0.35
        psi, _ = basis_matrix(np.array([t]))
        rng = np.random.default_rng(40)
        for k in range(5):
            if psi[0, k] <= 0:
                continue
            xi = rng.normal(model.means, model.sds)
            lo, _, _ = true_values(model, xi, t)
            xi2 = xi.copy()
            xi2[k] += 0.5
            hi, _, _ = true_values(model, xi2, t)
            assert hi > lo

    def test_component_sum_matches_rank_derivative(self, model):
        rng = np.random.default_rng(17)
        h = 1e-5
        count = 0
        while count < 200:
            t = rng.uniform(0.01, 0.99)
            if abs(t - 0.5) < 3 * h:  # psi_1 curvature jumps at 0.5
                continue
            xi = rng.normal(model.means, model.sds)
            r_hi, _, _ = true_values(model, xi, t + h)
            r_lo, _, _ = true_values(model, xi, t - h)
            _, c1, c2 = true_values(model, xi, t)
            assert c1 + c2 == pytest.approx((r_hi - r_lo) / (2 * h), abs=1e-5)
            count += 1

    def test_true_ranks_uniform(self, model):
        s = generate_sample(model, 10_000, seed=3)
        r, _, _ = true_values(model, s.xi, 0.37)
        assert kstest(r, "uniform").statistic < 0.02

    def test_pooled_std_reference(self, model):
        assert model_pooled_std(model) == pytest.approx(1.674, abs=0.01)


class TestMise:
    def test_zero_for_exact_estimates(self, model):
        sim = generate_sample(model, 4, seed=2)
        grid = np.linspace(0.3, 0.7, 41)
        _, c1, c2 = true_values(model, sim.xi, grid)
        dec = DecompositionResult(sim.sample.ids, grid, c1, c2, c1 + c2)
        m1, m2 = mise(dec, model, sim.xi, h_max=0.3)
        assert m1 == 0.0 and m2 == 0.0

    def test_integration_domain(self, model):
        sim = generate_sample(model, 3, seed=2)
        grid = np.linspace(0.25, 0.75, 51)
        _, c1, c2 = true_values(model, sim.xi, grid)
        dec = DecompositionResult(sim.sample.ids, grid, c1 + 1.0, c2, c1 + 1.0 + c2)
        m1, m2 = mise(dec, model, sim.xi, h_max=0.3)
        # constant discrepancy of 1 integrated over [0.3, 0.7]
        assert m1 == pytest.approx(0.4, abs=1e-12)
        assert m2 == 0.0

    def test_coverage_error(self, model):
        sim = generate_sample(model, 3, seed=2)
        grid = np.linspace(0.4, 0.6, 21)
        _, c1, c2 = true_values(model, sim.xi, grid)
        dec = DecompositionResult(sim.sample.ids, grid, c1, c2, c1 + c2)
        with pytest.raises(GridMismatchError):
            mise(dec, model, sim.xi, h_max=0.3)

    def test_quadrature_against_fine_grid(self, model):
        # same discrepancy curve integrated on 101 trimmed points vs 10001:
        # perturbing the scores gives a closed-form pseudo-estimate
        sim = generate_sample(model, 20, seed=6)
        xi_pert = sim.xi + 0.15
        for points in (101,):
            full = np.linspace(0, 1, points)
            grid = full[(full >= 0.3 - 1e-12) & (full <= 0.7 + 1e-12)]
            _, c1p, c2p = true_values(model, xi_pert, grid)
            dec = DecompositionResult(sim.sample.ids, grid, c1p, c2p, c1p + c2p)
            m1_c, m2_c = mise(dec, model, sim.xi, h_max=0.3)
        fine = np.linspace(0.3, 0.7, 10001)
        _, c1f, c2f = true_values(model, xi_pert, fine)
        _, c1t, c2t = true_values(model, sim.xi, fine)
        m1_f = np.trapezoid((c1f - c1t) ** 2, fine, axis=1).mean()
        m2_f = np.trapezoid((c2f - c2t) ** 2, fine, axis=1).mean()
        assert abs(m1_c - m1_f) / m1_f < 0.01
        assert abs(m2_c - m2_f) / m2_f < 0.01


class TestMonteCarlo:
    def test_single_pair_grid(self, model):
        grid = BandwidthGrid([Bandwidths(1.0, 0.25)])
        rep = run_monte_carlo(model, [10], runs=1, grid=grid, base_seed=4)
        (row,) = rep.rows
        assert (row.h_y_cv, row.h_t_cv) == (row.h_y_opt, row.h_t_opt) == (1.0, 0.25)
        assert row.mise_c1_cv == row.mise_c1_opt

    def test_rerun_reproduces_report(self, model):
        grid = BandwidthGrid([Bandwidths(1.2, 0.25), Bandwidths(0.8, 0.25)])
        a = run_monte_carlo(model, [8], runs=2, grid=grid, base_seed=9)
        b = run_monte_carlo(model, [8], runs=2, grid=grid, base_seed=9)
        assert a.rows == b.rows

    def test_parallel_matches_serial(self, model):
        grid = BandwidthGrid([Bandwidths(1.2, 0.25)])
        serial = run_monte_carlo(model, [8], runs=2, grid=grid, base_seed=9, workers=1)
        parallel = run_monte_carlo(model, [8], runs=2, grid=grid, base_seed=9, workers=2)
        assert serial.rows == parallel.rows

    def test_pool_never_exceeds_the_task_count(self, model, monkeypatch):
        # a stand-in pool: it records its size and maps in this process, so no
        # worker is started whatever the worker count asks for
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        grid = BandwidthGrid([Bandwidths(1.2, 0.25)])
        serial = run_monte_carlo(model, [8], runs=2, grid=grid, base_seed=9)
        pooled = run_monte_carlo(model, [8], runs=2, grid=grid, base_seed=9, workers=5000)
        assert sizes == [2]
        assert pooled.rows == serial.rows
        run_monte_carlo(model, [8], runs=1, grid=grid, base_seed=9, workers=5000)
        assert sizes == [2]  # one task runs in this process, without a pool

    def test_truth_is_evaluated_once_per_replicate(self, model, monkeypatch):
        # every pair's decomposition shares the h_max-trimmed grid, so one truth
        # serves all MISEs and one more the rank statistics; the MISEs are
        # those of ``mise`` called per pair
        calls = []
        real = simulation.true_values

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(simulation, "true_values", counting)
        grid = BandwidthGrid.geometric(steps=2)
        (row,) = run_monte_carlo(model, [12], runs=1, grid=grid, base_seed=3).rows
        assert len(calls) == 2
        monkeypatch.undo()
        sim = generate_sample(model, 12, seed=3)
        smoothed = presmooth(sim.sample, h_d=0.1, eval_grid_size=101)
        decomps = decompose_many(sim.sample, smoothed, grid.pairs, trim=grid.h_max)
        by_pair = {bw: mise(d, model, sim.xi, grid.h_max) for bw, d in zip(grid.pairs, decomps)}
        assert (row.mise_c1_cv, row.mise_c2_cv) == by_pair[Bandwidths(row.h_y_cv, row.h_t_cv)]
        assert (row.mise_c1_opt, row.mise_c2_opt) == by_pair[Bandwidths(row.h_y_opt, row.h_t_opt)]

    def test_mise_integrates_over_the_decomposition_grid(self, model):
        # h_max = 0.25 is no point of the 40-point grid {j/39}: the MISEs are
        # trapezoid sums over the 20 points inside [0.25, 0.75]
        bw = Bandwidths(1.2, 0.25)
        (row,) = run_monte_carlo(model, [8], runs=1, grid=BandwidthGrid([bw]), eval_points=40).rows
        assert all(np.isfinite(v) for v in vars(row).values())
        sim = generate_sample(model, 8, seed=0)
        full = np.linspace(0.0, 1.0, 40)
        grid = full[(full >= 0.25) & (full <= 0.75)]
        assert grid.size == 20 and grid[0] > 0.25
        dec = decompose_many(sim.sample, presmooth(sim.sample, h_d=0.1, eval_grid_size=40), [bw])[0]
        np.testing.assert_array_equal(dec.trimmed_grid, grid)
        _, c1, c2 = true_values(model, sim.xi, grid)
        m1 = np.trapezoid((dec.c1 - c1) ** 2, grid, axis=1).mean()
        m2 = np.trapezoid((dec.c2 - c2) ** 2, grid, axis=1).mean()
        assert (row.mise_c1_cv, row.mise_c2_cv) == (row.mise_c1_opt, row.mise_c2_opt)
        assert row.mise_c1_cv == pytest.approx(m1, rel=1e-12)
        assert row.mise_c2_cv == pytest.approx(m2, rel=1e-12)

    def test_a_one_point_decomposition_grid_is_refused(self, model):
        # {0, 0.5, 1} trimmed by 0.25 leaves 0.5 alone: no integral, no row of zeros
        grid = BandwidthGrid([Bandwidths(1.2, 0.25)])
        with pytest.raises(DegenerateSampleError, match="fewer than two evaluation points"):
            run_monte_carlo(model, [8], runs=1, grid=grid, eval_points=3)

    def test_report_helpers(self, model):
        grid = BandwidthGrid([Bandwidths(1.0, 0.25)])
        rep = run_monte_carlo(model, [8, 12], runs=3, grid=grid, base_seed=1)
        assert len(rep.rows) == 6
        assert len(rep.filter(8)) == 3
        assert rep.median_cv_ratio(8) == 1.0
        errs = rep.median_stat_errors(12)
        assert set(errs) == {"rho", "nu", "zeta"}
        assert all(v >= 0 for v in errs.values())

    def test_runs_validation(self, model):
        with pytest.raises(DomainError):
            run_monte_carlo(model, [5], runs=0)
