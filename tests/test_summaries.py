import math

import numpy as np
import pytest

from rankdyn.dynamics import DecompositionResult, decompose
from rankdyn.errors import DegenerateSampleError, GridMismatchError
from rankdyn.ranks import RankTrajectories, default_bandwidths, smooth_ranks
from rankdyn.sample import FunctionalSample, presmooth
from rankdyn.simulation import SimModel, generate_sample, true_values
from rankdyn.summaries import population_summaries, subject_summaries


def _ranks(grid, matrix):
    ids = [f"s{i}" for i in range(matrix.shape[0])]
    return RankTrajectories(ids, grid, matrix, "smooth")


def _decomp(grid, rprime, ids=None):
    n = rprime.shape[0]
    ids = ids or [f"s{i}" for i in range(n)]
    half = 0.5 * rprime
    return DecompositionResult(ids, grid, half, rprime - half, rprime)


def test_constant_rank_trajectory():
    grid = np.linspace(0, 1, 101)
    ranks = _ranks(grid, np.full((1, 101), 0.7))
    dec = _decomp(grid, np.zeros((1, 101)))
    (s,) = subject_summaries(ranks, dec)
    assert s.rho == pytest.approx(0.7, abs=1e-12)
    assert s.nu == pytest.approx(0.0, abs=1e-12)
    assert s.zeta == 0.0
    assert s.eta == 0.0


def test_linear_rank_trajectory():
    grid = np.linspace(0, 1, 101)
    ranks = _ranks(grid, grid[None, :].copy())
    dec = _decomp(grid, np.ones((1, 101)))
    (s,) = subject_summaries(ranks, dec)
    assert s.rho == pytest.approx(0.5, abs=1e-4)
    assert s.nu == pytest.approx(1.0 / 12.0, abs=1e-4)
    assert s.zeta == pytest.approx(1.0, abs=1e-12)
    assert s.eta == pytest.approx(1.0, abs=1e-4)


def test_integrated_rank_quadrature_accuracy():
    # trapezoid on 101 points against a 10001-point quadrature of the
    # closed-form true rank of one simulated subject
    model = SimModel()
    sim = generate_sample(model, 5, seed=9)
    coarse = np.linspace(0, 1, 101)
    fine = np.linspace(0, 1, 10001)
    r_c, _, _ = true_values(model, sim.xi[0], coarse)
    r_f, _, _ = true_values(model, sim.xi[0], fine)
    rho_c = np.trapezoid(r_c, coarse)
    rho_f = np.trapezoid(r_f, fine)
    assert abs(rho_c - rho_f) < 0.01


def test_moment_invariants(sim50):
    sm = presmooth(sim50.sample, h_d=0.12)
    bw = default_bandwidths(sim50.sample)
    dec = decompose(sim50.sample, sm, bw)
    ranks = smooth_ranks(sm, bw)
    subs = subject_summaries(ranks, dec)
    length = dec.trimmed_grid[-1] - dec.trimmed_grid[0]
    for s in subs:
        assert 0.0 <= s.rho <= 1.0
        assert 0.0 <= s.nu <= s.rho * (1 - s.rho) + 1e-12
        assert s.nu <= 0.25 + 1e-12
        assert -1.0 <= s.zeta <= 1.0
        assert s.eta >= s.zeta**2 / length - 1e-6


def test_population_identities():
    grid = np.linspace(0.25, 0.75, 51)
    rng = np.random.default_rng(8)
    rprime = rng.normal(size=(6, 51))
    pop = population_summaries(_decomp(grid, rprime))
    assert np.all(pop.gamma >= 0.0)
    assert pop.mixing >= 0.0
    assert 0.0 < pop.stability <= 1.0
    assert pop.stability == math.exp(-pop.mixing)


def test_population_extremes():
    grid = np.linspace(0.2, 0.8, 61)
    still = population_summaries(_decomp(grid, np.zeros((4, 61))))
    assert np.all(still.gamma == 0.0) and still.mixing == 0.0 and still.stability == 1.0
    signs = np.where(np.arange(61) % 2 == 0, 1.0, -1.0)
    churn = population_summaries(_decomp(grid, np.vstack([signs, -signs])))
    length = grid[-1] - grid[0]
    assert np.allclose(churn.gamma, 1.0)
    assert churn.mixing == pytest.approx(length, abs=1e-12)
    assert churn.stability == pytest.approx(math.exp(-length), abs=1e-12)


def test_noncrossing_family_is_stable():
    n = 50
    grid = np.linspace(0, 1, 101)
    vals = np.array([(i + 1) / n + 0.1 * np.sin(2 * np.pi * grid) for i in range(n)])
    s = FunctionalSample.from_matrix(grid, vals)
    bw = default_bandwidths(s)
    sm = presmooth(s, h_d=0.15)
    dec = decompose(s, sm, bw)
    ranks = smooth_ranks(s, bw, eval_grid=dec.trimmed_grid)
    subs = subject_summaries(ranks, dec)
    pop = population_summaries(dec)
    assert max(x.eta for x in subs) < 0.01
    assert pop.stability > 0.99


def test_grid_mismatch_rejected():
    grid = np.linspace(0, 1, 11)
    ranks = _ranks(grid, np.full((2, 11), 0.5))
    other = np.linspace(0.21, 0.81, 7)
    dec = _decomp(other, np.zeros((2, 7)))
    with pytest.raises(GridMismatchError):
        subject_summaries(ranks, dec)


def test_one_trimmed_point_has_no_integral():
    # a single point spans no interval: M would read 0 and G 1 whatever gamma is
    grid = np.linspace(0, 1, 3)
    ranks = _ranks(grid, np.array([[0.0, 0.25, 0.5], [0.5, 0.25, 0.0]]))
    dec = _decomp(grid[1:2], np.array([[0.3], [-0.3]]))
    with pytest.raises(DegenerateSampleError, match=r"fewer than two evaluation points remain inside \[trim, 1 - trim\]"):
        population_summaries(dec)
    with pytest.raises(DegenerateSampleError, match="fewer than two evaluation points"):
        subject_summaries(ranks, dec)


def test_subject_mismatch_rejected():
    grid = np.linspace(0, 1, 11)
    ranks = _ranks(grid, np.full((2, 11), 0.5))
    dec = _decomp(grid, np.zeros((2, 11)), ids=["x", "y"])
    with pytest.raises(GridMismatchError):
        subject_summaries(ranks, dec)


def test_json_payload():
    grid = np.linspace(0.3, 0.7, 5)
    pop = population_summaries(_decomp(grid, np.zeros((2, 5))))
    payload = pop.to_json_dict()
    assert payload["M"] == 0.0 and payload["G"] == 1.0
    assert payload["gamma"] == [0.0] * 5
