"""Verification model with closed-form rank truths, MISE, and the Monte Carlo harness.

Trajectories are Gaussian combinations of five fixed basis curves,
Y_i(t) = sum_k xi_ik psi_k(t) with independent normal scores.  At every t
the cross-section is Gaussian, so the true rank R_i(t), its population
component C1_i(t) and its individual component C2_i(t) all have closed
forms in Phi and phi.  These serve as oracles: estimated components are
scored by their mean integrated squared error over a boundary-trimmed
window, and the harness compares cross-validated bandwidths against the
per-sample oracle optimum over a candidate grid, recording everything in a
reproducible per-run report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bandwidth import BandwidthGrid, select_bandwidths
from .dynamics import DecompositionResult, decompose_many
from .errors import DataError, DomainError, GridMismatchError
from .kernels import EPANECHNIKOV, Kernel
from .ranks import _inside, _trimmed, smooth_ranks
from .sample import FunctionalSample, presmooth
# time_average is not called here; it stays importable from this module, where
# rdbench/tracing.py wraps it
from .summaries import rank_moments, time_average  # noqa: F401

__all__ = [
    "SimModel",
    "SimSample",
    "basis_matrix",
    "generate_sample",
    "true_values",
    "model_pooled_std",
    "mise",
    "MonteCarloRow",
    "MonteCarloReport",
    "run_monte_carlo",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(u):
    return np.exp(-0.5 * np.asarray(u, dtype=float) ** 2) / _SQRT2PI


@dataclass
class SimModel:
    """Five-basis Gaussian generator; the defaults are the verification setup."""

    means: tuple = (1.4, 1.0, 0.0, 0.8, 0.4)
    sds: tuple = (1.7, 0.6, 0.5, 0.4, 0.2)
    m: int = 31

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.sds = np.asarray(self.sds, dtype=float)
        if self.means.shape != (5,) or self.sds.shape != (5,):
            raise DataError("model needs exactly 5 means and 5 standard deviations")
        if np.any(self.sds <= 0):
            raise DataError("score standard deviations must be positive")
        if self.m < 2:
            raise DomainError("m must be at least 2")
        tt = np.linspace(0.0, 1.0, 2001)
        s2 = (self.sds**2) @ (basis_matrix(tt)[0] ** 2).T
        if s2.min() <= 0:
            raise DataError("cross-sectional variance vanishes somewhere on [0, 1]")

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m


def basis_matrix(t):
    """(psi, dpsi), each (..., 5), for all five basis curves at once.

    The first basis curve has a kink where its indicator switches on; the
    derivative there is 0 (both one-sided limits of the squared term are).
    """
    t = np.asarray(t, dtype=float)
    up = (t > 0.5).astype(float)
    psi1 = 6.0 * (t - 0.5) ** 2 * up
    dpsi1 = 12.0 * (t - 0.5) * up
    z2 = (t - 0.5) / 0.09
    p2 = _phi(z2)
    psi2 = 0.4 + (0.7 / 0.09) * p2
    dpsi2 = -(0.7 / 0.09**2) * z2 * p2
    psi3 = 0.6 * np.cos(8.0 * np.pi * t)
    dpsi3 = -4.8 * np.pi * np.sin(8.0 * np.pi * t)
    psi4 = np.sin(2.0 * np.pi * t) + 1.0
    dpsi4 = 2.0 * np.pi * np.cos(2.0 * np.pi * t)
    z5 = (t - 0.2) / 0.05
    p5 = _phi(z5)
    psi5 = (0.4 / 0.05) * p5
    dpsi5 = -(0.4 / 0.05**2) * z5 * p5
    psi = np.stack([psi1, psi2, psi3, psi4, psi5], axis=-1)
    dpsi = np.stack([dpsi1, dpsi2, dpsi3, dpsi4, dpsi5], axis=-1)
    return psi, dpsi


@dataclass
class SimSample:
    """Generated sample plus the scores that determine its closed-form truths."""

    sample: FunctionalSample
    xi: np.ndarray  # (n, 5)
    seed: int


def generate_sample(model: SimModel, n: int, seed: int) -> SimSample:
    """Draw n subjects on the grid {j/m : j = 0..m} from a seeded generator."""
    if n < 1:
        raise DomainError("n must be at least 1")
    rng = np.random.default_rng(seed)
    xi = rng.normal(model.means, model.sds, size=(n, 5))
    psi, _ = basis_matrix(model.grid)
    values = xi @ psi.T
    ids = [f"s{i + 1:05d}" for i in range(n)]
    return SimSample(
        sample=FunctionalSample.from_matrix(model.grid, values, ids=ids),
        xi=xi,
        seed=int(seed),
    )


def true_values(model: SimModel, xi, t):
    """Closed-form (R, C1, C2) for scores xi at times t.

    xi may be (5,) or (n, 5); t may be a scalar or (T,).  Outputs broadcast
    to (n, T) and are squeezed back for scalar-style inputs.
    """
    # imported here: scipy.special would double the import time of rankdyn.cli
    from scipy.special import ndtr

    xi_arr = np.atleast_2d(np.asarray(xi, dtype=float))
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    psi, dpsi = basis_matrix(t_arr)             # (T, 5)
    mu, sd = model.means, model.sds
    a = (xi_arr - mu) @ psi.T                   # (n, T)
    s = np.sqrt((sd**2) @ (psi**2).T)           # (T,)
    z = a / s
    dens = _phi(z)
    mu_slope = mu @ dpsi.T                      # (T,)
    cross = (sd**2) @ (psi * dpsi).T            # (T,)
    r = ndtr(z)
    c1 = (-mu_slope / s - a * cross / s**3) * dens
    c2 = ((xi_arr @ dpsi.T) / s) * dens
    if np.isscalar(t) or np.ndim(t) == 0:
        r, c1, c2 = r[:, 0], c1[:, 0], c2[:, 0]
    if np.asarray(xi).ndim == 1:
        r, c1, c2 = r[0], c1[0], c2[0]
    return r, c1, c2


def model_pooled_std(model: SimModel) -> float:
    """Pooled standard deviation of observations implied by the model.

    Mixes the average cross-sectional variance with the spread of the mean
    curve over the model's own grid; used to rescale the default bandwidth
    grid to other value scales.
    """
    psi, _ = basis_matrix(model.grid)
    mu_t = model.means @ psi.T
    var_t = (model.sds**2) @ (psi**2).T
    pooled_var = var_t.mean() + np.var(mu_t)
    return float(math.sqrt(pooled_var))


def mise(
    estimates: DecompositionResult, model: SimModel, xi: np.ndarray, h_max: float
) -> tuple[float, float]:
    """Mean integrated squared errors of (C1, C2) over [h_max, 1 - h_max].

    The decomposition grid must cover that window, and hold two points in it.
    """
    grid = estimates.trimmed_grid
    # the grid covers [h_max, 1 - h_max] when h_max is inside its own ends' window
    if _inside(h_max, max(grid[0], 1.0 - grid[-1])).size == 0:
        raise GridMismatchError(
            f"decomposition grid [{grid[0]}, {grid[-1]}] does not cover "
            f"[{h_max}, {1 - h_max}]"
        )
    keep = _inside(grid, h_max)
    window = DecompositionResult(
        estimates.ids, grid[keep], estimates.c1[:, keep], estimates.c2[:, keep],
        estimates.rprime[:, keep],
    )
    _, c1_true, c2_true = true_values(model, xi, window.trimmed_grid)
    return _mise(window, c1_true, c2_true)


def _mise(estimates: DecompositionResult, c1_true, c2_true) -> tuple[float, float]:
    """``mise`` over the whole trimmed grid, given the true components on it.

    ``integrate`` refuses a grid of fewer than two points.
    """
    m1 = estimates.integrate((estimates.c1 - c1_true) ** 2).mean()
    m2 = estimates.integrate((estimates.c2 - c2_true) ** 2).mean()
    return float(m1), float(m2)


@dataclass(frozen=True)
class MonteCarloRow:
    """One (run, n) record: both bandwidth picks, their MISEs, stat errors."""

    run: int
    n: int
    h_y_cv: float
    h_t_cv: float
    h_y_opt: float
    h_t_opt: float
    mise_c1_cv: float
    mise_c2_cv: float
    mise_c1_opt: float
    mise_c2_opt: float
    err_rho: float
    err_nu: float
    err_zeta: float


@dataclass
class MonteCarloReport:
    rows: list

    def filter(self, n: int) -> list:
        return [r for r in self.rows if r.n == n]

    def median_opt_mise(self, n: int) -> float:
        return float(np.median([r.mise_c1_opt + r.mise_c2_opt for r in self.filter(n)]))

    def median_cv_ratio(self, n: int) -> float:
        ratios = [
            (r.mise_c1_cv + r.mise_c2_cv) / (r.mise_c1_opt + r.mise_c2_opt)
            for r in self.filter(n)
        ]
        return float(np.median(ratios))

    def median_stat_errors(self, n: int) -> dict:
        rows = self.filter(n)
        return {
            "rho": float(np.median([r.err_rho for r in rows])),
            "nu": float(np.median([r.err_nu for r in rows])),
            "zeta": float(np.median([r.err_zeta for r in rows])),
        }


def _oracle_mises(
    model: SimModel,
    sim: SimSample,
    grid: BandwidthGrid,
    kernel: Kernel,
    eval_points: int,
    h_d: float,
) -> list[tuple[float, float]]:
    """Per-pair (C1, C2) MISEs of ``sim`` over ``grid``, trimmed by its h_max.

    Only the MISEs are returned, so the decompositions (3.1 MB at n = 200 on
    the default grid) are freed before the caller runs CV.
    """
    smoothed = presmooth(sim.sample, h_d=h_d, eval_grid_size=eval_points, kernel=kernel)
    decomps = decompose_many(sim.sample, smoothed, grid.pairs, trim=grid.h_max, kernel=kernel)
    # every decomposition has the same h_max-trimmed grid: one truth serves all
    _, c1_true, c2_true = true_values(model, sim.xi, decomps[0].trimmed_grid)
    return [_mise(d, c1_true, c2_true) for d in decomps]


def _run_one(
    model: SimModel,
    n: int,
    run: int,
    seed: int,
    grid: BandwidthGrid,
    kernel: Kernel,
    eval_points: int,
    h_d: float,
) -> MonteCarloRow:
    sim = generate_sample(model, n, seed)
    h_max = grid.h_max
    mises = _oracle_mises(model, sim, grid, kernel, eval_points, h_d)
    keyed = [
        (m1 + m2, bw.h_t, bw.h_y, idx)
        for idx, ((m1, m2), bw) in enumerate(zip(mises, grid.pairs))
    ]
    opt_idx = min(keyed)[3]
    report = select_bandwidths(sim.sample, grid, kernel=kernel)
    cv_idx = grid.pairs.index(report.chosen)

    # rank summary statistics at the CV pick, on the raw observation grid
    obs = sim.sample.shared_grid
    sub = obs[_trimmed(obs, h_max, h_max)]
    rks = smooth_ranks(sim.sample, report.chosen, eval_grid=sub, kernel=kernel)
    r_true, _, _ = true_values(model, sim.xi, rks.eval_grid)
    rho_hat, nu_hat = rank_moments(rks.eval_grid, rks.ranks)
    rho_true, nu_true = rank_moments(rks.eval_grid, r_true)
    zeta_hat = rks.ranks[:, -1] - rks.ranks[:, 0]
    zeta_true = r_true[:, -1] - r_true[:, 0]

    cv_bw, opt_bw = grid.pairs[cv_idx], grid.pairs[opt_idx]
    return MonteCarloRow(
        run=run,
        n=n,
        h_y_cv=cv_bw.h_y,
        h_t_cv=cv_bw.h_t,
        h_y_opt=opt_bw.h_y,
        h_t_opt=opt_bw.h_t,
        mise_c1_cv=mises[cv_idx][0],
        mise_c2_cv=mises[cv_idx][1],
        mise_c1_opt=mises[opt_idx][0],
        mise_c2_opt=mises[opt_idx][1],
        err_rho=float(np.mean((rho_hat - rho_true) ** 2)),
        err_nu=float(np.mean((nu_hat - nu_true) ** 2)),
        err_zeta=float(np.mean((zeta_hat - zeta_true) ** 2)),
    )


def run_monte_carlo(
    model: SimModel,
    n_list,
    runs: int,
    grid: BandwidthGrid | None = None,
    base_seed: int = 0,
    kernel: Kernel = EPANECHNIKOV,
    eval_points: int = 101,
    h_d: float | None = None,
    workers: int = 1,
) -> MonteCarloReport:
    """Compare CV-selected and oracle-optimal bandwidths over repeated samples.

    Run r uses seed base_seed + r for every sample size, so reruns (serial
    or parallel) reproduce the report byte-identically.  The oracle pick
    minimizes the summed MISE of the two components over the grid; both
    picks' MISEs plus the squared errors of the rank summary statistics at
    the CV pick are recorded per run.  The MISEs integrate over the points
    of the evaluation grid inside [h_max, 1 - h_max], which need not include
    h_max itself; fewer than two such points raise DegenerateSampleError.  With workers > 1, a pool of
    min(workers, tasks) processes runs the (n, run) tasks.
    """
    if runs < 1:
        raise DomainError("runs must be at least 1")
    if grid is None:
        grid = BandwidthGrid.geometric()
    if h_d is None:
        h_d = max(0.10, 3.0 / (model.m + 1))
    one = partial(
        _run_one, model, grid=grid, kernel=kernel, eval_points=eval_points, h_d=float(h_d)
    )
    tasks = [(int(n), run, base_seed + run) for run in range(runs) for n in n_list]
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here: concurrent.futures loads logging and its process pool multiprocessing,
        # which only this branch uses
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, *zip(*tasks)))
    else:
        rows = [one(*task) for task in tasks]
    return MonteCarloReport(rows=rows)
