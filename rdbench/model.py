"""Closed-form verification model and direct-sum oracles for the output checks.

Everything here is written from the defining formulas with numpy only,
independently of the rankdyn package, so that a faster but wrong estimator
fails the benchmark instead of passing as a speed-up.

The model is the paper's verification setup: Y_i(t) = sum_k xi_ik psi_k(t)
with independent normal scores on five fixed basis curves.  At every t the
cross-section is Gaussian, so the true rank R, its population component C1
and its individual component C2 have closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

MEANS = np.array([1.4, 1.0, 0.0, 0.8, 0.4])
SDS = np.array([1.7, 0.6, 0.5, 0.4, 0.2])


def _phi(u):
    return np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def basis(t):
    """(psi, dpsi), each (..., 5), for the five basis curves at times t."""
    t = np.asarray(t, dtype=float)
    up = (t > 0.5).astype(float)
    z2 = (t - 0.5) / 0.09
    z5 = (t - 0.2) / 0.05
    psi = np.stack(
        [
            6.0 * (t - 0.5) ** 2 * up,
            0.4 + (0.7 / 0.09) * _phi(z2),
            0.6 * np.cos(8.0 * np.pi * t),
            np.sin(2.0 * np.pi * t) + 1.0,
            (0.4 / 0.05) * _phi(z5),
        ],
        axis=-1,
    )
    dpsi = np.stack(
        [
            12.0 * (t - 0.5) * up,
            -(0.7 / 0.09**2) * z2 * _phi(z2),
            -4.8 * np.pi * np.sin(8.0 * np.pi * t),
            2.0 * np.pi * np.cos(2.0 * np.pi * t),
            -(0.4 / 0.05**2) * z5 * _phi(z5),
        ],
        axis=-1,
    )
    return psi, dpsi


def draw_scores(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 5) normal scores of the verification model."""
    return rng.normal(MEANS, SDS, size=(n, 5))


def truth(xi: np.ndarray, t: np.ndarray):
    """Closed-form (R, C1, C2), each (n, T), for scores xi (n, 5) at times t."""
    psi, dpsi = basis(t)
    a = (xi - MEANS) @ psi.T
    s = np.sqrt((SDS**2) @ (psi**2).T)
    dens = _phi(a / s)
    mu_slope = MEANS @ dpsi.T
    cross = (SDS**2) @ (psi * dpsi).T
    c1 = (-mu_slope / s - a * cross / s**3) * dens
    c2 = ((xi @ dpsi.T) / s) * dens
    return ndtr(a / s), c1, c2


def trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral over the last axis."""
    return 0.5 * ((y[..., 1:] + y[..., :-1]) * np.diff(x)).sum(axis=-1)


# Epanechnikov kernel, its antiderivative and its derivative.
def epan_k(u):
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def epan_h(u):
    u = np.clip(u, -1.0, 1.0)
    return 0.5 + 0.75 * u - 0.25 * u**3


def epan_kp(u):
    return np.where(np.abs(u) < 1.0, -1.5 * u, 0.0)


def presmooth_shared(grid: np.ndarray, values: np.ndarray, h_d: float, g: float):
    """Local-quadratic fit at time g of curves (n, m) sharing one grid: (values, slopes)."""
    x = (grid - g) / h_d
    w = epan_k(x)
    design = np.stack([np.ones_like(x), x, x * x], axis=1)
    beta = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w[:, None] * values.T))
    return beta[0], beta[1] / h_d


def qsums(times, values, h_y: float, h_t: float, yq: np.ndarray, t: float):
    """(Q1, Q2, Q3, Q4, Q5) by direct summation over every observation.

    Each subject's points carry weight 1/m_i; Q1, Q3, Q5 are per query.
    """
    tk = np.concatenate(times)
    yk = np.concatenate(values)
    wk = np.concatenate([np.full(len(ti), 1.0 / len(ti)) for ti in times])
    n = len(times)
    ut = (t - tk) / h_t
    uy = (yq[:, None] - yk[None, :]) / h_y
    a = wk * epan_k(ut)
    ap = wk * epan_kp(ut)
    hv = epan_h(uy)
    q1 = hv @ a / (n * h_t)
    q2 = a.sum() / (n * h_t)
    q3 = hv @ ap / (n * h_t * h_t)
    q4 = ap.sum() / (n * h_t * h_t)
    q5 = epan_k(uy) @ a / (n * h_y * h_t)
    return q1, q2, q3, q4, q5
