"""Rank summary statistics at the subject and population level.

Subject level: integrated rank rho (time average of the rank trajectory),
rank volatility nu (time variance), net mixing zeta (rank change across
the trimmed domain) and mixing energy eta (integrated squared rank
derivative).  Population level: the instability curve gamma(t), its
integral M and the stability coefficient G = exp(-M).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DecompositionResult
from .errors import GridMismatchError
from .ranks import RankTrajectories, match_grid

__all__ = [
    "SubjectSummary",
    "PopulationSummary",
    "subject_summaries",
    "population_summaries",
]


@dataclass(frozen=True)
class SubjectSummary:
    id: str
    rho: float   # time-averaged rank, in [0, 1]
    nu: float    # time variance of the rank, in [0, 0.25]
    zeta: float  # rank at right trim end minus rank at left trim end
    eta: float   # integral of the squared rank derivative


@dataclass
class PopulationSummary:
    gamma: np.ndarray  # (G',) mean squared rank derivative per time point
    mixing: float      # M = integral of gamma over the trimmed grid
    stability: float   # G = exp(-M), 1 iff trajectories never cross

    def to_json_dict(self) -> dict:
        return {
            "M": self.mixing,
            "G": self.stability,
            "gamma": [float(g) for g in self.gamma],
        }


def time_average(grid: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Trapezoid integral divided by the domain length (axis -1)."""
    length = grid[-1] - grid[0]
    if length <= 0:
        return np.asarray(curve)[..., 0]
    return np.trapezoid(curve, grid, axis=-1) / length


def rank_moments(ranks: RankTrajectories) -> tuple[np.ndarray, np.ndarray]:
    """(rho, nu) per subject from a rank trajectory set."""
    rho = time_average(ranks.eval_grid, ranks.ranks)
    nu = time_average(ranks.eval_grid, (ranks.ranks - rho[:, None]) ** 2)
    return rho, nu


def subject_summaries(
    ranks: RankTrajectories, decomp: DecompositionResult
) -> list[SubjectSummary]:
    """Per-subject (rho, nu, zeta, eta).

    rho and nu integrate the rank trajectories over their own grid; zeta
    reads the ranks at the two endpoints of the decomposition's trimmed
    grid; eta integrates the squared estimated rank derivative over the
    trimmed grid.  The trimmed grid must be a subset of the rank grid.
    """
    if list(ranks.ids) != list(decomp.ids):
        raise GridMismatchError("ranks and decomposition cover different subjects")
    try:
        ends = match_grid(ranks.eval_grid, decomp.trimmed_grid[[0, -1]])
    except Exception as exc:
        raise GridMismatchError(
            "decomposition grid endpoints are not rank evaluation points"
        ) from exc
    rho, nu = rank_moments(ranks)
    zeta = ranks.ranks[:, ends[1]] - ranks.ranks[:, ends[0]]
    eta = decomp.integrate(decomp.rprime**2)
    return [
        SubjectSummary(sid, float(r), float(v), float(z), float(e))
        for sid, r, v, z, e in zip(ranks.ids, rho, nu, zeta, eta)
    ]


def population_summaries(decomp: DecompositionResult) -> PopulationSummary:
    """gamma(t) = mean squared rank derivative, M = integral, G = exp(-M)."""
    gamma = np.mean(decomp.rprime**2, axis=0)
    mixing = float(decomp.integrate(gamma))
    return PopulationSummary(gamma=gamma, mixing=mixing, stability=math.exp(-mixing))
