"""Cross-sectional rank trajectories: empirical and kernel-smoothed.

The empirical rank of subject i at time t is the scaled count of other
subjects sitting at or below it.  The smooth variant plugs the subject's
value into a kernel estimate of the cross-sectional cdf, which makes the
rank trajectories differentiable and feeds the derivative decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import (
    BoundaryError,
    DataError,
    DomainError,
    EvaluationError,
    InsufficientDataError,
)
from .kernels import EPANECHNIKOV, Kernel
from .sample import FunctionalSample, SmoothedSample, pooled_std

__all__ = [
    "Bandwidths",
    "RankTrajectories",
    "default_bandwidths",
    "empirical_ranks",
    "smooth_cdf",
    "smooth_ranks",
]

_TOL = 1e-9


@dataclass(frozen=True)
class Bandwidths:
    """Kernel bandwidths: h_y in value units, h_t in time units."""

    h_y: float
    h_t: float

    def __post_init__(self):
        if not 0 < self.h_y < np.inf:
            raise DomainError(f"h_y must be positive and finite, got {self.h_y!r}")
        if not 0 < self.h_t < 0.5:
            raise DomainError(f"h_t must lie in (0, 0.5), got {self.h_t!r}")


def default_bandwidths(sample: FunctionalSample) -> Bandwidths:
    """Rule-based n^(-1/4) bandwidths used when cross-validation is skipped.

    h_t = 0.3 n^(-1/4); h_y = s n^(-1/4) with s the pooled sample standard
    deviation of all observed values.
    """
    rate = sample.n ** (-0.25)
    s = pooled_std(sample)
    if s <= 0:
        raise DomainError("pooled standard deviation is zero; cannot scale h_y")
    return Bandwidths(h_y=s * rate, h_t=0.3 * rate)


@dataclass
class RankTrajectories:
    """Rank values per subject on an evaluation grid, in [0, 1]."""

    ids: list[str]
    eval_grid: np.ndarray
    ranks: np.ndarray  # (n, G)
    method: str        # "empirical" | "smooth"

    def __post_init__(self):
        self.eval_grid = np.asarray(self.eval_grid, dtype=float)
        self.ranks = np.asarray(self.ranks, dtype=float)
        if self.ranks.shape != (len(self.ids), self.eval_grid.size):
            raise DataError("ranks must be (n, G)")
        if self.method not in ("empirical", "smooth"):
            raise DataError(f"unknown rank method {self.method!r}")
        if not np.all(np.isfinite(self.ranks)):
            raise DataError("ranks must be finite")
        if self.ranks.size and (self.ranks.min() < -_TOL or self.ranks.max() > 1 + _TOL):
            raise DataError("ranks must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.ids)


def _as_shared_data(source) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(ids, grid, values (n, m)) for sources of at least 2 subjects on one common grid."""
    if not isinstance(source, (FunctionalSample, SmoothedSample)):
        raise TypeError(f"expected FunctionalSample or SmoothedSample, got {type(source)!r}")
    if isinstance(source, FunctionalSample) and source.shared_grid is None:
        raise EvaluationError("subjects are observed on different grids; presmooth first")
    if source.n < 2:
        raise DataError("rank estimation needs at least 2 subjects")
    if isinstance(source, SmoothedSample):
        return source.ids, source.eval_grid, source.values
    return source.ids, source.shared_grid, source.value_matrix()


def match_grid(available: np.ndarray, requested: np.ndarray) -> np.ndarray:
    """Indices of ``requested`` points inside ``available`` (tolerant match)."""
    requested = np.atleast_1d(np.asarray(requested, dtype=float))
    idx = np.searchsorted(available, requested)
    idx = np.clip(idx, 0, available.size - 1)
    left = np.clip(idx - 1, 0, available.size - 1)
    use_left = np.abs(available[left] - requested) < np.abs(available[idx] - requested)
    idx = np.where(use_left, left, idx)
    bad = np.abs(available[idx] - requested) > _TOL
    if np.any(bad):
        t_bad = requested[bad][0]
        raise EvaluationError(f"subjects cannot be evaluated at t={t_bad!r}: not a grid point")
    return idx


def empirical_ranks(source, eval_grid=None) -> RankTrajectories:
    """Scaled cross-sectional ranks: count of other subjects at or below.

    Every rank is a multiple of 1/n in {0, 1/n, ..., (n-1)/n}; ties are
    counted by the 'at or below' rule, the subject itself is excluded.
    Works on a shared-grid sample or on smoothed curves.
    """
    ids, grid, vals = _as_shared_data(source)
    if eval_grid is None:
        eval_grid = grid
        cols = np.arange(grid.size)
    else:
        eval_grid = np.atleast_1d(np.asarray(eval_grid, dtype=float))
        cols = match_grid(grid, eval_grid)
    n = len(ids)
    v = vals.T[cols]  # one row per grid point
    order = np.argsort(v, axis=1)
    v = np.take_along_axis(v, order, axis=1)
    # a sorted value's count at or below, less one, is the position of the
    # last value equal to it: the next tie-group end at or after it
    rank = np.empty(v.shape)
    rank[:] = np.arange(n) / n
    rank[:, :-1][v[:, 1:] == v[:, :-1]] = np.inf
    np.minimum.accumulate(rank[:, ::-1], axis=1, out=rank[:, ::-1])
    np.put_along_axis(v, order, rank, axis=1)
    return RankTrajectories(list(ids), eval_grid, v.T, "empirical")


def _inside(grid, trim: float) -> np.ndarray:
    """Indices of the points of ``grid`` (or of a scalar) inside [trim, 1 - trim].

    The package's one statement of the interior-window rule, to within 1e-9.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    return np.flatnonzero((grid >= trim - _TOL) & (grid <= 1.0 - trim + _TOL))


def _trimmed(grid, trim: float, h_t: float) -> np.ndarray:
    """Indices of the points of ``grid`` inside [trim, 1 - trim]: the trimmed grid.

    Raises DomainError when trim lies outside [h_t, 1 - h_t], where the
    time kernel window is fully interior, or when no point remains.
    """
    if _inside(trim, h_t).size == 0:
        raise DomainError(f"trim={trim!r} must lie in [h_t, 1 - h_t] for the largest h_t {h_t!r}")
    cols = _inside(grid, trim)
    if cols.size == 0:
        raise DomainError(f"no evaluation points remain inside [{trim}, {1 - trim}]")
    return cols


def _check_interior(t: float, h_t: float):
    if _inside(t, h_t).size == 0:
        raise BoundaryError(f"t={t!r} lies in the boundary strip for h_t={h_t!r}")


def _estimates(sample, kernel: Kernel, bandwidths, ts, yq, partials: bool = True):
    """(F, D1, D2), each (Q, T), per bandwidth pair from one engine call.

    F = Q1/Q2 is the cdf estimate and D1, D2 its time and value partials;
    ``ts`` and ``yq`` are as in ``_engine.qbar_grid``.  With partials=False
    the engine skips what only D1 and D2 need, and they are None.  A time
    without data within h_t raises InsufficientDataError, naming the first
    such time.
    """
    pairs = [(bw.h_y, bw.h_t) for bw in bandwidths]
    qs = _engine.qbar_grid(_engine.flatten_sample(sample), kernel, pairs, ts, yq, partials)
    empty = np.array([q[1] for q in qs]) <= 0.0
    if empty.any():
        j, p = np.argwhere(empty.T)[0]
        raise InsufficientDataError(
            f"no observations within h_t={pairs[p][1]!r} of t={float(ts[j])!r}"
        )
    out = []
    for q1, q2, *rest in qs:
        # numerator <= denominator holds mathematically (H <= 1 with equal weights);
        # enforce it so saturated queries give exactly 1 despite summation-order dust
        f = np.minimum(q1, q2) / q2
        if partials:
            q3, q4, q5 = rest
            out.append((f, q3 / q2 - q1 * q4 / (q2 * q2), q5 / q2))
        else:
            out.append((f, None, None))
    return out


def smooth_cdf(
    sample,
    bw: Bandwidths,
    y: float,
    t: float,
    kernel: Kernel = EPANECHNIKOV,
) -> float:
    """Kernel estimate of the cross-sectional cdf F_t(y).

    Returns the raw ratio of the two kernel averages (mathematically in
    [0, 1] for cdf-type integrated kernels); downstream reports clamp.
    Raises BoundaryError for t outside [h_t, 1 - h_t].
    """
    _check_interior(t, bw.h_t)
    [(f, _, _)] = _estimates(sample, kernel, [bw], [t], [[y]], partials=False)
    return float(f[0, 0])


def smooth_ranks(
    source,
    bw: Bandwidths,
    eval_grid=None,
    kernel: Kernel = EPANECHNIKOV,
) -> RankTrajectories:
    """Smooth rank trajectories R_i(t) = F_t(Y_i(t)) on the trimmed grid.

    The evaluation grid defaults to the source's own grid and is restricted
    to [h_t, 1 - h_t], where the time kernel window is fully interior.
    """
    ids, grid, vals = _as_shared_data(source)
    eval_grid = np.atleast_1d(np.asarray(grid if eval_grid is None else eval_grid, dtype=float))
    trimmed = eval_grid[_trimmed(eval_grid, bw.h_t, bw.h_t)]
    [(f, _, _)] = _estimates(
        source, kernel, [bw], trimmed, vals[:, match_grid(grid, trimmed)], partials=False
    )
    np.clip(f, 0.0, 1.0, out=f)
    return RankTrajectories(list(ids), trimmed, f, "smooth")
