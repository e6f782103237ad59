"""Leave-one-out cross-validation for the (h_y, h_t) bandwidth pair.

The objective compares, for every observation at an interior time, the
indicator 1{Y_ij <= y} with the smoothed cross-sectional cdf recomputed
without subject i, squared and integrated over y: the CRPS of the
leave-out predictive cdf.  The y-integral runs on a 201-point grid over
[min Y - h_y, max Y + h_y] (trapezoid, split at the indicator's jump so
both pieces stay smooth); with compact-support kernels the integrand
vanishes identically outside that window, so the truncation is exact.

Leaving out always removes the whole subject: the within-subject
observations are maximally dependent, so removing a single point would
barely change the estimator and defeat the validation.  One code path
serves shared and ragged grids alike.  Subjects are held as padded rows,
and the leave-out cdf is (all-subject sums - own sums) / (all mass - own
mass).

H, the kernel cdf in y, is evaluated once per h_y: for every padded
observation at every point of the y-grid, into an (n, m_max, 201) buffer.
The time weights K((t - t_k)/h_t) / m_i are exactly 0 outside
|t - t_k| <= h_t and on the padding at t = 2, so they select each time's
window; there is no window gather.  The sorted distinct interior times are
walked in consecutive blocks.  A block ends before a time that would score
one of its subjects a second time, and after as many times as the longest
subject has observations; both limits come from the data.  On a shared grid
every subject is scored at every time, so each block is one time; on a
ragged grid a block holds many.  The time weights of all pairs sharing an
h_y, at all B block times, form a (pairs, B, n, m_max) tensor; one
matmul against H gives the all-subject sums at every block time, and one
batched matmul gives each scored subject's own sums from its weights at the
time where it is scored.

Memory: H and its argument are two (n, m_max, 201) buffers, allocated once
per call and reused for every h_y.  No array grows as n^2: each subject is
scored at most once per block, so own sums are (n, pairs, 201), and B is
bounded by m_max, so the weights are O(n m_max^2) per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, InsufficientDataError
from .kernels import EPANECHNIKOV, Kernel
from .ranks import Bandwidths
from .sample import FunctionalSample, pooled_std

__all__ = [
    "BandwidthGrid",
    "CvEntry",
    "CvReport",
    "cv_objective",
    "select_bandwidths",
]

_Y_GRID_SIZE = 201


@dataclass
class BandwidthGrid:
    """Candidate (h_y, h_t) pairs for the grid search."""

    pairs: list[Bandwidths]

    def __post_init__(self):
        if not self.pairs:
            raise DataError("bandwidth grid must be nonempty")

    @property
    def h_max(self) -> float:
        return max(bw.h_t for bw in self.pairs)

    @classmethod
    def geometric(
        cls,
        h_y_max: float = 2.4,
        h_t_max: float = 0.3,
        factor: float = 0.6,
        steps: int = 4,
    ) -> "BandwidthGrid":
        """{(h_y_max f^u, h_t_max f^v) : u, v = 0..steps-1}."""
        if not 0 < factor < 1:
            raise DomainError("factor must lie in (0, 1)")
        if steps < 1:
            raise DomainError("steps must be at least 1")
        pairs = [
            Bandwidths(h_y_max * factor**u, h_t_max * factor**v)
            for u in range(steps)
            for v in range(steps)
        ]
        return cls(pairs)

    @classmethod
    def scaled_default(cls, sample: FunctionalSample, steps: int = 4) -> "BandwidthGrid":
        """Default grid with the h_y axis rescaled to the sample's value scale.

        The canonical h_y values are calibrated to the verification model's
        pooled spread; for arbitrary data they are multiplied by the ratio
        of the sample's pooled standard deviation to that reference.
        """
        from .simulation import SimModel, model_pooled_std

        s = pooled_std(sample)
        if s <= 0:
            raise DomainError("pooled standard deviation is zero; cannot scale the grid")
        s_ref = model_pooled_std(SimModel())
        return cls.geometric(h_y_max=2.4 * s / s_ref, steps=steps)


@dataclass(frozen=True)
class CvEntry:
    bw: Bandwidths
    value: float


@dataclass
class CvReport:
    """All objective evaluations plus the selected pair."""

    entries: list[CvEntry]
    chosen: Bandwidths


def _sq_error_integrals(ygrid: np.ndarray, f: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """integral of (1{jump <= y} - F(y))^2 dy, one value per column of F.

    Splitting at the indicator jump keeps both pieces smooth:
    the total equals  int F^2 dy + int_{jump}^inf (1 - 2F) dy,
    so a fixed-resolution trapezoid stays second-order accurate instead of
    degrading to first order across the step.  F is evaluated on ``ygrid``
    (columns are independent curves); ``jumps`` holds one split point per
    column, each inside the grid range.
    """
    base = np.trapezoid(f * f, ygrid, axis=0)
    g = 1.0 - 2.0 * f
    dy = np.diff(ygrid)
    cell = 0.5 * (g[:-1] + g[1:]) * dy[:, None]
    tail = np.zeros_like(f)
    tail[:-1] = cell[::-1].cumsum(axis=0)[::-1]
    idx = np.searchsorted(ygrid, jumps)
    idx = np.clip(idx, 1, ygrid.size - 1)
    cols = np.arange(f.shape[1])
    frac = (jumps - ygrid[idx - 1]) / (ygrid[idx] - ygrid[idx - 1])
    g_at_jump = g[idx - 1, cols] + frac * (g[idx, cols] - g[idx - 1, cols])
    partial = 0.5 * (g_at_jump + g[idx, cols]) * (ygrid[idx] - jumps)
    return base + tail[idx, cols] + partial


def _time_blocks(obs_i: np.ndarray, first: np.ndarray, limit: int) -> list[int]:
    """Split the sorted interior times into consecutive blocks.

    ``first[k]:first[k + 1]`` indexes the scored subjects ``obs_i`` at time
    k.  A block ends before the time that would score one of its subjects a
    second time, and after ``limit`` times.  Returns the block starts, with
    the number of times appended.
    """
    starts = [0]
    seen: set[int] = set()
    for k in range(first.size - 1):
        subjects = obs_i[first[k] : first[k + 1]].tolist()
        if k - starts[-1] == limit or not seen.isdisjoint(subjects):
            starts.append(k)
            seen = set()
        seen.update(subjects)
    starts.append(first.size - 1)
    return starts


def _cv_values(
    sample: FunctionalSample,
    pairs: list[Bandwidths],
    h_max: float,
    kernel: Kernel,
) -> list[float]:
    """Objective values for several pairs, sharing kernel tensors per h_y."""
    if sample.n < 2:
        raise InsufficientDataError(
            "leave-one-out cross-validation needs at least 2 subjects"
        )
    if not 0 < h_max < 0.5:
        raise DomainError(f"h_max must lie in (0, 0.5), got {h_max!r}")
    # Padded rows of time, value and weight 1/m_i.  Padding sits at t = 2,
    # outside every kernel window (h_t < 0.5), so its time weights are 0.
    m_max = max(t.size for t in sample.times)
    times = np.full((sample.n, m_max), 2.0)
    vals = np.zeros((sample.n, m_max))
    wts = np.zeros((sample.n, m_max))
    for i, (t, v) in enumerate(zip(sample.times, sample.values)):
        times[i, : t.size] = t
        vals[i, : t.size] = v
        wts[i, : t.size] = 1.0 / t.size
    obs_i, obs_j = np.nonzero((times > h_max) & (times < 1.0 - h_max))
    if obs_i.size == 0:
        raise DomainError(f"no observation times inside ({h_max}, {1 - h_max})")
    # scored observations ordered by time; time k's are first[k]:first[k + 1]
    interior, obs_k = np.unique(times[obs_i, obs_j], return_inverse=True)
    order = np.argsort(obs_k, kind="stable")
    obs_i, obs_k, jumps = obs_i[order], obs_k[order], vals[obs_i, obs_j][order]
    first = np.searchsorted(obs_k, np.arange(interior.size + 1))
    starts = _time_blocks(obs_i, first, m_max)

    groups: dict[float, list[int]] = {}
    for idx, bw in enumerate(pairs):
        groups.setdefault(bw.h_y, []).append(idx)

    allv = np.concatenate(sample.values)
    totals = [0.0] * len(pairs)
    # H of every padded observation, and its argument, reused for every h_y
    arg = np.empty((sample.n, m_max, _Y_GRID_SIZE))
    hu = np.empty_like(arg)
    for h_y, idxs in groups.items():
        ygrid = np.linspace(allv.min() - h_y, allv.max() + h_y, _Y_GRID_SIZE)
        np.subtract(ygrid, vals[:, :, None], out=arg)
        arg /= h_y
        kernel.cdf(arg, out=hu)
        h_ts = np.array([pairs[i].h_t for i in idxs])
        for s, e in zip(starts[:-1], starts[1:]):
            tb = interior[s:e]
            # time weights of every pair at every block time, (P, B, n, m_max);
            # the argument is clipped in place and dropped
            a = (tb[:, None, None] - times) / h_ts[:, None, None, None]
            a = kernel.density(a, out=np.empty_like(a))
            a *= wts
            p, b, n, w = a.shape
            full = (a.reshape(p * b, -1) @ hu.reshape(-1, _Y_GRID_SIZE)).reshape(p, b, -1)
            # the block's scored observations: subject bi at block time bk, each subject once
            sel = slice(first[s], first[e])
            bi, bk = obs_i[sel], obs_k[sel] - s
            own_a = np.zeros((n, p, w))
            own_a[bi] = a[:, bk, bi].transpose(1, 0, 2)  # weights at the subject's scored time
            own = own_a @ hu  # (n, P, Gy), per-subject numerator sums
            mass = a.sum(axis=3)
            denom = mass.sum(axis=2)[:, bk] - mass[:, bk, bi]  # (P, K)
            for q, idx in enumerate(idxs):
                if np.any(denom[q] <= 0.0):
                    bad = np.flatnonzero(denom[q] <= 0.0)[0]
                    raise InsufficientDataError(
                        f"no observations within h_t={pairs[idx].h_t!r} of t={float(tb[bk[bad]])!r} "
                        f"after leaving out subject {sample.ids[bi[bad]]!r}"
                    )
                f_loo = (full[q, bk] - own[bi, q]) / denom[q, :, None]
                totals[idx] += float(_sq_error_integrals(ygrid, f_loo.T, jumps[sel]).sum())
    return totals


def cv_objective(
    sample: FunctionalSample,
    bw: Bandwidths,
    h_max: float,
    kernel: Kernel = EPANECHNIKOV,
) -> float:
    """Leave-one-subject-out CV objective at one bandwidth pair."""
    return _cv_values(sample, [bw], h_max, kernel)[0]


def select_bandwidths(
    sample: FunctionalSample,
    grid: BandwidthGrid,
    kernel: Kernel = EPANECHNIKOV,
) -> CvReport:
    """Grid-search the CV objective; ties prefer smaller h_t, then smaller h_y.

    The returned report caches every objective evaluation alongside the
    selected pair.
    """
    values = _cv_values(sample, grid.pairs, grid.h_max, kernel)
    entries = [CvEntry(bw, float(v)) for bw, v in zip(grid.pairs, values)]
    chosen = min(entries, key=lambda e: (e.value, e.bw.h_t, e.bw.h_y)).bw
    return CvReport(entries=entries, chosen=chosen)
