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
and at each distinct interior observation time every subject's kernel
sums come from one batched product over its own time window; the
leave-out cdf is then (all-subject sums - own sums) / (all mass - own
mass).  Pairs with equal h_y share the kernel tensor of the widest h_t.
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
    # outside every kernel window (h_t < 0.5), with weight 0; the extra
    # all-padding column lets every row give a slice as wide as the widest.
    width = max(t.size for t in sample.times) + 1
    times = np.full((sample.n, width), 2.0)
    vals = np.zeros((sample.n, width))
    wts = np.zeros((sample.n, width))
    for i, (t, v) in enumerate(zip(sample.times, sample.values)):
        times[i, : t.size] = t
        vals[i, : t.size] = v
        wts[i, : t.size] = 1.0 / t.size
    interior = np.unique(times[(times > h_max) & (times < 1.0 - h_max)])
    if interior.size == 0:
        raise DomainError(f"no observation times inside ({h_max}, {1 - h_max})")

    groups: dict[float, list[int]] = {}
    for idx, bw in enumerate(pairs):
        groups.setdefault(bw.h_y, []).append(idx)

    allv = np.concatenate(sample.values)
    totals = [0.0] * len(pairs)
    for h_y, idxs in groups.items():
        ygrid = np.linspace(allv.min() - h_y, allv.max() + h_y, _Y_GRID_SIZE)
        ht_max = max(pairs[i].h_t for i in idxs)
        for t in interior:
            # each row's widest-h_t window is the slice [lo, hi) of its times
            lo = np.count_nonzero(times < t - ht_max, axis=1)
            hi = np.count_nonzero(times <= t + ht_max, axis=1)
            cols = np.minimum(lo[:, None] + np.arange((hi - lo).max()), width - 1)
            twin = np.take_along_axis(times, cols, axis=1)
            wwin = np.take_along_axis(wts, cols, axis=1)
            vwin = np.take_along_axis(vals, cols, axis=1)
            hu = kernel.cdf((ygrid - vwin[:, :, None]) / h_y)  # (n, w, Gy)
            obs_i, obs_j = np.nonzero(times == t)
            for idx in idxs:
                h_t = pairs[idx].h_t
                a = kernel.density((t - twin) / h_t) * wwin
                own = (a[:, None, :] @ hu)[:, 0, :]  # (n, Gy), per-subject numerator sums
                mass = a.sum(axis=1)
                denom = mass.sum() - mass[obs_i]
                if np.any(denom <= 0.0):
                    raise InsufficientDataError(
                        f"no observations within h_t={h_t!r} of t={float(t)!r} after leaving "
                        f"out subject {sample.ids[obs_i[np.argmin(denom)]]!r}"
                    )
                f_loo = (own.sum(axis=0) - own[obs_i]) / denom[:, None]
                totals[idx] += float(
                    _sq_error_integrals(ygrid, f_loo.T, vals[obs_i, obs_j]).sum()
                )
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
