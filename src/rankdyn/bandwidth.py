"""Leave-one-out cross-validation for the (h_y, h_t) bandwidth pair.

The objective compares, for every observation at an interior time, the
indicator 1{Y_ij <= y} with the smoothed cross-sectional cdf recomputed
without subject i, squared and integrated over y: the CRPS of the
leave-out predictive cdf.  The y-integral runs on a 201-point grid over
[min Y - h_y, max Y + h_y] (trapezoid, split at the indicator's jump so
both pieces stay smooth); with compact-support kernels the integrand
vanishes identically outside that window, so the truncation is exact.

The rule is linear in the integrand, so each scored value Y costs a
quadratic form in the leave-out cdf f on the y-grid:
f^2 . w + (y_last - Y) - f . lam.  Here w holds the trapezoid weights, one
vector per h_y.  lam is one row per scored value: twice the trapezoid
weight above Y's cell, and the two terms of the cell split at Y.  No cdf
column is integrated elementwise.

Leaving out always removes the whole subject: the within-subject
observations are maximally dependent, so removing a single point would
barely change the estimator and defeat the validation.  One code path
serves shared and ragged grids alike.  With G_k = w_k H((y - y_k)/h_y) on
the y-grid and w_k = 1/m_i, subject i's leave-out cdf at a scored time s is
f = (S - S_i) / (W - W_i): S = sum_k K((s - t_k)/h_t) G_k over all
observations, S_i over i's own, and W, W_i the same sums of w_k.  H is
evaluated once per h_y; time weights, window edges and coefficients once
per h_t.  The subjects sharing an observation grid (``grid_groups``) form
a row-major (time x member) table; the observations are the tables one
after another, unpadded, and the scored ones (times inside (h_max,
1 - h_max)) follow in the same order.

S is a window sum along time, over G summed per distinct observation
time tau (a shared grid of m points gives m rows), in cells of width h_t
by the engine's sum-updating rule (``_engine``).  S_i is direct: a grid's
own windows hold few points, so one matmul per grid, its time weights
against its block of G, gives every member's own sums.  W and W_i take
the same two routes.  A leave-out window left empty is found by counting,
so rounding in the prefix moments cannot hide it.

Given the masses, the score adds up over y-grid columns, so the columns
are taken in blocks whose buffers stay within one (N, 201) H, N the number
of observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, InsufficientDataError
from ._engine import band_rule, cells, expansion, prefix_moments
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
    def geometric(cls, h_y_max: float = 2.4, steps: int = 4) -> "BandwidthGrid":
        """{(h_y_max 0.6^u, 0.3 0.6^v) : u, v = 0..steps-1}; see ``scaled_default``."""
        if steps < 1:
            raise DomainError("steps must be at least 1")
        pairs = [
            Bandwidths(h_y_max * 0.6**u, 0.3 * 0.6**v)
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


def _cv_values(
    sample: FunctionalSample,
    pairs: list[Bandwidths],
    h_max: float,
    kernel: Kernel,
) -> list[float]:
    """Objective values for several pairs, sharing H per h_y and time weights per h_t."""
    if sample.n < 2:
        raise InsufficientDataError("leave-one-out cross-validation needs at least 2 subjects")
    if not 0 < h_max < 0.5:
        raise DomainError(f"h_max must lie in (0, 0.5), got {h_max!r}")
    gy = _Y_GRID_SIZE
    grids = [sample.times[m[0]] for m in sample.grid_groups]
    tables = [np.stack([sample.values[i] for i in m], axis=1) for m in sample.grid_groups]
    scored = [np.flatnonzero((t > h_max) & (t < 1.0 - h_max)) for t in grids]
    interior = np.unique(np.concatenate([t[j] for t, j in zip(grids, scored)]))
    if interior.size == 0:
        raise DomainError(f"no observation times inside ({h_max}, {1 - h_max})")
    vals = np.concatenate([v.ravel() for v in tables])
    wts = np.concatenate([np.full(v.size, 1.0 / v.shape[0]) for v in tables])
    jumps = np.concatenate([v[j].ravel() for v, j in zip(tables, scored)])
    width = np.concatenate([np.full(t.size, v.shape[1]) for t, v in zip(grids, tables)])
    row_t = np.concatenate(grids)
    by_time = np.argsort(row_t, kind="stable")
    tau, tau_start = np.unique(row_t[by_time], return_index=True)

    def per_time(x):
        """Sums of the rows of ``x`` over each table row, then over each distinct time."""
        rows = np.add.reduceat(x, np.cumsum(width) - width, axis=0)
        return np.add.reduceat(rows[by_time], tau_start, axis=0)

    h_ts = sorted({bw.h_t for bw in pairs})
    col = {h_t: c for c, h_t in enumerate(h_ts)}
    lead = [next(p for p, bw in enumerate(pairs) if bw.h_t == h_t) for h_t in h_ts]
    expand = expansion(kernel.density_coeffs)[None]
    deg = expand.shape[-1]
    rules = []
    for h_t in h_ts:
        cell, vpow = cells(tau, h_t, deg)
        _, edges, weights = band_rule(tau, cell, interior, h_t, h_t, expand)
        # a cell's sum is its two edges' moments apart: weigh each edge's moments directly
        coef = -np.diff(np.pad(weights[:, 0], ((0, 0), (1, 1), (0, 0))), axis=1)
        rules.append((vpow, edges, coef.reshape(interior.size, 1, -1)))

    def window_sums(d, c):
        """Per scored time s: sum_tau K((s - tau) / h_t) d[tau], h_t = h_ts[c], d (T, columns)."""
        vpow, edges, coef = rules[c]
        mom = prefix_moments(vpow, d)[edges]  # every edge of every window in one gather
        return (coef @ mom.reshape(interior.size, -1, d.shape[1]))[:, 0]

    w_t, n_t = per_time(np.column_stack([wts, np.ones(vals.size)])).T  # mass and count per time
    mass = np.column_stack([window_sums(w_t[:, None], c)[:, 0] for c in range(len(h_ts))])
    n_t = np.append(0.0, np.cumsum(n_t))
    count = np.column_stack([n_t[e[:, -1]] - n_t[e[:, 0]] for _, e, _ in rules])
    h_col = np.array(h_ts)
    own_w, denom, at, fails = [], [], [], []
    for t, v, j, members in zip(grids, tables, scored, sample.grid_groups):
        ts = t[j, None]
        own_w.append(kernel.density((ts - t) / h_col[:, None, None]))  # (h_t, scored rows, m)
        k = np.searchsorted(interior, t[j])
        own = np.searchsorted(t, ts + h_col) - np.searchsorted(t, ts - h_col, side="right")
        fails += [(k[r], lead[c], members[0]) for r, c in zip(*np.nonzero(count[k] == own))]
        denom.append(np.repeat(mass[k] - own_w[-1].sum(axis=2).T / t.size, v.shape[1], axis=0))
        at.append(np.repeat(k, v.shape[1]))
    if fails:
        k, p, i = min(fails)  # the earliest time, then the first pair, then the first subject
        raise InsufficientDataError(
            f"no observations within h_t={pairs[p].h_t!r} of t={float(interior[k])!r} "
            f"after leaving out subject {sample.ids[i]!r}"
        )
    inv, at = 1.0 / np.concatenate(denom), np.concatenate(at)  # by scored observation

    groups: dict[float, list[int]] = {}
    for idx, bw in enumerate(pairs):
        groups.setdefault(bw.h_y, []).append(idx)
    most = max(len({pairs[i].h_t for i in idxs}) for idxs in groups.values())
    # Columns per block: G, H's argument and their per-time sums, one h_t's
    # moments and edge reads, the window sums, the numerators and lam hold at
    # most as many values as one H of all the y-grid's columns.
    reads = max(e.shape[1] for _, e, _ in rules) * deg
    per_col = 2 * (vals.size + row_t.size) + (deg + 1) * (tau.size + 1)
    per_col += (most + reads + 1) * interior.size + (most + 2) * jumps.size
    step = max(1, vals.size * gy // per_col)
    bounds = np.cumsum([0] + [j.size * v.shape[1] for v, j in zip(tables, scored)])
    offsets = np.cumsum([0] + [v.size for v in tables])

    allv = np.concatenate(sample.values)
    totals = [0.0] * len(pairs)
    for h_y, idxs in groups.items():
        ygrid = np.linspace(allv.min() - h_y, allv.max() + h_y, gy)
        # The split trapezoid of (1{Y <= y} - f(y))^2 is f^2.tw + (ygrid[-1] - Y) - f.lam,
        # with tw the trapezoid weights.  Y lies in cell c, (ygrid[c - 1], ygrid[c]], a
        # fraction r of the way up, and d = ygrid[c] - Y.  lam is 2 tw above c, and
        # d (1 - r) at c - 1 and dy[c] + d (1 + r) at c, where the cell is split.
        dy = np.append(np.diff(ygrid), 0.0)
        tw = 0.5 * (dy + np.roll(dy, 1))
        cell = np.clip(np.searchsorted(ygrid, jumps), 1, gy - 1)
        frac = (jumps - ygrid[cell - 1]) / (ygrid[cell] - ygrid[cell - 1])
        d = ygrid[cell] - jumps
        split = ((cell - 1, d * (1.0 - frac)), (cell, dy[cell] + d * (1.0 + frac)))
        use = sorted({col[pairs[i].h_t] for i in idxs})
        own_a = [a[use] for a in own_w]
        inv_u = inv[:, use].T
        score = np.zeros(len(use))
        for c0 in range(0, gy, step):
            b = min(step, gy - c0)
            g = (ygrid[c0 : c0 + b] - vals[:, None]) / h_y
            g = kernel.cdf(g, out=np.empty_like(g))
            g *= wts[:, None]
            dt = per_time(g)
            full = np.stack([window_sums(dt, c) for c in use])  # (h_t, time, column)
            # own sums, one matmul per grid, turned into leave-out numerators
            num = np.empty((len(use), jumps.size, b))
            for v, j, a, s, e, o in zip(tables, scored, own_a, bounds, bounds[1:], offsets):
                out = num[:, s:e].reshape(len(use), j.size, v.shape[1] * b)
                np.matmul(a, g[o : o + v.size].reshape(v.shape[0], -1), out=out)
            for q in range(len(use)):
                np.subtract(full[q, at], num[q], out=num[q])
            lam = np.where(np.arange(c0, c0 + b) > cell[:, None], 2.0 * tw[c0 : c0 + b], 0.0)
            for pos, val in split:
                hit = np.flatnonzero((pos >= c0) & (pos < c0 + b))
                lam[hit, pos[hit] - c0] = val[hit]
            lin = np.einsum("prb,rb->pr", num, lam)
            np.square(num, out=num)
            score += (((num @ tw[c0 : c0 + b]) * inv_u - lin) * inv_u).sum(axis=1)
        offset = float(np.sum(ygrid[-1] - jumps))
        for idx in idxs:
            totals[idx] = float(score[use.index(col[pairs[idx].h_t])]) + offset
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
