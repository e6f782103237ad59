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
time tau (a shared grid of m points gives m rows), by the engine's
sum-updating rule (``_engine``).  The h_t share cells by the engine's
``cell_sets``: each column block builds one set of prefix moments per set
of h_t, on cells as wide as its narrowest, and every h_t of the set reads
it.  The cells a window spans whole are weighed once per h_t, into a
matrix over the cell starts held in row chunks (``_cell_matrix``), so a
block's window sums are a matmul per chunk against the moments at the cell
starts plus two edge reads per window.  S_i is direct: a grid's own windows hold few
points, so one matmul per grid, its time weights against its block of G,
gives every member's own sums.  W and W_i take the same two routes.  A
leave-out window left empty is found by counting, so rounding in the
prefix moments cannot hide it.

Given the masses, the score adds up over y-grid columns, so the columns
are taken in blocks.  A block's buffers, the two edge reads per window
included, stay within one (N, 201) H, N the number of observations, or
within _BLOCK_FLOOR = 2^18 floats (2 MB) when that is more.  A chunk of
the whole-cell matrix is at most one cell wider than a window, so an h_t's
matrix holds no more than a gather of its windows' edges would for one
column.  The floor lets a small sample run fewer, wider blocks: 18 columns
a block instead of 13 on a 30-subject ragged sample (N x 201 = 193k).  It
left the peak resident memory of that sample's ``cv`` and ``summaries``
runs flat, where 2^19 floats added 4% and 2^20 added 10%.

The h_y groups write nothing they share: each has its own y-grid, H,
window sums, own sums and score, and fills its own pairs' values.  Once
N x 201 reaches 2^20 (``_THREADED_SIZE``), and there are two groups and two
CPUs this process may run on, a worker thread scores every other group
beside the calling thread, as numpy releases the interpreter lock in a
block's large kernels.  (Two workers instead left a second allocator arena
holding about 3 MB after the call.)  Each block then gets half the one-H
budget, even on one CPU: two blocks in flight stay within one H, and the
blocks, and so the values, are bitwise the same whatever the number of
CPUs.  Above the rule, threads won on every input measured (2 CPUs, 1 BLAS
thread, default grid); below it, they lose on the smallest.  On the
verification model they took CV at n = 20 from 13 to 22 ms, were even to
14% slower at n = 50, and won 1.3 to 1.9 times from n = 70 up (n = 200:
134 -> 78 ms; 300 subjects: 210 -> 115 ms).  On ragged samples (one grid
per subject, 25 to 40 times each; best of 5, threads off -> on) they took
30 subjects from 80 to 103 ms, and won from 80 subjects up: 244 -> 225 ms
at 80, 451 -> 378 ms at 160 (just below the rule), 757 -> 525 ms at 240,
and 1451 -> 924 ms on 100 subjects of 120 to 162 times each.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, InsufficientDataError
from ._engine import band_rule, cell_sets, cells, expansion, prefix_moments
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
# N x 201 from which CV scores its h_y groups on two threads (module notes)
_THREADED_SIZE = 2**20
# the least a column block's buffers may hold, in floats (2 MB; module notes)
_BLOCK_FLOOR = 2**18


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_width(one_h: int, per_col: int, threaded: bool) -> int:
    """y-grid columns per block: buffers of ``per_col`` floats a column within
    one H of ``one_h`` floats or _BLOCK_FLOOR, whichever is more; half that
    when threaded, however many threads run."""
    return max(1, max(one_h, _BLOCK_FLOOR) // (per_col * (2 if threaded else 1)))


def _cell_matrix(key, hi, first, w):
    """One h_t's window coefficients: its two edges, and whole cells as a banded matrix.

    ``w`` is (windows, cells, deg), ``band_rule``'s weights of the windows
    tau[lo:hi], none empty, whose c-th cell starts at table row first + c.
    With M(i) the prefix moments of the first i times, a window's sum is
    -w[q, 0] . M(lo) + w[q, last] . M(hi), plus (w[q, c - 1] - w[q, c]) .
    M(start of cell c) for c = 1 .. last, its last cell.  Returns the edge
    coefficients (windows, 2 deg) and the whole-cell ones as chunks (r0, r1,
    c0, mat): windows r0:r1 take mat @ the flattened moments at the cell
    starts from row c0 on.  A chunk takes the windows that end within
    cells + 1 of its first window's first cell, so its rows hold no more
    than a gather of each window's cells + 1 edges would for one column.
    """
    ni, ncell, deg = w.shape
    last = key[hi - 1] - first
    edge = np.concatenate([-w[:, 0], w[np.arange(ni), last]], axis=1)
    inner = w[:, :-1] - w[:, 1:]
    end = first + last
    chunks, r0 = [], 0
    while r0 < ni:
        r1 = int(np.searchsorted(end, first[r0] + ncell + 1, side="right"))
        rows, c = np.nonzero(np.arange(1, ncell) <= last[r0:r1, None])
        mat = np.zeros((r1 - r0, end[r1 - 1] - first[r0], deg))
        mat[rows, first[r0 + rows] + c - first[r0]] = inner[r0 + rows, c]
        chunks.append((r0, r1, (first[r0] + 1) * deg, mat.reshape(r1 - r0, -1)))
        r0 = r1
    return edge, chunks


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

    one_row = bool(np.all(width == 1))  # every table row holds one observation
    distinct = tau.size == row_t.size  # every observation time is distinct

    def per_time(x):
        """Sums of the rows of ``x`` over each table row, then over each distinct time.

        A sum the data make the identity (one observation per row, or one row
        per time) is skipped.
        """
        rows = x if one_row else np.add.reduceat(x, np.cumsum(width) - width, axis=0)
        rows = rows[by_time]
        return rows if distinct else np.add.reduceat(rows, tau_start, axis=0)

    h_ts = sorted({bw.h_t for bw in pairs})
    col = {h_t: c for c, h_t in enumerate(h_ts)}
    lead = [next(p for p, bw in enumerate(pairs) if bw.h_t == h_t) for h_t in h_ts]
    expand = expansion(kernel.density_coeffs)[None]
    deg = expand.shape[-1]
    # per cell set its points' offsets and cell starts; per h_t its set, window
    # edges, their coefficients and the matrix of whole-cell coefficients
    sets, rules = [], []
    for cell_width, shared in cell_sets(h_ts):
        cl = cells(tau, cell_width, deg, shared[-1])
        for h_t in shared:
            lo, hi, first, weights = band_rule(tau, cl, interior, h_t, cell_width, expand)
            edge, chunks = _cell_matrix(cl.key, hi, first, weights[:, 0])
            rules.append((len(sets), np.column_stack([lo, hi]), edge[:, None], chunks))
        sets.append((cl.vpow, cl.start))

    def window_sums(d, use):
        """out[q, s] = sum_tau K((s - tau) / h_t) d[tau] for h_t = h_ts[use[q]], d (T, columns).

        The moments of one cell set at a time; each h_t reads the moments at
        its cells' starts in one matmul per row chunk, and its window edges.
        """
        b = d.shape[1]
        out = np.empty((len(use), interior.size, b))
        for k in sorted({rules[c][0] for c in use}):
            vpow, start = sets[k]
            mom = prefix_moments(vpow, d)
            at_start = mom[start].reshape(-1, b)
            for q, c in enumerate(use):
                if rules[c][0] == k:
                    _, ends, edge, chunks = rules[c]
                    for r0, r1, c0, mat in chunks:
                        np.matmul(mat, at_start[c0 : c0 + mat.shape[1]], out=out[q, r0:r1])
                    out[q] += (edge @ mom[ends].reshape(interior.size, -1, b))[:, 0]
        return out

    w_t, n_t = per_time(np.column_stack([wts, np.ones(vals.size)])).T  # mass and count per time
    mass = window_sums(w_t[:, None], range(len(h_ts)))[:, :, 0].T
    n_t = np.append(0.0, np.cumsum(n_t))
    count = np.column_stack([n_t[e[:, 1]] - n_t[e[:, 0]] for _, e, *_ in rules])
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
    # Columns per block: G, H's argument and their per-time sums, one cell
    # set's moments and their rows at the cell starts, one h_t's two edge
    # reads per scored time, the window sums, the numerators and lam.
    per_col = 2 * (vals.size + row_t.size) + (deg + 1) * (tau.size + 1)
    per_col += deg * max(start.size for _, start in sets)
    per_col += (most + 2 * deg + 1) * interior.size + (most + 2) * jumps.size
    threaded = vals.size * gy >= _THREADED_SIZE
    step = _block_width(vals.size * gy, per_col, threaded)
    bounds = np.cumsum([0] + [j.size * v.shape[1] for v, j in zip(tables, scored)])
    offsets = np.cumsum([0] + [v.size for v in tables])

    allv = np.concatenate(sample.values)
    totals = [0.0] * len(pairs)

    def score_group(h_y, idxs):
        """Score the pairs ``idxs`` of one h_y into their own slots of ``totals``."""
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
        own_a = own_w if len(use) == len(h_ts) else [a[use] for a in own_w]  # no copy on a full grid
        inv_u = inv[:, use].T
        score = np.zeros(len(use))
        for c0 in range(0, gy, step):
            b = min(step, gy - c0)
            g = (ygrid[c0 : c0 + b] - vals[:, None]) / h_y
            g = kernel.cdf(g, out=np.empty_like(g))
            g *= wts[:, None]
            full = window_sums(per_time(g), use)  # (h_t, time, column)
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

    def score_all(items):
        for h_y, idxs in items:
            score_group(h_y, idxs)

    items = list(groups.items())
    if threaded and min(len(items), _cpus()) > 1:
        with ThreadPoolExecutor(max_workers=1) as pool:
            rest = pool.submit(score_all, items[1::2])
            try:
                score_all(items[::2])
            finally:
                rest.result()
    else:
        score_all(items)
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
