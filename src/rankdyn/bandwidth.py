"""Leave-one-out cross-validation for the (h_y, h_t) bandwidth pair.

The objective compares, for every observation at an interior time, the
indicator 1{Y_ij <= y} with the smoothed cross-sectional cdf recomputed
without subject i, squared and integrated over y: the CRPS of the
leave-out predictive cdf.  The interior times are those the estimators
keep, [h_max, 1 - h_max] closed within 1e-9 with h_max the grid's largest
h_t (``ranks._inside``), so reversing time scores the same observations.
The y-integral runs on a 201-point grid over [min Y - h_y, max Y + h_y]
(trapezoid, split at the indicator's jump so both pieces stay smooth);
with compact-support kernels the integrand vanishes identically outside
that window, so the truncation is exact.

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
observations, S_i over i's own, and W, W_i the same sums of w_k.  The top
y-grid column lies h_y above every value, where H = 1, so S - S_i there is
W - W_i: the leave-out masses are the numerators of that column.  H is
evaluated once per h_y; time weights, window edges and coefficients once
per h_t.  The subjects sharing an observation grid (``grid_groups``) form
a row-major (time x member) table; the observations are the tables one
after another, unpadded, and the scored ones (those at interior times)
follow in the same order.

S is a window sum along time, over G summed per distinct observation
time tau (a shared grid of m points gives m rows), read for each column
block by the engine's ``WindowSums``; its docstring says how.  S_i is
direct: a grid's own windows hold few points, so one matmul per grid, its
time weights against its block of G, gives every member's own sums.  A
leave-out window left empty is found by counting the observations within
the reader's window ends, so rounding in the prefix moments cannot hide
it.

The score adds up over y-grid columns, so the columns are taken in
blocks, from the top down: the first block, full width, holds the top
column and so the masses every block divides by, and the remainder block
is the bottom one.  A block's buffers, the window-sum reader's included,
stay within one (N, 201) H, N the number of observations, but within no
less than _BLOCK_FLOOR floats, so a small sample runs fewer, wider
blocks, and no more than _BLOCK_CEILING, so a large one keeps a bounded
working set.  A block holds at least one column, about 7 floats per
observation on the default grid, so CV's memory grows with N, not with
N x 201.  The bulk of a block is never held twice: H, the numerators and
the score's two sums per scored value are one buffer each per thread,
sized for the h_y group with the most h_t, which every block of every
group that thread scores reuses, and H's argument is released as soon as
H is evaluated.  Arrays made fresh for each block would be handed back to
the system and faulted in again at every block; for the same reason a
block's window sums and lam go only when the next block's replace them.
CHANGES.md records the measurements behind each of these sizes.

The h_y groups scored at once write nothing they share: each has its own
y-grid, window sums and score, its thread's H, own sums and lam, and fills
its own pairs' values; the window-sum reader they share is only read after
it is built.  Once N x 201 reaches _THREADED_SIZE, and there are two
groups and two CPUs this process may run on, a worker thread scores every
other group beside the calling thread, as numpy releases the interpreter
lock in a block's large kernels; on smaller inputs the thread costs more
than it saves.  The calling thread allocates both threads' buffer sets
before the worker starts, so the worker's allocator arena does not grow by
a set that pages the caller freed could hold; for the same reason there is
one worker, not two.  Each block then gets half the budget above, even on
one CPU: two blocks in flight stay within it, and the blocks, and so the
values, are bitwise the same whatever the number of CPUs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, InsufficientDataError
from ._engine import WindowSums
from .kernels import EPANECHNIKOV, Kernel
from .ranks import Bandwidths, _inside
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
# the least and the most a column block's buffers may hold, in floats (2 and 8 MB; module notes)
_BLOCK_FLOOR = 2**18
_BLOCK_CEILING = 2**20


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_width(one_h: int, per_col: int, threaded: bool) -> int:
    """y-grid columns per block: buffers of ``per_col`` floats a column within
    one H of ``one_h`` floats, put between _BLOCK_FLOOR and _BLOCK_CEILING;
    half that when threaded, however many threads run; at least one column."""
    budget = min(max(one_h, _BLOCK_FLOOR), _BLOCK_CEILING)
    return max(1, budget // (per_col * (2 if threaded else 1)))


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
    scored = [_inside(t, h_max) for t in grids]
    interior = np.unique(np.concatenate([t[j] for t, j in zip(grids, scored)]))
    if interior.size == 0:
        raise DomainError(f"no observation times inside [{h_max}, {1 - h_max}]")
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
    windows = WindowSums(tau, interior, h_ts, kernel)

    # observations before each time, counted exactly
    n_t = np.append(0.0, np.cumsum(per_time(np.ones((vals.size, 1)))))
    count = np.column_stack([n_t[e[:, 1]] - n_t[e[:, 0]] for e in windows.ends])
    h_col = np.array(h_ts)
    own_w, at, fails = [], [], []
    for t, v, j, members in zip(grids, tables, scored, sample.grid_groups):
        ts = t[j, None]
        own_w.append(kernel.density((ts - t) / h_col[:, None, None]))  # (h_t, scored rows, m)
        k = np.searchsorted(interior, t[j])
        own = np.searchsorted(t, ts + h_col) - np.searchsorted(t, ts - h_col, side="right")
        fails += [(k[r], lead[c], members[0]) for r, c in zip(*np.nonzero(count[k] == own))]
        at.append(np.repeat(k, v.shape[1]))
    if fails:
        k, p, i = min(fails)  # the earliest time, then the first pair, then the first subject
        raise InsufficientDataError(
            f"no observations within h_t={pairs[p].h_t!r} of t={float(interior[k])!r} "
            f"after leaving out subject {sample.ids[i]!r}"
        )
    at = np.concatenate(at)  # by scored observation

    groups: dict[float, list[int]] = {}
    for idx, bw in enumerate(pairs):
        groups.setdefault(bw.h_y, []).append(idx)
    most = max(len({pairs[i].h_t for i in idxs}) for idxs in groups.values())
    # Floats per y-grid column besides the window-sum reader's: G, H's argument
    # and their per-time sums, the window sums, the numerators and lam.
    per_col = 2 * (vals.size + row_t.size) + most * interior.size + (most + 2) * jumps.size
    threaded = vals.size * gy >= _THREADED_SIZE
    step = _block_width(vals.size * gy, per_col + windows.floats_per_column, threaded)
    bounds = np.cumsum([0] + [j.size * v.shape[1] for v, j in zip(tables, scored)])
    offsets = np.cumsum([0] + [v.size for v in tables])

    totals = [0.0] * len(pairs)

    def buffers():
        """H, the numerators and the score's two per-value sums, for the group with most h_t."""
        return (np.empty(vals.size * step), np.empty(most * jumps.size * step),
                np.empty((2, most, jumps.size)))

    def score_group(h_y, idxs, bufs):
        """Score the pairs ``idxs`` of one h_y into their own slots of ``totals``, in ``bufs``."""
        ygrid = np.linspace(vals.min() - h_y, vals.max() + h_y, gy)
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
        score = np.zeros(len(use))
        g_buf, num_buf, sums = bufs
        lin, quad = sums[:, : len(use)]
        for c1 in range(gy, 0, -step):  # top down: the first block holds the masses
            c0 = max(0, c1 - step)
            b = c1 - c0
            arg = (ygrid[c0 : c0 + b] - vals[:, None]) / h_y
            g = kernel.cdf(arg, out=g_buf[: vals.size * b].reshape(vals.size, b))
            del arg
            g *= wts[:, None]
            full = windows.sums(per_time(g), use)  # (h_t, time, column)
            # own sums, one matmul per grid, turned into leave-out numerators
            num = num_buf[: len(use) * jumps.size * b].reshape(len(use), jumps.size, b)
            for v, j, a, s, e, o in zip(tables, scored, own_a, bounds, bounds[1:], offsets):
                out = num[:, s:e].reshape(len(use), j.size, v.shape[1] * b)
                np.matmul(a, g[o : o + v.size].reshape(v.shape[0], -1), out=out)
            for q in range(len(use)):
                np.subtract(full[q, at], num[q], out=num[q])
            if c1 == gy:  # H = 1 at the top column, so its numerators are the leave-out masses
                inv_u = 1.0 / num[:, :, -1]
            lam = np.where(np.arange(c0, c0 + b) > cell[:, None], 2.0 * tw[c0 : c0 + b], 0.0)
            for pos, val in split:
                hit = np.flatnonzero((pos >= c0) & (pos < c0 + b))
                lam[hit, pos[hit] - c0] = val[hit]
            np.einsum("prb,rb->pr", num, lam, out=lin)
            np.square(num, out=num)
            np.matmul(num, tw[c0 : c0 + b], out=quad)
            quad *= inv_u
            quad -= lin
            quad *= inv_u
            score += quad.sum(axis=1)
        offset = float(np.sum(ygrid[-1] - jumps))
        for idx in idxs:
            totals[idx] = float(score[use.index(col[pairs[idx].h_t])]) + offset

    def score_all(items, bufs):
        for h_y, idxs in items:
            score_group(h_y, idxs, bufs)

    items = list(groups.items())
    if threaded and min(len(items), _cpus()) > 1:
        import concurrent.futures  # loads logging, which only this branch needs

        # both threads' buffers come from this thread's arena (module notes)
        mine, theirs = buffers(), buffers()
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            rest = pool.submit(score_all, items[1::2], theirs)
            try:
                score_all(items[::2], mine)
            finally:
                rest.result()
    else:
        score_all(items, buffers())
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
