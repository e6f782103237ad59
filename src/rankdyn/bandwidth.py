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
serves shared and ragged grids alike.  Subjects are held as padded rows,
and the leave-out cdf is (all-subject sums - own sums) / (all mass - own
mass).

H, the kernel cdf in y, is evaluated once per h_y: for every padded
observation at every point of the y-grid, into an (n, m_max, 201) buffer.
The time weights K((t - t_k)/h_t) / m_i are exactly 0 outside
|t - t_k| <= h_t and on the padding at t = 2, so they select each time's
window; there is no window gather.  The sorted distinct interior times are
walked in consecutive blocks.  With P the most pairs sharing one h_y, a
block scores each subject at most L = max(1, m_max // (2P)) times and
holds at most max(1, 201 // (2P)) times; both limits come from the data
and the y-grid.  On a shared grid every subject is scored at every time,
so a block is L times (4 on the default grid with 32 points); on a ragged
grid it holds many.  The time weights of all pairs sharing an h_y, at all
B block times, form a (B, P, n, m_max) tensor.  One matmul against H gives
the all-subject sums at every block time.  One batched matmul gives the
own sums of every (subject, slot), from the subject's weights at the time
where that slot is scored.

Memory: H is one (n, m_max, 201) buffer, and a spare buffer of the same
size holds, in turn, H's argument, then each block's time weights and
their argument in its two halves, then the block's own sums and leave-out
numerators in its two halves.  The two limits above are what make each
pair of these fit in it.  Nothing else grows with H: the per-block rows
of lam are (n L, 201), which is L / m_max of H.
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


def _time_blocks(
    obs_i: np.ndarray, first: np.ndarray, n: int, slots: int, limit: int
) -> tuple[list[int], np.ndarray]:
    """Split the sorted interior times into consecutive blocks.

    ``first[k]:first[k + 1]`` indexes the scored subjects ``obs_i`` at time
    k.  A block ends before the time that would score one of its subjects
    ``slots + 1`` times, and after ``limit`` times.  Returns the block
    starts, with the number of times appended, and each scored
    observation's slot: how often its subject was scored earlier in the
    block.
    """
    starts = [0]
    count = np.zeros(n, dtype=np.intp)
    slot = np.empty(obs_i.size, dtype=np.intp)
    for k in range(first.size - 1):
        subjects = obs_i[first[k] : first[k + 1]]
        if k - starts[-1] == limit or np.any(count[subjects] == slots):
            starts.append(k)
            count[:] = 0
        slot[first[k] : first[k + 1]] = count[subjects]
        count[subjects] += 1
    starts.append(first.size - 1)
    return starts, slot


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
    n, gy = sample.n, _Y_GRID_SIZE
    m_max = max(t.size for t in sample.times)
    times = np.full((n, m_max), 2.0)
    vals = np.zeros((n, m_max))
    wts = np.zeros((n, m_max))
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

    groups: dict[float, list[int]] = {}
    for idx, bw in enumerate(pairs):
        groups.setdefault(bw.h_y, []).append(idx)
    width = max(len(idxs) for idxs in groups.values())
    # A block stages its time weights and then its own sums and leave-out
    # numerators in the two halves of a spare buffer as large as H; so that
    # they fit, it scores a subject at most ``slots`` times and holds at most
    # ``limit`` times.
    slots = max(1, m_max // (2 * width))
    limit = max(1, gy // (2 * width))
    half = max(-(-n * m_max * gy // 2), n * slots * width * gy, limit * width * n * m_max)
    spare = np.empty(2 * half)
    lo, hi = spare[:half], spare[half:]
    starts, obs_l = _time_blocks(obs_i, first, n, slots, limit)

    allv = np.concatenate(sample.values)
    totals = [0.0] * len(pairs)
    # H of every padded observation, reused for every h_y; its argument goes
    # in the spare buffer
    hu = np.empty((n, m_max, gy))
    arg = spare[: hu.size].reshape(hu.shape)
    for h_y, idxs in groups.items():
        ygrid = np.linspace(allv.min() - h_y, allv.max() + h_y, gy)
        np.subtract(ygrid, vals[:, :, None], out=arg)
        arg /= h_y
        kernel.cdf(arg, out=hu)
        # The split trapezoid of (1{Y <= y} - f(y))^2 is f^2.tw + (ygrid[-1] - Y) - f.lam,
        # with tw the trapezoid weights.  Y lies in cell c, (ygrid[c - 1], ygrid[c]], a
        # fraction r of the way up, and d = ygrid[c] - Y.  lam is 2 tw above c, and
        # d (1 - r) at c - 1 and dy[c] + d (1 + r) at c, where the cell is split.
        dy = np.append(np.diff(ygrid), 0.0)
        tw = 0.5 * (dy + np.roll(dy, 1))
        cell = np.clip(np.searchsorted(ygrid, jumps), 1, gy - 1)
        frac = (jumps - ygrid[cell - 1]) / (ygrid[cell] - ygrid[cell - 1])
        d = ygrid[cell] - jumps
        split = np.stack([d * (1.0 - frac), dy[cell] + d * (1.0 + frac)], axis=1)
        offset = float(np.sum(ygrid[-1] - jumps))
        h_ts = np.array([pairs[i].h_t for i in idxs])
        p = h_ts.size
        for s, e in zip(starts[:-1], starts[1:]):
            tb = interior[s:e]
            b = tb.size
            # the block's scored observations: subject bi at block time bk, in slot bl
            sel = slice(first[s], first[e])
            bi, bk, bl = obs_i[sel], obs_k[sel] - s, obs_l[sel]
            used = int(bl.max()) + 1
            # time weights of every pair at every block time, (B, P, n, m_max)
            u = hi[: b * p * n * m_max].reshape(b, p, n, m_max)
            np.subtract(tb[:, None, None, None], times, out=u)
            u /= h_ts[:, None, None]
            a = kernel.density(u, out=lo[: u.size].reshape(u.shape))
            a *= wts
            full = (a.reshape(b * p, -1) @ hu.reshape(-1, gy)).reshape(b, p, gy)
            mass = a.sum(axis=3)
            denom = mass.sum(axis=2)[bk] - mass[bk, :, bi]  # (K, P)
            bad = denom <= 0.0
            if bad.any():
                # the earliest time, then the first pair, then the first subject
                now = bk == bk[np.argmax(bad.any(axis=1))]
                q = int(np.argmax(bad[now].any(axis=0)))
                k = np.flatnonzero(now & bad[:, q])[0]
                raise InsufficientDataError(
                    f"no observations within h_t={pairs[idxs[q]].h_t!r} of t={float(tb[bk[k]])!r} "
                    f"after leaving out subject {sample.ids[bi[k]]!r}"
                )
            # weights of each (subject, slot) at the time where the slot scores
            own_a = hi[: n * used * p * m_max].reshape(n, used, p, m_max)
            own_a.fill(0.0)
            own_a[bi, bl] = a[bk, :, bi]
            own = lo[: n * used * p * gy].reshape(n, used * p, gy)
            np.matmul(own_a.reshape(n, used * p, m_max), hu, out=own)
            # leave-out numerators f * denom of every (subject, slot); unused slots weigh 0
            rows = bi * used + bl
            at = np.zeros(n * used, dtype=np.intp)
            at[rows] = bk
            num = hi[: n * used * p * gy].reshape(n * used, p, gy)
            np.take(full, at, axis=0, out=num, mode="clip")  # "raise" would buffer num
            num -= own.reshape(num.shape)
            inv = np.zeros((n * used, p))
            inv[rows] = 1.0 / denom
            c = np.full(n * used, gy - 1)
            c[rows] = cell[sel]
            lam = (np.arange(gy) > c[:, None]) * (2.0 * tw)
            lam[rows, cell[sel] - 1] = split[sel, 0]
            lam[rows, cell[sel]] = split[sel, 1]
            lin = (num @ lam[:, :, None])[..., 0]
            np.square(num, out=num)
            score = ((num @ tw) * inv - lin) * inv
            for idx, v in zip(idxs, score.sum(axis=0)):
                totals[idx] += float(v)
        for idx in idxs:
            totals[idx] += offset
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
