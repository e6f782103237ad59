"""Internal kernel-sum engine of the cdf, rank and derivative estimators and of CV.

All estimators reduce to five weighted sums over the pooled observations
(t_k, y_k) with per-point weights 1/m_i.  For query values y_q at a time t:

    S1(q) = sum_k w_k H((y_q - y_k)/h_Y) K((t - t_k)/h_T)
    S2    = sum_k w_k                    K((t - t_k)/h_T)
    S3(q) = sum_k w_k H((y_q - y_k)/h_Y) K'((t - t_k)/h_T)
    S4    = sum_k w_k                    K'((t - t_k)/h_T)
    S5(q) = sum_k w_k K((y_q - y_k)/h_Y) K((t - t_k)/h_T)

and the population averages are Q1 = S1/(n h_T), Q2 = S2/(n h_T),
Q3 = S3/(n h_T^2), Q4 = S4/(n h_T^2), Q5 = S5/(n h_Y h_T).  Only
observations with |t - t_k| < h_T have a nonzero time weight (compact
support); they form the time's window.

The sums are updated, not evaluated term by term (fast sum updating,
Langrene & Warin 2019, JCGS), by one rule on both axes: ``qbar_grid`` along
y and ``WindowSums``, CV's reader, along t.  On [-1, 1] H and K are
polynomials (coefficients on ``Kernel``); write P for either.  The sorted
points x_k are cut into cells of a width (``cells``), and x_k = c + width
v_k with c its cell's centre, so v_k lies in [-1/2, 1/2).  With
z = (x_q - c)/width, the binomial expansion
P(z - v_k) = sum_{s,r} A[s, r] z^s v_k^r
(``expansion``) turns the sum of a_k P((x_q - x_k)/reach) over the part of
the open band |x_k - x_q| < reach in one cell into
sum_{s,r} A[s, r] z^s M_r, where M_r = sum a_k v_k^r is a difference of two
prefix moments (``prefix_moments``; z and v in units of reach).
``cells`` also tabulates where each cell starts, once per set of cells.
``band_rule`` finds a band's two ends by ``searchsorted`` and its first
cell from its lower end; its inner cell edges are then rows of the table,
and its per-cell weights one 2-D matmul of the powers of z against the
stacked expansions: O(log N) and a small polynomial per query instead of
O(band).  The cells a band spans are counted from the data, so an edge
that rounding puts on a cell edge costs a cell, not a wrong sum.  In the
table a run of empty cells wider than any band counts as only just wider,
so it holds O(N) rows whatever the spread: a value 1e12 widths from the
rest adds a dozen rows.  The band may be open: a point on its edge has
K = 0, or H = 1 and lies in the mass below it.  Who is in a band is
decided in the caller's units: ``WindowSums`` compares times as they are
(its docstring says why), and ``qbar_grid`` passes values it has already
scaled, with width 1.

Along y, with a_k a time weight (w_k K or w_k K') and
u_k = (y_q - y_k)/h_Y, H is 1 for u >= 1 and 0 for u <= -1, so sum_k a_k
H(u_k) is the prefix sum of a_k over y_k <= y_q - h_Y plus a band sum.
``flatten`` sorts the pooled observations by value once, ties broken by
time.  ``qbar_grid`` walks its times in ascending order in consecutive
blocks.  Each h_Y writes a block's raw S1, S3 and S5 columns into one
array in the caller's time order.  At the end that array, and the S2 and
S4 totals, are scaled in place by each column's normaliser, and every
pair's Q1 .. Q5 are read-only views of the scaled sums, with no copy per
pair.  A block's window, every observation within the widest h_T of its
[first, last] time, is picked out of the value-sorted data and so stays
sorted.  Its prefix moments have one column per block time, distinct h_T
and K or K'; a query reads only its own time's columns, where
observations outside that time's window weigh zero.  A block grows while
its prefix moments, (window size + 1) x times x columns x powers, stay
within a fixed working set, BLOCK_MOMENTS = 2^16 floats (512 KB); a time
whose window alone holds more is a block of its own.  So a small sample
merges many times into one block and pays each block's fixed cost a few
times, not once per time, while a large one, whose single time fills the
bound, gets one time per block.  The blocks run on one thread, which two
threads did not beat on any sample size measured.

One rule (``cell_sets``) decides which bandwidths share a set of cells, on
both axes: the h_Y of ``qbar_grid`` and the h_T of CV.  A set takes the
narrowest bandwidth left and every other within a factor SHARE = 5 of it,
and all of them read one set of prefix moments on cells as wide as that
narrowest one (moments in units of a wider reach are the same sums scaled
by a power of the width ratio).  A band of reach h on cells of width w
spans at most ceil(2 h / w) + 1 cells, so at most 11 cells and 12 edges.
The factor is the smallest round one that puts the default CV grid's four
values on each axis (ratio 1 / 0.6^3 = 4.63) in one set; it is bounded so
that a wide grid (``--cv-grid 8x8``, ratio 36) splits into sets instead of
reading dozens of cells per band.

The moments are cell-local because centring matters here.  About a single
centre they would carry powers of (y range / h_Y) up to the polynomial
degree (3 for Epanechnikov, 5 for biweight), and their differences would
cancel catastrophically when one subject sits far from the rest.
Cell-local moments are bounded by the window's total weight, so the error
stays at rounding level whatever the spread of the data.

Each caller reads the moments its own way: ``qbar_grid`` takes each cell's
moment difference, then weighs it, and ``WindowSums`` weighs the edge
moments directly; its docstring says why.

No temporary is a (queries x window) product, so queries need no chunking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel


@dataclass
class FlatData:
    """Pooled observations sorted by value, ties broken by time."""

    t: np.ndarray  # (N,)
    y: np.ndarray  # (N,) ascending
    w: np.ndarray  # (N,) per-point weight 1/m_subject
    n: int         # number of subjects


def flatten(times, values, n: int) -> FlatData:
    t = np.concatenate(times)
    y = np.concatenate(values)
    w = np.concatenate([np.full(ti.size, 1.0 / ti.size) for ti in times])
    order = np.lexsort((t, y))
    return FlatData(t[order], y[order], w[order], n)


def flatten_sample(sample) -> FlatData:
    """FlatData view of a FunctionalSample or SmoothedSample."""
    if hasattr(sample, "times"):
        return flatten(sample.times, sample.values, sample.n)
    # smoothed: every subject lives on the shared eval grid
    grids = [sample.eval_grid] * sample.n
    return flatten(grids, list(sample.values), sample.n)


def expansion(coeffs) -> np.ndarray:
    """A with P(z - v) = sum_{s,r} A[s, r] z^s v^r, for P(x) = sum_d coeffs[d] x^d."""
    a = np.zeros((len(coeffs), len(coeffs)))
    for d, c in enumerate(coeffs):
        for r in range(d + 1):
            a[d - r, r] = c * math.comb(d, r) * (-1) ** r
    return a


@functools.lru_cache(maxsize=None)
def _expansions(kern: Kernel) -> np.ndarray:
    """Expansions of H and of K (zero-padded to H's degree), stacked; read-only."""
    out = np.stack([expansion(kern.cdf_coeffs), expansion(kern.density_coeffs + (0.0,))])
    out.flags.writeable = False
    return out


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x^0 .. x^(count-1) along a new last axis, by repeated multiplication."""
    out = np.empty(x.shape + (count,))
    out[..., 0] = 1.0
    for r in range(1, count):
        out[..., r] = out[..., r - 1] * x
    return out


@dataclass
class Cells:
    """The cells of a set of sorted points, and where each cell starts."""

    cell: np.ndarray   # (N,) each point's cell floor(x / width)
    key: np.ndarray    # (N,) its row of ``start``
    start: np.ndarray  # start[k]: the first point whose key is k or more; start[-1] = N
    vpow: np.ndarray   # (N, deg) offsets from the cell centres, in widths, to powers 0 .. deg-1


def cells(x: np.ndarray, width: float, deg: int, reach: float) -> Cells:
    """The cells floor(x / width) of the sorted ``x``, for bands of at most ``reach``.

    The keys count cells from the first point's, except that a run of more
    empty cells than a band of ``reach`` spans counts as that many, so the
    start table holds at most N (span + 1) + 1 rows whatever the spread of
    ``x``.  A band's cells then have consecutive keys.
    """
    u = x / width
    cell = np.floor(u)
    span = int(2.0 * reach / width) + 2  # more cells than any band spans
    key = np.concatenate([[0], np.cumsum(np.minimum(np.diff(cell), span).astype(np.intp))])
    start = np.searchsorted(key, np.arange(key[-1] + 2))
    return Cells(cell, key, start, _powers(u - cell - 0.5, deg))


def prefix_moments(vpow: np.ndarray, a: np.ndarray) -> np.ndarray:
    """mom[i, ..., r, c] = sum_{j<i} a[j, ..., c] vpow[j, r] for ``a`` (points, ..., columns)."""
    mom = np.empty((a.shape[0] + 1, *a.shape[1:-1], vpow.shape[1], a.shape[-1]))
    mom[0] = 0.0
    v = vpow.reshape(vpow.shape[:1] + (1,) * (a.ndim - 2) + (-1, 1))
    np.multiply(v, a[..., None, :], out=mom[1:])
    np.cumsum(mom[1:], axis=0, out=mom[1:])
    return mom


def band_rule(x, cl: Cells, xq, reach: float, width: float, expand: np.ndarray):
    """Band edges, first cells and per-cell weights of the open bands |x - xq| < reach.

    ``x`` is sorted, ``cl`` its cells of ``width``, made for bands at least
    this wide, and ``expand`` a stack of kernel expansions.  Returns (lo, hi,
    first, weights): the band of query q is x[lo[q]:hi[q]], its c-th cell
    starts at cl.start[first[q] + c] (for c >= 1; cut to the band) and
    weights[q] is (kernels, cells, deg): the sum of P_f((xq - x) / reach)
    over the band's part of its c-th cell is weights[q, f, c] times that
    part's moments about the cell's centre.
    """
    lo = np.searchsorted(x, xq - reach, side="right")
    hi = np.searchsorted(x, xq + reach, side="left")
    at = np.minimum(lo, x.size - 1)
    first = cl.key[at]
    ncell = int((cl.key[hi - 1] - first).max(initial=0, where=hi > lo)) + 1
    # z and v in units of the band's half width: scale the r-th moment by (width / reach)^r
    half, (kernels, deg, _) = reach / width, expand.shape
    z = (xq[..., None] / width - (cl.cell[at][..., None] + np.arange(ncell) + 0.5)) / half
    scale = _powers(np.float64(1.0 / half), deg)
    coef = (expand * scale).transpose(1, 0, 2).reshape(deg, kernels * deg)
    weights = (_powers(z, deg).reshape(-1, deg) @ coef).reshape(*z.shape, kernels, deg)
    return lo, hi, first, weights.swapaxes(-2, -3)


# Bandwidths within this factor of the narrowest in their set share its
# cells (module notes).
SHARE = 5.0


def cell_sets(hs):
    """The distinct bandwidths ``hs`` in sets that share one set of cells.

    Yields (width, [h, ...]) per set, in ascending order: each set takes the
    narrowest bandwidth left as its cell width and every other within SHARE
    times it.
    """
    hs = sorted({float(h) for h in hs})
    while hs:
        shared = [h for h in hs if h <= SHARE * hs[0]]
        yield hs[0], shared
        hs = hs[len(shared):]


def _cell_matrix(key, lo, hi, first, w):
    """One bandwidth's windows: their ends, edge coefficients and whole cells as a banded matrix.

    ``w`` is (windows, cells, deg), ``band_rule``'s weights of the windows
    tau[lo:hi], none empty, whose c-th cell starts at table row first + c.
    With M(i) the prefix moments of the first i times, a window's sum is
    -w[q, 0] . M(lo) + w[q, last] . M(hi), plus (w[q, c - 1] - w[q, c]) .
    M(start of cell c) for c = 1 .. last, its last cell.  Returns the ends
    (windows, 2), lo and hi, the edge coefficients (windows, 1, 2 deg) and
    the whole-cell ones as chunks (r0, r1, c0, mat): windows r0:r1 take
    mat @ the flattened moments at the cell starts from row c0 on.  A chunk
    takes the windows that end within cells + 1 of its first window's first
    cell, so its rows hold no more than a gather of each window's cells + 1
    edges would for one column.
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
    return np.column_stack([lo, hi]), edge[:, None], chunks


class WindowSums:
    """CV's window sums along time: sum_tau K((s - tau) / h) d[tau] at each query time s.

    ``tau`` are the distinct observation times, ascending, ``queries`` the
    times s, each one of ``tau``, so no window is empty, and ``hs`` the
    bandwidths h; the c-th bandwidth is the c-th smallest distinct one.
    ``sums(d, use)`` reads a (len(tau), columns) ``d`` for the bandwidths
    ``use``.  A window is open and decided in time units, tau > s - h, not
    (s - tau) / h < 1, as CV's count of a subject's own observations is:
    ``ends[c]`` holds each query's window tau[lo:hi] for the c-th bandwidth,
    (queries, 2), so CV counts the observations in it exactly.

    The bandwidths share cells by ``cell_sets``: each call builds one set of
    prefix moments of ``d`` per set of bandwidths it reads, on cells as wide
    as the set's narrowest, and every bandwidth of the set reads it.  The
    reader weighs the edge moments directly, where ``qbar_grid`` takes each
    cell's moment difference first.  An empty band of ``qbar_grid`` takes
    its first cell from the next point above, which can lie far away, and
    its huge weights cancel exactly only against zero differences, so
    weighing its edge moments directly would lose the sum when one subject
    sits far from the rest.  A window here holds its own query time, so is
    never empty, and it skips a difference per cell.  A window's inner edges are cell starts, which all
    windows share, so they are weighed once per bandwidth into a matrix over
    the cell starts, banded in row chunks (``_cell_matrix``).  Each
    bandwidth's window sums are then a matmul per chunk against the moments
    at the cell starts, plus the reads at each window's two ends.  A chunk
    is at most one cell wider than a window, so a bandwidth's matrix holds
    no more than a gather of its windows' edges would for one column.

    ``floats_per_column`` is what one call's buffers take per column of
    ``d``, besides its output: one cell set's prefix moments, their rows at
    the cell starts, and one bandwidth's two edge reads and their sum per
    query.  Nothing is written after the build, and each call allocates its
    own output, so threads may call ``sums`` at once.
    """

    def __init__(self, tau, queries, hs, kernel: Kernel):
        expand = expansion(kernel.density_coeffs)[None]
        deg = expand.shape[-1]
        self._cells, self._rules = [], []
        for width, shared in cell_sets(hs):
            cl = cells(tau, width, deg, shared[-1])
            for h in shared:
                lo, hi, first, w = band_rule(tau, cl, queries, h, width, expand)
                self._rules.append((len(self._cells), *_cell_matrix(cl.key, lo, hi, first, w[:, 0])))
            self._cells.append(cl)
        self.ends = [ends for _, ends, _, _ in self._rules]
        self.floats_per_column = (deg + 1) * (tau.size + 1) + (2 * deg + 1) * queries.size
        self.floats_per_column += deg * max(cl.start.size for cl in self._cells)

    def sums(self, d, use):
        """out[q, s] = the window sum of ``d`` at query s for the use[q]-th bandwidth."""
        b = d.shape[1]
        out = np.empty((len(use), len(self.ends[0]), b))
        for k in sorted({self._rules[c][0] for c in use}):
            mom = prefix_moments(self._cells[k].vpow, d)
            at_start = mom[self._cells[k].start].reshape(-1, b)
            for q, (k_q, ends, edge, chunks) in enumerate(self._rules[c] for c in use):
                if k_q == k:
                    for r0, r1, c0, mat in chunks:
                        np.matmul(mat, at_start[c0 : c0 + mat.shape[1]], out=out[q, r0:r1])
                    out[q] += (edge @ mom[ends].reshape(len(ends), -1, b))[:, 0]
        return out


# A block's prefix moments, zero row included, hold at most this many floats
# (512 KB), unless one time's alone hold more.  See the module notes.
BLOCK_MOMENTS = 2**16


def _blocks(t_sorted: np.ndarray, ts: np.ndarray, h_t: float, per_time: int = 1):
    """Consecutive blocks [start, stop) of the ascending times ``ts``.

    A block grows while its window, the observations with time in
    [ts[start] - h_t, ts[stop - 1] + h_t], plus one, times its number of
    times and ``per_time`` (moments per observation and time) stays within
    BLOCK_MOMENTS; a time whose own window exceeds it is a block alone.
    """
    lo = np.searchsorted(t_sorted, ts - h_t, side="left")
    hi = np.searchsorted(t_sorted, ts + h_t, side="right")
    start = 0
    for stop in range(1, ts.size + 1):
        if stop == ts.size or (
            (hi[stop] - lo[start] + 1) * (stop + 1 - start) * per_time > BLOCK_MOMENTS
        ):
            yield start, stop
            start = stop


def qbar_grid(flat: FlatData, kern: Kernel, pairs, ts, yq, partials: bool = True):
    """All five averages on a grid of times for each (h_y, h_t) pair.

    ``pairs`` is a sequence of (h_y, h_t) tuples, ``ts`` is (T,) in any
    order and ``yq`` is (Q, T), column j queried at ts[j].  Returns a list
    of (q1, q2, q3, q4, q5) aligned with ``pairs``: Q1, Q3 and Q5 are (Q, T)
    and Q2 and Q4 are (T,), all zero at a time with no data within h_t.  A
    query more than h_y above every value within h_t of its time gets Q1 = Q2
    and Q3 = Q4 exactly.  With ``partials=False`` only (q1, q2) are built:
    no K' time weights and no K moments.  The averages are read-only views
    of one scaled array per h_y and one of the totals, so pairs that share
    an h_y or an h_t share memory, and a repeated pair reads the same.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    yq = np.asarray(yq, dtype=float)
    col = {ht: c for c, ht in enumerate(sorted({float(ht) for _, ht in pairs}))}
    h_ts = np.array(list(col))
    n, nt, reach = flat.n, h_ts.size, h_ts[-1]
    expand = _expansions(kern) if partials else _expansions(kern)[:1]
    deg = expand.shape[-1]

    groups: dict[float, list[int]] = {}
    for idx, (hy, _) in enumerate(pairs):
        groups.setdefault(float(hy), []).append(idx)

    # raw sums in the caller's time order: per h_y S1 and S3 per time weight
    # column, then S5 per h_t; S2 and S4 per column; scaled in place at the end
    ncol = expand.shape[0] * nt
    raw = {hy: np.zeros((*yq.shape, ncol + nt * partials)) for hy in groups}
    total = np.zeros((ts.size, ncol))
    order = np.argsort(ts, kind="stable")
    per_time = ncol * deg  # K (and K') columns of each h_t, times their powers
    for start, stop in _blocks(np.sort(flat.t), ts[order], reach, per_time):
        cols = order[start:stop]
        tb, own = ts[cols], np.arange(cols.size)
        near = np.flatnonzero((flat.t >= tb[0] - reach) & (flat.t <= tb[-1] + reach))
        if near.size == 0:
            continue
        ys = flat.y[near]
        arg = (tb[:, None] - flat.t[near, None, None]) / h_ts
        ww = flat.w[near, None, None]
        # per block time: K for each distinct h_t, then K' for each
        a = kern.density(arg) * ww
        if partials:
            a = np.concatenate([a, kern.density_deriv(arg) * ww], axis=-1)
        # count cells from the middle value: keeps |u|, and so its rounding, small for the bulk
        origin = ys[ys.size // 2]
        for width, shared in cell_sets(groups):
            u = (ys - origin) / width
            cl = cells(u, 1.0, deg, shared[-1] / width)
            mom = prefix_moments(cl.vpow, a)
            total[cols] = mom[-1, :, 0]
            uq = (yq[:, cols] - origin) / width
            for hy in shared:
                lo, hi, first, weights = band_rule(u, cl, uq, hy / width, 1.0, expand)
                # the band's inner cell edges, read from the table and cut to the band
                inner = first[..., None] + np.arange(1, weights.shape[-2])
                inner = np.minimum(np.take(cl.start, inner, mode="clip"), hi[..., None])
                edges = np.concatenate([lo[..., None], inner, hi[..., None]], axis=-1)
                # each cell's moment difference, then its weights (see ``WindowSums``)
                band = np.diff(mom[edges, own[:, None]], axis=2).reshape(*uq.shape, -1, a.shape[-1])
                sums = weights.reshape(*uq.shape, expand.shape[0], -1) @ band
                sums[:, :, 0] += mom[lo, own, 0]
                raw[hy][:, cols, :ncol] = sums[:, :, 0]
                if partials:
                    raw[hy][:, cols, ncol:] = sums[:, :, 1, :nt]
    # each column by its normaliser, in place: n h_t for S1 and S2, n h_t^2 for S3
    # and S4, n h_y h_t for S5; then every pair reads views of its columns
    scale = [n * h_ts, n * h_ts * h_ts][: expand.shape[0]]
    total /= np.concatenate(scale)
    total.flags.writeable = False
    for hy, s in raw.items():
        s /= np.concatenate(scale + [n * hy * h_ts] * partials)
        s.flags.writeable = False
    out = []
    for hy, ht in pairs:
        c, s = col[float(ht)], raw[float(hy)]
        q = [s[..., c], total[:, c]]
        if partials:
            q += [s[..., nt + c], total[:, nt + c], s[..., ncol + c]]
        out.append(tuple(q))
    return out
