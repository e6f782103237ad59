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
y and CV (``bandwidth``) along t.  On [-1, 1] H and K are polynomials
(coefficients on ``Kernel``); write P for either.  The sorted points x_k
are cut into cells of a width (``cells``), and x_k = c + width v_k with c
its cell's centre, so v_k lies in [-1/2, 1/2).  With z = (x_q - c)/width,
the binomial expansion P(z - v_k) = sum_{s,r} A[s, r] z^s v_k^r
(``expansion``) turns the sum of a_k P((x_q - x_k)/reach) over the part of
the open band |x_k - x_q| < reach in one cell into
sum_{s,r} A[s, r] z^s M_r, where M_r = sum a_k v_k^r is a difference of two
prefix moments (``prefix_moments``; z and v in units of reach).
``band_rule`` cuts each band at its cell edges by ``searchsorted`` and
weighs each cell's moments: O(log N) and a small polynomial per query
instead of O(band).  The cells a band spans are counted from the data, so
an edge that rounding puts on a cell edge costs a cell, not a wrong sum.
The band may be open: a point on its edge has K = 0, or H = 1 and lies in
the mass below it.  Who is in a band is decided in the caller's units: CV
compares times as they are (tau > s - h_t), as its own-subject count does,
and ``qbar_grid`` passes values it has already scaled, with width 1.

Along y, with a_k a time weight (w_k K or w_k K') and
u_k = (y_q - y_k)/h_Y, H is 1 for u >= 1 and 0 for u <= -1, so sum_k a_k
H(u_k) is the prefix sum of a_k over y_k <= y_q - h_Y plus a band sum.
``flatten`` sorts the pooled observations by value once, ties broken by
time.  ``qbar_grid`` walks its times in ascending order (the outputs keep
the caller's order) in consecutive blocks.  A block's window, every
observation within the widest h_T of its [first, last] time, is picked out
of the value-sorted data and so stays sorted.  Its prefix moments have one
column per block time, distinct h_T and K or K'; a query reads only its own
time's columns, where observations outside that time's window weigh zero.
A block grows while its prefix moments, (window size + 1) x times x
columns x powers, stay within a fixed working set, BLOCK_MOMENTS = 2^16
floats (512 KB); a time whose window alone holds more is a block of its
own.  On the verification model (m = 31, 16 pairs, 41 trimmed times) that
merges n = 20's times into 9 blocks and n = 50's into 21, where a bound of N
on window x times gave one time per block, and leaves n = 200, where one
time's moments already fill the bound, as it was.  ``decompose_many`` took
32 -> 16 ms at n = 20 and 48 -> 38 ms at n = 50 (best CPU time, 1 BLAS
thread).  2^17 saved 3 ms more at n = 50 but slowed a 300-subject
``decompose`` by 10%; 2^15 saved nothing at n = 50.  The blocks run on one
thread: on two (2 CPUs) they made n <= 50 1.7 times slower and n = 200
no faster.

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

Each caller reads the moments its own way.  ``qbar_grid`` takes each
cell's moment difference, then weighs it: an empty band takes its first
cell from the next point above, which can lie far away, and its huge
weights cancel exactly only against zero differences.  Weighing the edge
moments directly put it 1.8e-10 (Epanechnikov, an outlier 50 units out)
to 0.57 (biweight, 500 out) from the direct sums.  A CV window holds its
own time, so is never empty; CV weighs the edge moments directly, as
differencing first made ``select_bandwidths`` 1.5 to 2 times slower on
ragged samples of 30 to 120 subjects.  It builds one set of prefix moments
per column block for every h_T of a set, and reads each h_T's window edges
from it in one gathered matmul.

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


def cells(x: np.ndarray, width: float, deg: int):
    """The cells floor(x / width) of ``x``, and each point's offset from its
    cell's centre, in units of the width, to the powers 0 .. deg-1: (cell, vpow)."""
    u = x / width
    cell = np.floor(u)
    return cell, _powers(u - cell - 0.5, deg)


def prefix_moments(vpow: np.ndarray, a: np.ndarray) -> np.ndarray:
    """mom[i, ..., r, c] = sum_{j<i} a[j, ..., c] vpow[j, r] for ``a`` (points, ..., columns)."""
    mom = np.empty((a.shape[0] + 1, *a.shape[1:-1], vpow.shape[1], a.shape[-1]))
    mom[0] = 0.0
    v = vpow.reshape(vpow.shape[:1] + (1,) * (a.ndim - 2) + (-1, 1))
    np.multiply(v, a[..., None, :], out=mom[1:])
    np.cumsum(mom[1:], axis=0, out=mom[1:])
    return mom


def band_rule(x, cell, xq, reach: float, width: float, expand: np.ndarray):
    """Cell-edge cuts and per-cell weights of the open bands |x - xq| < reach.

    ``x`` is sorted, ``cell`` its cells of ``width`` and ``expand`` a stack
    of kernel expansions.  Returns (lo, edges, weights): the band of query q
    is x[lo[q]:edges[q, -1]], cut at its cell edges by edges[q] (cells + 1
    of them), and weights[q] is (kernels, cells, deg): the sum of
    P_f((xq - x) / reach) over the band's part of its c-th cell is
    weights[q, f, c] times that part's moments about the cell's centre.
    """
    lo = np.searchsorted(x, xq - reach, side="right")
    hi = np.searchsorted(x, xq + reach, side="left")
    first = cell[np.minimum(lo, x.size - 1)]
    ncell = int((cell[hi - 1] - first).max(initial=0.0, where=hi > lo)) + 1
    inner = np.searchsorted(cell, first[..., None] + np.arange(1, ncell), side="left")
    edges = np.concatenate(
        [lo[..., None], np.clip(inner, lo[..., None], hi[..., None]), hi[..., None]], axis=-1
    )
    # z and v in units of the band's half width: scale the r-th moment by (width / reach)^r
    half, deg = reach / width, expand.shape[-1]
    z = (xq[..., None] / width - (first[..., None] + np.arange(ncell) + 0.5)) / half
    scale = _powers(np.float64(1.0 / half), deg)
    return lo, edges, _powers(z, deg)[..., None, :, :] @ (expand * scale)


# Bandwidths within this factor of the narrowest in their set share its
# cells.  5 is the smallest round factor that puts the default grid's four
# values (ratio 1 / 0.6^3 = 4.63) in one set on either axis.  Larger ones
# saved nothing on an 8 x 8 grid (ratio 36): with 8 and 12, CV took the same
# time, and decompose_many took 3-9% longer on a 300-subject shared sample
# and 6% longer to 5% shorter on a 30-subject ragged one.
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
    no K' time weights and no K moments.
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

    shapes = (yq.shape, ts.size, yq.shape, ts.size, yq.shape)[: 5 if partials else 2]
    out = [tuple(np.zeros(shape) for shape in shapes) for _ in pairs]
    order = np.argsort(ts, kind="stable")
    per_time = expand.shape[0] * nt * deg  # K (and K') columns of each h_t, times their powers
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
            cell, vpow = cells(u, 1.0, deg)
            mom = prefix_moments(vpow, a)
            total = mom[-1, :, 0]
            uq = (yq[:, cols] - origin) / width
            for hy in shared:
                lo, edges, weights = band_rule(u, cell, uq, hy / width, 1.0, expand)
                # each cell's moment difference, then its weights (see the module notes)
                band = np.diff(mom[edges, own[:, None]], axis=2).reshape(*uq.shape, -1, a.shape[-1])
                sums = weights.reshape(*uq.shape, expand.shape[0], -1) @ band
                s_h = mom[lo, own, 0] + sums[:, :, 0]
                for idx in groups[hy]:
                    ht = pairs[idx][1]
                    c = col[float(ht)]
                    q1, q2, *rest = out[idx]
                    q1[:, cols] = s_h[..., c] / (n * ht)
                    q2[cols] = total[:, c] / (n * ht)
                    if partials:
                        q3, q4, q5 = rest
                        q3[:, cols] = s_h[..., nt + c] / (n * ht * ht)
                        q4[cols] = total[:, nt + c] / (n * ht * ht)
                        q5[:, cols] = sums[:, :, 1, c] / (n * hy * ht)
    return out
