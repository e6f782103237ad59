"""Internal kernel-sum engine shared by the cdf, rank and derivative estimators.

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

The sums are updated, not evaluated term by term.  Write a_k for a time
weight (w_k K or w_k K') and u_k = (y_q - y_k)/h_Y.  H is 1 for u >= 1 and
0 for u <= -1, and on [-1, 1] both H and K are polynomials (their
coefficients live on ``Kernel``).  With the observations sorted by y,

    sum_k a_k H(u_k) = sum_{y_k < y_q - h_Y} a_k
                       + sum_{|y_k - y_q| <= h_Y} a_k P_H(u_k),

where the first term is a prefix sum.  For the second, the y axis is cut
into cells of width h_Y and each y_k is written as c + h_Y v_k, with c the
centre of its own cell, so v_k lies in [-1/2, 1/2).  With z = (y_q - c)/h_Y
we get u_k = z - v_k and P_H(z - v_k) = sum_{s,r} A[s, r] z^s v_k^r, the
binomial expansion of the kernel polynomial.  The in-band sum over one cell
is then sum_{s,r} A[s, r] z^s M_r, with M_r = sum a_k v_k^r over the cell's
in-band points: a difference of two prefix moments.  The band
[y_q - h_Y, y_q + h_Y] touches at most three cells, so a query costs two
``searchsorted`` lookups for the band, one per cell edge and a small
polynomial: O(log window) instead of O(window).

``flatten`` sorts the pooled observations by value once, ties broken by
time.  ``qbar_grid`` walks its times in ascending order (the outputs keep
the caller's order) in consecutive blocks.  A block's window, every
observation within the widest h_T of its [first, last] time, is picked out
of the value-sorted data and so stays sorted.  Its prefix moments have one
column per block time, distinct h_T and K or K'; a query reads only its own
time's columns, where observations outside that time's window weigh zero.
A block grows while (window size) x (number of times) stays within the
pooled sample size N, so its prefix moments are never larger than those of
one time whose window holds the whole sample.  Bandwidths h_Y within a
factor 2 of each other share one set of moments, built on cells as wide as
the smallest of them (moments in units of a wider h_Y are the same sums
scaled by a power of the width ratio); their bands span at most five
cells.  The number of cells a band spans is read off the data, so a band
edge that rounding puts on a cell edge costs one more cell, not a wrong
sum.

The moments are cell-local because centring matters here.  About a single
centre they would carry powers of (y range / h_Y) up to the polynomial
degree (3 for Epanechnikov, 5 for biweight), and their differences would
cancel catastrophically when one subject sits far from the rest.
Cell-local moments are bounded by the window's total weight, so the error
stays at rounding level whatever the spread of the data.

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


def _expansion(coeffs) -> np.ndarray:
    """A with P(z - v) = sum_{s,r} A[s, r] z^s v^r, for P(x) = sum_d coeffs[d] x^d."""
    a = np.zeros((len(coeffs), len(coeffs)))
    for d, c in enumerate(coeffs):
        for r in range(d + 1):
            a[d - r, r] = c * math.comb(d, r) * (-1) ** r
    return a


@functools.lru_cache(maxsize=None)
def _expansions(kern: Kernel) -> np.ndarray:
    """Expansions of H and of K (zero-padded to H's degree), stacked; read-only."""
    out = np.stack([_expansion(kern.cdf_coeffs), _expansion(kern.density_coeffs + (0.0,))])
    out.flags.writeable = False
    return out


def _powers(x: np.ndarray, count: int) -> np.ndarray:
    """x^0 .. x^(count-1) along a new last axis, by repeated multiplication."""
    out = np.empty(x.shape + (count,))
    out[..., 0] = 1.0
    for r in range(1, count):
        out[..., r] = out[..., r - 1] * x
    return out


def _blocks(t_sorted: np.ndarray, ts: np.ndarray, h_t: float):
    """Consecutive blocks [start, stop) of the ascending times ``ts``.

    A block grows while its window size, the observations with time in
    [ts[start] - h_t, ts[stop - 1] + h_t], times its number of times stays
    within the pooled sample size.
    """
    lo = np.searchsorted(t_sorted, ts - h_t, side="left")
    hi = np.searchsorted(t_sorted, ts + h_t, side="right")
    start = 0
    for stop in range(1, ts.size + 1):
        if stop == ts.size or (hi[stop] - lo[start]) * (stop + 1 - start) > t_sorted.size:
            yield start, stop
            start = stop


def _cell_moments(u: np.ndarray, a: np.ndarray, deg: int):
    """Cells floor(u) of sorted ``u`` and the prefix moments about cell centres.

    ``a`` is (points, times, columns).  Returns (cell, mom) with
    mom[i, b, r, c] = sum_{j<i} a[j, b, c] v_j^r, where
    v_j = u_j - (cell_j + 1/2) lies in [-1/2, 1/2).
    """
    cell = np.floor(u)
    mom = np.empty((u.size + 1, a.shape[1], deg, a.shape[2]))
    mom[0] = 0.0
    np.multiply(_powers(u - cell - 0.5, deg)[:, None, :, None], a[:, :, None, :], out=mom[1:])
    np.cumsum(mom[1:], axis=0, out=mom[1:])
    return cell, mom


def _band_sums(u, cell, mom, uq, reach: float, expand: np.ndarray):
    """In-band polynomial sums for queries ``uq`` over the band |u - uq| <= reach.

    ``uq`` is (queries, times) and column b reads only the moments of time
    b.  ``expand`` stacks the expansions of H and, optionally, K, whose
    argument is (uq - u) / reach.  Returns (below, sums): below is the mass
    under the band, where H = 1, as (queries, times, columns), and sums is
    (queries, times, H|K, columns).
    """
    lo = np.searchsorted(u, uq - reach, side="left")
    hi = np.searchsorted(u, uq + reach, side="right")
    first = cell[np.minimum(lo, u.size - 1)]
    ncell = int((cell[hi - 1] - first).max(initial=0.0, where=hi > lo)) + 1
    # split each band [lo, hi) at its cell edges
    inner = np.searchsorted(cell, first[..., None] + np.arange(1, ncell), side="left")
    edges = np.concatenate(
        [lo[..., None], np.clip(inner, lo[..., None], hi[..., None]), hi[..., None]], axis=-1
    )
    nf, deg = expand.shape[0], expand.shape[-1]
    nq, nb = uq.shape
    own = np.arange(nb)
    band = np.diff(mom[edges, own[:, None]], axis=2).reshape(nq, nb, ncell * deg, -1)
    # z and v in units of the band's half width: scale the r-th moment by reach^-r
    zp = _powers((uq[..., None] - (first[..., None] + np.arange(ncell) + 0.5)) / reach, deg)
    coef = zp[:, :, None] @ (expand * _powers(np.float64(1.0 / reach), deg))
    return mom[lo, own, 0], coef.reshape(nq, nb, nf, ncell * deg) @ band


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
    for start, stop in _blocks(np.sort(flat.t), ts[order], reach):
        cols = order[start:stop]
        tb = ts[cols]
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
        hys = sorted(groups)
        while hys:
            # every h_y within a factor 2 of the smallest left shares cells of that
            # width, so a band spans at most 5 cells
            width = hys[0]
            shared = [hy for hy in hys if hy <= 2.0 * width]
            hys = hys[len(shared):]
            u = (ys - origin) / width
            cell, mom = _cell_moments(u, a, deg)
            total = mom[-1, :, 0]
            uq = (yq[:, cols] - origin) / width
            for hy in shared:
                below, sums = _band_sums(u, cell, mom, uq, hy / width, expand)
                s_h = below + sums[:, :, 0]
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
