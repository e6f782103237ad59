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
observations with |t - t_k| <= h_T contribute (compact support), so sums
run over a window of the time-sorted pooled data.  Queries are chunked to
bound the (Q x window) temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel

_CHUNK_ELEMS = 4_000_000


@dataclass
class FlatData:
    """Pooled observations sorted by time."""

    t: np.ndarray     # (N,) ascending
    y: np.ndarray     # (N,)
    w: np.ndarray     # (N,) per-point weight 1/m_subject
    subj: np.ndarray  # (N,) subject index
    n: int            # number of subjects


def flatten(times, values, n: int) -> FlatData:
    t = np.concatenate(times)
    y = np.concatenate(values)
    subj = np.concatenate([np.full(ti.size, i) for i, ti in enumerate(times)])
    w = np.concatenate([np.full(ti.size, 1.0 / ti.size) for ti in times])
    order = np.argsort(t, kind="stable")
    return FlatData(t[order], y[order], w[order], subj[order], n)


def flatten_sample(sample) -> FlatData:
    """FlatData view of a FunctionalSample or SmoothedSample."""
    if hasattr(sample, "times"):
        return flatten(sample.times, sample.values, sample.n)
    # smoothed: every subject lives on the shared eval grid
    grids = [sample.eval_grid] * sample.n
    return flatten(grids, list(sample.values), sample.n)


def time_window(flat: FlatData, t: float, h_t: float) -> slice:
    lo = np.searchsorted(flat.t, t - h_t, side="left")
    hi = np.searchsorted(flat.t, t + h_t, side="right")
    return slice(int(lo), int(hi))


def _chunks(q: int, width: int):
    step = max(1, _CHUNK_ELEMS // max(width, 1))
    for a in range(0, q, step):
        yield slice(a, min(a + step, q))


def qbar_cdf(flat: FlatData, kern: Kernel, h_y: float, h_t: float, t: float, yq):
    """(Q1 per query, Q2) for the smoothed conditional-cdf ratio."""
    yq = np.atleast_1d(np.asarray(yq, dtype=float))
    win = time_window(flat, t, h_t)
    tw, yw, ww = flat.t[win], flat.y[win], flat.w[win]
    a = kern.density((t - tw) / h_t) * ww
    s2 = float(a.sum())
    s1 = np.empty(yq.size)
    for ch in _chunks(yq.size, tw.size):
        u = (yq[ch, None] - yw[None, :]) / h_y
        s1[ch] = kern.cdf(u) @ a
    norm = flat.n * h_t
    return s1 / norm, s2 / norm


def qbar_all_pairs(flat: FlatData, kern: Kernel, pairs, t: float, yq):
    """All five averages at one time point for each (h_y, h_t) pair.

    ``pairs`` is a sequence of (h_y, h_t) tuples; Q1, Q3 and Q5 come per
    query.  Pairs with equal h_y share one evaluation of H and K on the
    widest time window; the per-pair time weights are zero outside each
    pair's own window, so the results equal one-pair calls (up to
    summation order).

    Returns a list of (q1, q2, q3, q4, q5) tuples aligned with ``pairs``.
    """
    yq = np.atleast_1d(np.asarray(yq, dtype=float))
    h_t_max = max(p[1] for p in pairs)
    win = time_window(flat, t, h_t_max)
    tw, yw, ww = flat.t[win], flat.y[win], flat.w[win]
    n = flat.n

    groups: dict[float, list[int]] = {}
    for idx, (hy, _) in enumerate(pairs):
        groups.setdefault(float(hy), []).append(idx)

    out: list = [None] * len(pairs)
    for hy, idxs in groups.items():
        # stacked time-weight columns: K-weights then K'-weights per pair
        wa = np.empty((tw.size, 2 * len(idxs)))
        s2 = np.empty(len(idxs))
        s4 = np.empty(len(idxs))
        for c, idx in enumerate(idxs):
            ht = pairs[idx][1]
            arg = (t - tw) / ht
            a = kern.density(arg) * ww
            ap = kern.density_deriv(arg) * ww
            wa[:, c] = a
            wa[:, len(idxs) + c] = ap
            s2[c] = a.sum()
            s4[c] = ap.sum()
        s1 = np.empty((yq.size, len(idxs)))
        s3 = np.empty((yq.size, len(idxs)))
        s5 = np.empty((yq.size, len(idxs)))
        for ch in _chunks(yq.size, tw.size):
            u = (yq[ch, None] - yw[None, :]) / hy
            both = kern.cdf(u) @ wa
            s1[ch] = both[:, : len(idxs)]
            s3[ch] = both[:, len(idxs):]
            s5[ch] = kern.density(u) @ wa[:, : len(idxs)]
        for c, idx in enumerate(idxs):
            ht = pairs[idx][1]
            out[idx] = (
                s1[:, c] / (n * ht),
                float(s2[c]) / (n * ht),
                s3[:, c] / (n * ht * ht),
                float(s4[c]) / (n * ht * ht),
                s5[:, c] / (n * hy * ht),
            )
    return out
