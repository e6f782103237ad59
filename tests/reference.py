"""Naive reference implementations used as independent oracles.

Everything here is written with plain scalar Python math, straight off the
defining formulas: explicit double and triple loops, no windowing, no
shared tensors, its own kernel arithmetic.  Deliberately slow and
deliberately independent of the package's vectorized paths.
"""

import math


def epan_k(u: float) -> float:
    return 0.75 * (1.0 - u * u) if abs(u) <= 1.0 else 0.0


def epan_h(u: float) -> float:
    if u <= -1.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return 0.5 + 0.75 * u - 0.25 * u**3


def epan_kp(u: float) -> float:
    return -1.5 * u if abs(u) < 1.0 else 0.0


def biw_k(u: float) -> float:
    return 15.0 / 16.0 * (1.0 - u * u) ** 2 if abs(u) <= 1.0 else 0.0


def biw_h(u: float) -> float:
    if u <= -1.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return 0.5 + 15.0 / 16.0 * (u - 2.0 * u**3 / 3.0 + u**5 / 5.0)


def biw_kp(u: float) -> float:
    return -3.75 * u * (1.0 - u * u) if abs(u) < 1.0 else 0.0


# (K, H, K') by kernel name
KERNELS = {
    "epanechnikov": (epan_k, epan_h, epan_kp),
    "biweight": (biw_k, biw_h, biw_kp),
}


def naive_qbars(times, values, h_y, h_t, y, t, kernel="epanechnikov"):
    """(Q1, Q2, Q3, Q4, Q5) by direct summation of the displayed formulas."""
    k, h, kp = KERNELS[kernel]
    n = len(times)
    q = [0.0] * 5
    for i in range(n):
        m = len(times[i])
        s = [0.0] * 5
        for t_ij, y_ij in zip(times[i], values[i]):
            tk = k((t - t_ij) / h_t)
            tkp = kp((t - t_ij) / h_t)
            hv = h((y - y_ij) / h_y)
            kv = k((y - y_ij) / h_y)
            s[0] += hv * tk / h_t
            s[1] += tk / h_t
            s[2] += hv * tkp / (h_t * h_t)
            s[3] += tkp / (h_t * h_t)
            s[4] += kv * tk / (h_y * h_t)
        for l in range(5):
            q[l] += s[l] / m
    return [x / n for x in q]


def naive_smooth_cdf(times, values, h_y, h_t, y, t, kernel="epanechnikov"):
    q = naive_qbars(times, values, h_y, h_t, y, t, kernel)
    return q[0] / q[1]


def naive_partials(times, values, h_y, h_t, y, t, kernel="epanechnikov"):
    q1, q2, q3, q4, q5 = naive_qbars(times, values, h_y, h_t, y, t, kernel)
    return q3 / q2 - q1 * q4 / (q2 * q2), q5 / q2


def naive_cv_objective(times, values, h_y, h_t, h_max, n_y=2001):
    """Triple-loop leave-one-subject-out CV with a dense y quadrature."""
    n = len(times)
    allv = [v for row in values for v in row]
    lo, hi = min(allv) - h_y, max(allv) + h_y
    ys = [lo + (hi - lo) * k / (n_y - 1) for k in range(n_y)]
    dy = (hi - lo) / (n_y - 1)
    total = 0.0
    for i in range(n):
        rest_t = [times[l] for l in range(n) if l != i]
        rest_v = [values[l] for l in range(n) if l != i]
        for t_ij, y_ij in zip(times[i], values[i]):
            if not (h_max < t_ij < 1.0 - h_max):
                continue
            cell = 0.0
            for k, y in enumerate(ys):
                f = naive_smooth_cdf(rest_t, rest_v, h_y, h_t, y, t_ij)
                g = ((1.0 if y_ij <= y else 0.0) - f) ** 2
                cell += g * (0.5 if k in (0, n_y - 1) else 1.0)
            total += cell * dy
    return total


def trapezoid(xs, fs) -> float:
    acc = 0.0
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        acc += 0.5 * (fa + fb) * (b - a)
    return acc
