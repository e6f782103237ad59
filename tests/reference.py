"""Naive reference implementations used as independent oracles.

Everything here is written with plain scalar Python math, straight off the
defining formulas: explicit double and triple loops, no windowing, no
shared tensors, its own kernel arithmetic.  Deliberately slow and
deliberately independent of the package's vectorized paths.  The CV
oracles score the times that ``ranks._inside`` keeps: which times are
interior is a definition the package states once, not a computation.
"""

import csv
import io
import math

from rankdyn.errors import CsvFormatError, DomainError, DuplicateTimeError
from rankdyn.ranks import _inside


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
            if _inside(t_ij, h_max).size == 0:
                continue
            cell = 0.0
            for k, y in enumerate(ys):
                f = naive_smooth_cdf(rest_t, rest_v, h_y, h_t, y, t_ij)
                g = ((1.0 if y_ij <= y else 0.0) - f) ** 2
                cell += g * (0.5 if k in (0, n_y - 1) else 1.0)
            total += cell * dy
    return total


def grid_cv_objective(times, values, h_y, h_t, h_max, kernel="epanechnikov", n_y=201):
    """Leave-one-subject-out CV on the package's y-grid rule, by direct sums.

    The y-grid is ``n_y`` points over [min Y - h_y, max Y + h_y].  For each
    scored value Y, the leave-out cdf f is built one grid point at a time
    from the other subjects' observations (pointwise H).  The squared error
    int (1{Y <= y} - f)^2 dy is taken as int f^2 dy + int_Y (1 - 2f) dy: a
    trapezoid over the whole grid for the first, and for the second the
    trapezoid over the cells above Y's cell plus the part of Y's cell above
    Y, with 1 - 2f interpolated linearly at Y.
    """
    k, h, _ = KERNELS[kernel]
    n = len(times)
    allv = [v for row in values for v in row]
    lo, hi = min(allv) - h_y, max(allv) + h_y
    step = (hi - lo) / (n_y - 1)
    ys = [lo + q * step for q in range(n_y - 1)] + [hi]
    total = 0.0
    for i in range(n):
        for t0, y0 in zip(times[i], values[i]):
            if _inside(t0, h_max).size == 0:
                continue
            near = [
                (k((t0 - t) / h_t) / len(times[l]), y)
                for l in range(n)
                if l != i
                for t, y in zip(times[l], values[l])
            ]
            mass = sum(w for w, _ in near)
            f = [sum(w * h((yg - y) / h_y) for w, y in near) / mass for yg in ys]
            g = [1.0 - 2.0 * fv for fv in f]
            c = next(q for q, yg in enumerate(ys) if yg >= y0)
            r = (y0 - ys[c - 1]) / (ys[c] - ys[c - 1])
            g0 = g[c - 1] + r * (g[c] - g[c - 1])
            above = 0.5 * (g0 + g[c]) * (ys[c] - y0) + trapezoid(ys[c:], g[c:])
            total += trapezoid(ys, [fv * fv for fv in f]) + above
    return total


def naive_empirical_ranks(matrix):
    """(count of subjects at or below, less the subject itself) / n, one column at a time."""
    n = len(matrix)
    cols = len(matrix[0])
    return [
        [(sum(1 for k in range(n) if matrix[k][g] <= matrix[i][g]) - 1) / n for g in range(cols)]
        for i in range(n)
    ]


def trapezoid(xs, fs) -> float:
    acc = 0.0
    for a, b, fa, fb in zip(xs, xs[1:], fs, fs[1:]):
        acc += 0.5 * (fa + fb) * (b - a)
    return acc


def naive_presmooth(t_obs, y_obs, h_d, grid, kernel="epanechnikov"):
    """Per-subject local-quadratic fit: (values, derivatives) at every grid point.

    Each point solves its own 3x3 normal equations by Gaussian elimination
    with partial pivoting; sums are exact-rounded with math.fsum.
    """
    k = KERNELS[kernel][0]
    values, slopes = [], []
    for g in grid:
        x = [(t - g) / h_d for t in t_obs]
        w = [k(u) for u in x]
        s = [math.fsum(wj * xj**p for wj, xj in zip(w, x)) for p in range(5)]
        r = [math.fsum(wj * xj**p * yj for wj, xj, yj in zip(w, x, y_obs)) for p in range(3)]
        a = [[s[i + j] for j in range(3)] + [r[i]] for i in range(3)]
        for col in range(3):
            piv = max(range(col, 3), key=lambda i: abs(a[i][col]))
            a[col], a[piv] = a[piv], a[col]
            for i in range(col + 1, 3):
                f = a[i][col] / a[col][col]
                a[i] = [aij - f * acj for aij, acj in zip(a[i], a[col])]
        beta = [0.0] * 3
        for i in (2, 1, 0):
            beta[i] = (a[i][3] - sum(a[i][j] * beta[j] for j in range(i + 1, 3))) / a[i][i]
        values.append(beta[0])
        slopes.append(beta[1] / h_d)
    return values, slopes


# Long-format CSV input read one record at a time.

def naive_load_long_csv(text: str):
    """(ids, times, values) of a long-format CSV text, as Python lists.

    Each record is checked as it is read (width, id, time, value, then the
    time's domain), raising the loader's error types and messages; subjects
    keep first-appearance order and are sorted by time.
    """
    records = list(csv.reader(io.StringIO(text, newline="")))
    if not records or [c.strip().lower() for c in records[0]] != ["id", "time", "value"]:
        raise CsvFormatError("expected header 'id,time,value'")
    subjects = {}
    for line_no, record in enumerate(records[1:], start=2):
        if not record:
            continue
        if len(record) != 3:
            raise CsvFormatError(f"line {line_no}: expected 3 columns, got {len(record)}")
        sid = record[0].strip()
        if not sid:
            raise CsvFormatError(f"line {line_no}: empty subject id")
        numbers = []
        for what, text_field in (("time", record[1]), ("value", record[2])):
            try:
                x = float(text_field)
            except ValueError:
                raise CsvFormatError(f"line {line_no}: cannot parse {what} {text_field!r}") from None
            if not math.isfinite(x):
                raise CsvFormatError(f"line {line_no}: non-finite {what} {text_field!r}")
            numbers.append(x)
        t, v = numbers
        if t < 0.0 or t > 1.0:
            raise DomainError(f"line {line_no}: time {t!r} outside [0, 1]")
        subjects.setdefault(sid, []).append((t, v))
    if not subjects:
        raise CsvFormatError("no data rows found")
    ids, times, values = [], [], []
    for sid, pairs in subjects.items():
        pairs.sort()
        for a, b in zip(pairs, pairs[1:]):
            if a[0] == b[0]:
                raise DuplicateTimeError(f"subject {sid!r} has duplicate (id, time) rows")
        ids.append(sid)
        times.append([t for t, _ in pairs])
        values.append([v for _, v in pairs])
    return ids, times, values


# CSV output written one row at a time, as the command-line writer did first.

def csv_field(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def fmt(x) -> str:
    return repr(float(x))


def csv_text(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n"


def naive_ranks_csv(sets) -> str:
    rows = []
    for rk in sets:
        for i, sid in enumerate(rk.ids):
            for g, t in enumerate(rk.eval_grid):
                rank = min(1.0, max(0.0, rk.ranks[i, g]))
                rows.append([csv_field(sid), fmt(t), fmt(rank), rk.method])
    return csv_text(["id", "t", "rank", "method"], rows)


def naive_decomposition_csv(dec) -> str:
    rows = []
    for i, sid in enumerate(dec.ids):
        for g, t in enumerate(dec.trimmed_grid):
            rows.append(
                [csv_field(sid), fmt(t), fmt(dec.c1[i, g]), fmt(dec.c2[i, g]), fmt(dec.rprime[i, g])]
            )
    return csv_text(["id", "t", "c1", "c2", "rprime"], rows)


def naive_subject_summaries_csv(subs) -> str:
    rows = [[csv_field(s.id), fmt(s.rho), fmt(s.nu), fmt(s.zeta), fmt(s.eta)] for s in subs]
    return csv_text(["id", "rho", "nu", "zeta", "eta"], rows)
