"""Densely observed functional samples: ingestion, validation, presmoothing.

A sample is a collection of subjects, each observed on its own dense time
grid inside [0, 1].  Grids must be dense-regular: either every point falls
in its own bin ((j-1)/m, j/m], or (permissive rule, needed for grids of the
form {j/m : j = 0..m} that include t = 0) no gap between consecutive
points, or between the domain edges and the extreme points, exceeds 2/m.

Ingestion works on columns: the long CSV is parsed column by column, sorted
with one lexsort and split into subjects, and each distinct observation
grid is validated once, however many subjects share it.

Presmoothing fits a local quadratic with kernel weights around every point
of a uniform evaluation grid; the intercept is the fitted value, the linear
coefficient the first derivative.  The fit is a linear smoother whose
weights depend only on the observation grid, so there is one smoother per
distinct grid: its kernel-weighted design and the factors of its (G, 3, 3)
local moment matrices are built once and fit all subjects on that grid
together, with one matmul for their weighted responses.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CsvFormatError,
    DataError,
    DomainError,
    DuplicateTimeError,
    GridMismatchError,
    InsufficientDataError,
)
from .kernels import EPANECHNIKOV, Kernel

__all__ = [
    "FunctionalSample",
    "SmoothedSample",
    "load_long_csv",
    "load_wide_csv",
    "presmooth",
    "default_presmooth_bandwidth",
    "pooled_std",
]

_GRID_TOL = 1e-9


def _validate_grid(t: np.ndarray, subject: str) -> None:
    m = t.size
    if m == 0:
        raise DataError(f"subject {subject!r} has no observations")
    if np.any(t < -_GRID_TOL) or np.any(t > 1.0 + _GRID_TOL):
        raise DomainError(f"subject {subject!r} has observation times outside [0, 1]")
    d = np.diff(t)
    if np.any(d == 0.0):
        raise DuplicateTimeError(f"subject {subject!r} has duplicate observation times")
    if np.any(d < 0.0):
        raise DataError(f"subject {subject!r} has unsorted observation times")
    # dense-regular: per-bin placement, or the permissive max-gap rule
    j = np.arange(1, m + 1)
    in_bins = t[0] <= 1.0 / m + _GRID_TOL and np.all(t[1:] > (j[1:] - 1) / m - _GRID_TOL) and np.all(
        t <= j / m + _GRID_TOL
    )
    if not in_bins:
        gaps = np.concatenate(([t[0]], d, [1.0 - t[-1]]))
        if gaps.max() > 2.0 / m + _GRID_TOL:
            raise DomainError(
                f"subject {subject!r}: grid is not dense-regular "
                f"(largest gap {gaps.max():.4g} > 2/m = {2.0 / m:.4g})"
            )


def _grid_groups(times: list[np.ndarray]) -> dict[bytes, list[int]]:
    """Subject indices per distinct grid, grids in order of their first subject."""
    groups: dict[bytes, list[int]] = {}
    for i, t in enumerate(times):
        groups.setdefault(t.tobytes(), []).append(i)
    return groups


@dataclass
class FunctionalSample:
    """n subject trajectories on per-subject dense grids in [0, 1].

    Treat instances as immutable once constructed.  ``shared_grid`` is set
    when every subject was observed on the identical grid, which unlocks
    the vectorized cross-sectional operations.
    """

    ids: list[str]
    times: list[np.ndarray]
    values: list[np.ndarray]
    shared_grid: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        if not (len(self.ids) == len(self.times) == len(self.values)):
            raise DataError("ids, times and values must have equal lengths")
        if len(self.ids) == 0:
            raise DataError("a sample needs at least one subject")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("subject ids must be unique")
        self.times = [np.asarray(t, dtype=float) for t in self.times]
        self.values = [np.asarray(v, dtype=float) for v in self.values]
        for sid, t, v in zip(self.ids, self.times, self.values):
            if t.shape != v.shape or t.ndim != 1:
                raise DataError(f"subject {sid!r}: times and values must be equal-length 1-d arrays")
        # the first subject with non-finite values, or n
        finite = np.isfinite(np.concatenate(self.values))
        bad = self.n
        if not finite.all():
            ends = np.cumsum([v.size for v in self.values])
            bad = int(np.searchsorted(ends, np.argmin(finite), side="right"))
        # grids in first-appearance order: a subject's value check comes before its grid's
        groups = _grid_groups(self.times)
        for members in groups.values():
            if members[0] >= bad:
                break
            _validate_grid(self.times[members[0]], self.ids[members[0]])
        if bad < self.n:
            raise DataError(f"subject {self.ids[bad]!r} has non-finite values")
        first = self.times[0]
        if all(np.array_equal(self.times[m[0]], first) for m in groups.values()):
            self.shared_grid = first

    @property
    def n(self) -> int:
        return len(self.ids)

    def value_matrix(self) -> np.ndarray:
        """(n, m) value matrix; only defined when all subjects share a grid."""
        if self.shared_grid is None:
            raise GridMismatchError("subjects do not share a common observation grid")
        return np.vstack(self.values)

    @classmethod
    def from_matrix(cls, grid, matrix, ids=None) -> "FunctionalSample":
        """Build a shared-grid sample from a (n, m) value matrix."""
        matrix = np.asarray(matrix, dtype=float)
        grid = np.asarray(grid, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != grid.size:
            raise DataError("matrix must be (n, m) with m matching the grid length")
        if ids is None:
            ids = [f"s{i + 1:04d}" for i in range(matrix.shape[0])]
        return cls(list(ids), [grid] * matrix.shape[0], [row for row in matrix])


@dataclass
class SmoothedSample:
    """Per-subject smoothed values and first derivatives on a uniform grid."""

    ids: list[str]
    eval_grid: np.ndarray
    values: np.ndarray      # (n, G)
    derivatives: np.ndarray  # (n, G)
    h_d: float

    def __post_init__(self):
        self.eval_grid = np.asarray(self.eval_grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.derivatives = np.asarray(self.derivatives, dtype=float)
        if self.values.shape != (len(self.ids), self.eval_grid.size):
            raise DataError("values must be (n, G)")
        if self.derivatives.shape != self.values.shape:
            raise DataError("derivatives must match values in shape")
        if not (np.all(np.isfinite(self.values)) and np.all(np.isfinite(self.derivatives))):
            raise DataError("smoothed values and derivatives must be finite")

    @property
    def n(self) -> int:
        return len(self.ids)


def _open_text(source):
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8"), False
        return source, False
    return open(source, "r", encoding="utf-8", newline=""), True


def _parse_float(text: str, what: str, line_no: int) -> float:
    try:
        x = float(text)
    except ValueError:
        raise CsvFormatError(f"line {line_no}: cannot parse {what} {text!r}") from None
    if not np.isfinite(x):
        raise CsvFormatError(f"line {line_no}: non-finite {what} {text!r}")
    return x


def _check_record(row: list[str], line_no: int) -> None:
    """Raise the first problem of one data record, its fields taken in order."""
    if len(row) != 3:
        raise CsvFormatError(f"line {line_no}: expected 3 columns, got {len(row)}")
    if not row[0].strip():
        raise CsvFormatError(f"line {line_no}: empty subject id")
    t = _parse_float(row[1], "time", line_no)
    _parse_float(row[2], "value", line_no)
    if t < 0.0 or t > 1.0:
        raise DomainError(f"line {line_no}: time {t!r} outside [0, 1]")


def load_long_csv(source) -> FunctionalSample:
    """Read a long-format CSV (``id,time,value``) into a FunctionalSample.

    Parameters
    ----------
    source : path, text stream or binary stream
        UTF-8 CSV with header ``id,time,value`` and ``.`` as the decimal
        separator.

    Rows are grouped by id (subjects keep first-appearance order) and
    sorted by time within each subject.  Times must lie in [0, 1]; repeated
    (id, time) pairs and non-finite values are rejected.  The fields are
    checked column by column; an error names the first bad record, counting
    blank records.
    """
    fh, close = _open_text(source)
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["id", "time", "value"]:
            raise CsvFormatError("expected header 'id,time,value'")
        records = list(reader)
    finally:
        if close:
            fh.close()
    rows = [row for row in records if row]
    if not rows:
        raise CsvFormatError("no data rows found")
    good = set(map(len, rows)) == {3}
    if good:
        sid_text, t_text, v_text = zip(*rows)
        sids = list(map(str.strip, sid_text))
        try:
            t = np.fromiter(map(float, t_text), float, len(rows))
            v = np.fromiter(map(float, v_text), float, len(rows))
        except ValueError:
            good = False
        else:
            good = "" not in sids and bool(
                np.all(np.isfinite(t) & np.isfinite(v) & (t >= 0.0) & (t <= 1.0))
            )
        del sid_text, t_text, v_text
    if not good:
        # some record is bad: find the first one, numbered as read
        for line_no, row in enumerate(records, start=2):
            if row:
                _check_record(row, line_no)
    del records, rows
    ids = list(dict.fromkeys(sids))   # first-appearance order
    code = {sid: i for i, sid in enumerate(ids)}
    subject = np.fromiter(map(code.__getitem__, sids), np.intp, len(sids))
    order = np.lexsort((t, subject))
    subject, t, v = subject[order], t[order], v[order]
    dup = (subject[1:] == subject[:-1]) & (t[1:] == t[:-1])
    if dup.any():
        sid = ids[subject[np.argmax(dup)]]
        raise DuplicateTimeError(f"subject {sid!r} has duplicate (id, time) rows")
    edges = [0, *(np.flatnonzero(subject[1:] != subject[:-1]) + 1).tolist(), subject.size]
    spans = list(zip(edges[:-1], edges[1:]))
    return FunctionalSample(ids, [t[a:b] for a, b in spans], [v[a:b] for a, b in spans])


def load_wide_csv(source) -> FunctionalSample:
    """Read a wide-format CSV (``time,id1,id2,...``), one column per subject."""
    fh, close = _open_text(source)
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0].strip().lower() != "time":
            raise CsvFormatError("expected header 'time,<id>,<id>,...'")
        ids = [c.strip() for c in header[1:]]
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"line {line_no}: expected {len(header)} columns, got {len(row)}"
                )
            t = _parse_float(row[0], "time", line_no)
            if t < 0.0 or t > 1.0:
                raise DomainError(f"line {line_no}: time {t!r} outside [0, 1]")
            vals = [_parse_float(c, "value", line_no) for c in row[1:]]
            rows.append((t, vals))
    finally:
        if close:
            fh.close()
    if not rows:
        raise CsvFormatError("no data rows found")
    rows.sort(key=lambda r: r[0])
    grid = np.array([r[0] for r in rows])
    if np.any(np.diff(grid) == 0.0):
        raise DuplicateTimeError("duplicate time rows in wide CSV")
    matrix = np.array([r[1] for r in rows]).T
    return FunctionalSample.from_matrix(grid, matrix, ids=ids)


def pooled_std(sample: FunctionalSample) -> float:
    """Sample standard deviation of all observed values pooled together."""
    allv = np.concatenate(sample.values)
    if allv.size < 2:
        return 0.0
    return float(np.std(allv, ddof=1))


def default_presmooth_bandwidth(sample: FunctionalSample) -> float:
    """max(0.15, 3/m) with m the smallest per-subject observation count."""
    m_min = min(t.size for t in sample.times)
    return max(0.15, 3.0 / m_min)


def _fit_grid(
    t: np.ndarray, y: np.ndarray, grid: np.ndarray, h_d: float, kernel: Kernel, sid: str
) -> tuple[np.ndarray, np.ndarray]:
    """Local-quadratic values and derivatives, each (k, G), of the k rows of ``y`` on grid ``t``.

    ``sid`` is the first subject observed on ``t``, named in error messages.
    """
    x = (t[None, :] - grid[:, None]) / h_d          # (G, m), scaled offsets
    w = kernel.density(x)
    counts = np.count_nonzero(np.abs(x) < 1.0, axis=1)
    if counts.min() < 3:
        g_bad = grid[int(np.argmin(counts))]
        raise InsufficientDataError(
            f"subject {sid!r}: only {int(counts.min())} observations in the "
            f"smoothing window at t={g_bad:.4g} (need >= 3); increase h_d"
        )
    # weighted design rows w x^p (p < 3) and moments S_p = sum w x^p (p < 5)
    design = np.empty((3, grid.size, t.size))
    design[0] = w
    np.multiply(w, x, out=design[1])
    np.multiply(design[1], x, out=design[2])
    wx3 = design[2] * x
    s0, s1, s2 = design.sum(axis=2, keepdims=True)   # each (G, 1)
    s3 = wx3.sum(axis=1, keepdims=True)
    s4 = (wx3 * x).sum(axis=1, keepdims=True)
    # A[r, c] = S_{r+c} is symmetric positive definite; factor A = L D L^T
    l10, l20 = s1 / s0, s2 / s0
    d1 = s2 - l10 * s1
    l21 = (s3 - l20 * s1) / d1
    d2 = s4 - l20 * s2 - l21 * l21 * d1
    if not np.all((s0 > 0.0) & (d1 > 0.0) & (d2 > 0.0)):
        raise InsufficientDataError(f"subject {sid!r}: singular local design; increase h_d")
    # weighted responses of all k subjects in one matmul, then A b = r per (g, subject)
    r0, r1, r2 = (design.reshape(-1, t.size) @ y.T).reshape(3, grid.size, -1)
    r1 = r1 - l10 * r0
    b2 = (r2 - l20 * r0 - l21 * r1) / d2
    b1 = r1 / d1 - l21 * b2
    b0 = r0 / s0 - l10 * b1 - l20 * b2
    return b0.T, b1.T / h_d


def presmooth(
    sample: FunctionalSample,
    h_d: float | None = None,
    eval_grid_size: int = 101,
    kernel: Kernel = EPANECHNIKOV,
) -> SmoothedSample:
    """Local-quadratic smoothing of every subject onto a uniform grid.

    At each evaluation point g the observations are weighted by
    K((t_ij - g)/h_d) and a quadratic in (t_ij - g) is fit by weighted
    least squares; the intercept is the smoothed value and the linear
    coefficient the smoothed derivative.  Degree-2 polynomials are
    reproduced exactly, so constants get derivative 0 and lines keep their
    slope.

    The fit is linear in the observed values, with weights that depend only
    on the observation grid, so it is done once per distinct grid, in order
    of the grid's first subject.  The weighted design rows w x^p and the
    L D L^T factors of the 3x3 moment matrices are built once per grid; one
    matmul gives the weighted responses of all subjects on the grid, and the
    triangular solves run on all of them at once.

    Raises InsufficientDataError, naming the first subject on the grid,
    when fewer than 3 observations fall inside the window around an
    evaluation point or the local design is singular.
    """
    if h_d is None:
        h_d = default_presmooth_bandwidth(sample)
    if h_d <= 0:
        raise DomainError("presmoothing bandwidth h_d must be positive")
    if eval_grid_size < 2:
        raise DomainError("eval_grid_size must be at least 2")
    grid = np.linspace(0.0, 1.0, int(eval_grid_size))
    vals = np.empty((sample.n, grid.size))
    derivs = np.empty((sample.n, grid.size))
    for members in _grid_groups(sample.times).values():
        first = members[0]
        y = np.vstack([sample.values[i] for i in members])   # (k, m)
        vals[members], derivs[members] = _fit_grid(
            sample.times[first], y, grid, h_d, kernel, sample.ids[first]
        )
    return SmoothedSample(list(sample.ids), grid, vals, derivs, float(h_d))
