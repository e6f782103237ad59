"""Densely observed functional samples: ingestion, validation, presmoothing.

A sample is a collection of subjects, each observed on its own dense time
grid inside [0, 1].  Grids must be dense-regular: either every point falls
in its own bin ((j-1)/m, j/m], or (permissive rule, needed for grids of the
form {j/m : j = 0..m} that include t = 0) no gap between consecutive
points, or between the domain edges and the extreme points, exceeds 2/m.

Ingestion works on columns, a batch of records at a time.  Both loaders
parse each batch's columns with Python's ``float`` into arrays and drop its
strings before reading the next, so memory is bounded by the batch, not the
file.  Only when a check fails are the batch's records walked one by one,
to name the first bad record.  The long format is then sorted with one
lexsort and split into subjects, and each distinct observation grid is
validated once, however many subjects share it.  Input is UTF-8, with or
without a byte-order mark.

Presmoothing fits a local quadratic with kernel weights around every point
of a uniform evaluation grid; the intercept is the fitted value, the linear
coefficient the first derivative.  The fit is a linear smoother whose
weights depend only on the observation grid, so there is one smoother per
distinct grid: its kernel-weighted design and the factors of its (G, 3, 3)
local moment matrices are built once, one matmul gives the weighted
responses of all subjects on that grid, and the solves run a batch of
subjects at a time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import islice

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
# records read, values smoothed or rows written per batch: bounds memory, not the result
_BATCH_ROWS = 8192


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
    # subject indices per distinct grid, grids in order of their first subject
    grid_groups: list[list[int]] = field(init=False, default=None, repr=False)

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
        groups: dict[bytes, list[int]] = {}
        for i, t in enumerate(self.times):
            groups.setdefault(t.tobytes(), []).append(i)
        self.grid_groups = list(groups.values())
        for members in self.grid_groups:
            if members[0] >= bad:
                break
            _validate_grid(self.times[members[0]], self.ids[members[0]])
        if bad < self.n:
            raise DataError(f"subject {self.ids[bad]!r} has non-finite values")
        first = self.times[0]
        if all(np.array_equal(self.times[m[0]], first) for m in self.grid_groups):
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
    """A text stream over ``source`` and a call that releases it; a caller's stream stays open."""
    # utf-8-sig drops the byte-order mark that spreadsheet programs put first
    if hasattr(source, "read"):
        if isinstance(source.read(0), bytes):
            fh = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            return fh, fh.detach
        return source, lambda: None
    fh = open(source, "r", encoding="utf-8-sig", newline="")
    return fh, fh.close


def _record_batches(source):
    """Yield the header record (None for an empty input), then per batch of
    at most ``_BATCH_ROWS`` later records: the line number of its first
    record, each record's width (0 for a blank record) and all their fields
    in one flat list.

    No list per record outlives its turn, so the cyclic garbage collector
    has no per-row containers to scan again and again while a large file
    is read.  A read error, bytes that are not UTF-8 or a ``csv.Error`` such
    as an unclosed quote, raises CsvFormatError when the reader reaches it;
    line numbers count records, blank ones included.  The source is
    released once the generator is exhausted or closed.
    """
    fh, release = _open_text(source)
    line_no, widths = 1, []
    try:
        reader = csv.reader(fh)
        yield next(reader, None)
        line_no = 2
        while True:
            widths, fields = [], []
            for record in islice(reader, _BATCH_ROWS):
                widths.append(len(record))
                fields += record
            if not widths:
                return
            yield line_no, widths, fields
            line_no += len(widths)
    except UnicodeDecodeError:
        raise CsvFormatError("input is not valid UTF-8") from None
    except csv.Error as exc:   # e.g. an unclosed quote that runs past the field size limit
        raise CsvFormatError(f"line {line_no + len(widths)}: {exc}") from None
    finally:
        release()


def _read_batches(source, header_error, parse) -> tuple[list[str], list]:
    """The header and ``parse(header, line number, widths, fields)`` of each batch, in order.

    ``header_error(header)`` gives the header's error or None.  A header or
    record error is raised only once the whole input has been read, so a
    read error anywhere comes first; no batch after a bad one is parsed.
    """
    batches = _record_batches(source)
    header = next(batches)
    error = header_error(header)
    parts = []
    for batch in batches:
        if error is None:
            try:
                parts.append(parse(header, *batch))
            except DataError as exc:
                error = exc
    if error is not None:
        raise error
    return header, parts


def _parse_float(text: str, what: str, line_no: int) -> float:
    try:
        x = float(text)
    except ValueError:
        raise CsvFormatError(f"line {line_no}: cannot parse {what} {text!r}") from None
    if not np.isfinite(x):
        raise CsvFormatError(f"line {line_no}: non-finite {what} {text!r}")
    return x


def _check_time(t: float, line_no: int) -> None:
    if t < 0.0 or t > 1.0:
        raise DomainError(f"line {line_no}: time {t!r} outside [0, 1]")


def _check_record(row: list[str], line_no: int) -> None:
    """Raise the first problem of one long-format record, its fields taken in order."""
    if len(row) != 3:
        raise CsvFormatError(f"line {line_no}: expected 3 columns, got {len(row)}")
    if not row[0].strip():
        raise CsvFormatError(f"line {line_no}: empty subject id")
    t = _parse_float(row[1], "time", line_no)
    _parse_float(row[2], "value", line_no)
    _check_time(t, line_no)


def _check_wide_record(row: list[str], width: int, line_no: int) -> None:
    """Raise the first problem of one wide-format record: width, time, then values."""
    if len(row) != width:
        raise CsvFormatError(f"line {line_no}: expected {width} columns, got {len(row)}")
    _check_time(_parse_float(row[0], "time", line_no), line_no)
    for text in row[1:]:
        _parse_float(text, "value", line_no)


def _parse_columns(fields: list[str]) -> np.ndarray | None:
    """The fields as float64 by Python's ``float``, or None if one does not parse."""
    try:
        return np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        return None


def _finite_in_domain(t: np.ndarray, values: np.ndarray) -> bool:
    return bool(np.all((t >= 0.0) & (t <= 1.0)) and np.all(np.isfinite(values)))


def _first_bad_record(line_no: int, widths: list[int], fields: list[str], check) -> None:
    """Raise ``check(record, line number)``'s error for the first bad non-blank record."""
    start = 0
    for k, width in enumerate(widths, start=line_no):
        if width:
            check(fields[start:start + width], k)
        start += width


def _long_header_error(header: list[str] | None) -> CsvFormatError | None:
    if header is None or [c.strip().lower() for c in header] != ["id", "time", "value"]:
        return CsvFormatError("expected header 'id,time,value'")
    return None


def load_long_csv(source) -> FunctionalSample:
    """Read a long-format CSV (``id,time,value``) into a FunctionalSample.

    Parameters
    ----------
    source : path, text stream or binary stream
        UTF-8 CSV, with or without a byte-order mark, with header
        ``id,time,value`` and ``.`` as the decimal separator.

    Rows are grouped by id (subjects keep first-appearance order) and
    sorted by time within each subject.  Times must lie in [0, 1]; repeated
    (id, time) pairs and non-finite values are rejected.  The fields are
    checked column by column; an error names the first bad record, counting
    blank records.
    """
    ids: dict[str, int] = {}   # id -> subject code, in first-appearance order

    def parse(header, line_no, widths, fields):
        t = v = None
        if set(widths) <= {0, 3}:
            sids = list(map(str.strip, fields[0::3]))
            t, v = _parse_columns(fields[1::3]), _parse_columns(fields[2::3])
        if t is None or v is None or "" in sids or not _finite_in_domain(t, v):
            _first_bad_record(line_no, widths, fields, _check_record)
        for sid in dict.fromkeys(sids):
            ids.setdefault(sid, len(ids))
        return np.fromiter(map(ids.__getitem__, sids), np.intp, len(sids)), t, v

    _, parts = _read_batches(source, _long_header_error, parse)
    if not any(p[0].size for p in parts):
        raise CsvFormatError("no data rows found")
    subject, t, v = map(np.concatenate, zip(*parts))
    order = np.lexsort((t, subject))
    subject, t, v = subject[order], t[order], v[order]
    names = list(ids)
    dup = (subject[1:] == subject[:-1]) & (t[1:] == t[:-1])
    if dup.any():
        raise DuplicateTimeError(f"subject {names[subject[np.argmax(dup)]]!r} has duplicate (id, time) rows")
    edges = [0, *(np.flatnonzero(subject[1:] != subject[:-1]) + 1).tolist(), subject.size]
    spans = list(zip(edges[:-1], edges[1:]))
    return FunctionalSample(names, [t[a:b] for a, b in spans], [v[a:b] for a, b in spans])


def _wide_header_error(header: list[str] | None) -> CsvFormatError | None:
    if header is None or len(header) < 2 or header[0].strip().lower() != "time":
        return CsvFormatError("expected header 'time,<id>,<id>,...'")
    return None


def _parse_wide(header: list[str], line_no: int, widths: list[int], fields: list[str]) -> np.ndarray:
    """One batch of wide records as a (records, width) table; blank records are skipped."""
    width = len(header)
    table = _parse_columns(fields) if set(widths) <= {0, width} else None
    if table is None or not _finite_in_domain(table[0::width], table):
        _first_bad_record(line_no, widths, fields, lambda row, k: _check_wide_record(row, width, k))
    return table.reshape(-1, width)


def load_wide_csv(source) -> FunctionalSample:
    """Read a wide-format CSV (``time,id1,id2,...``), one column per subject.

    It is read like the long format: a batch of records at a time, each
    batch's fields parsed at once and only on failure checked record by
    record, so an error names the first bad record.
    """
    header, parts = _read_batches(source, _wide_header_error, _parse_wide)
    if not any(p.size for p in parts):
        raise CsvFormatError("no data rows found")
    table = np.concatenate(parts)
    order = np.argsort(table[:, 0], kind="stable")
    grid = table[order, 0]
    if np.any(np.diff(grid) == 0.0):
        raise DuplicateTimeError("duplicate time rows in wide CSV")
    return FunctionalSample.from_matrix(grid, table[order, 1:].T, ids=[c.strip() for c in header[1:]])


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


def _grid_smoother(t: np.ndarray, grid: np.ndarray, h_d: float, kernel: Kernel, sid: str):
    """The local-quadratic smoother of observation grid ``t``: (design, solve).

    ``design`` (3 G, m) holds the kernel-weighted design rows w x^p.  The
    weighted responses of k subjects, ``design @ y.T`` as (3, G, k), go to
    ``solve``, which returns their values and derivatives, each (k, G), at
    the points of ``grid``.  ``sid`` is the first subject observed on ``t``,
    named in error messages.
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

    def solve(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # A b = r per (g, subject)
        r0, r1, r2 = r
        r1 = r1 - l10 * r0
        b2 = (r2 - l20 * r0 - l21 * r1) / d2
        b1 = r1 / d1 - l21 * b2
        b0 = r0 / s0 - l10 * b1 - l20 * b2
        return b0.T, b1.T / h_d

    return design.reshape(-1, t.size), solve


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
    L D L^T factors of the 3x3 moment matrices are built once per grid, and
    one matmul gives the weighted responses of all subjects on the grid.
    The triangular solves then run on a batch of at most ``_BATCH_ROWS``
    output values (subjects x evaluation points) at a time, written
    straight into the output arrays.

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
    step = max(1, _BATCH_ROWS // grid.size)   # subjects per batch
    for members in sample.grid_groups:
        first = members[0]
        design, solve = _grid_smoother(sample.times[first], grid, h_d, kernel, sample.ids[first])
        # Weighted responses of all the grid's subjects in one matmul: BLAS
        # may round a subject's sums differently in a call over fewer subjects.
        y = np.vstack([sample.values[i] for i in members])
        r = (design @ y.T).reshape(3, grid.size, -1)
        for a in range(0, len(members), step):
            batch = members[a:a + step]
            vals[batch], derivs[batch] = solve(r[:, :, a:a + step])
    return SmoothedSample(list(sample.ids), grid, vals, derivs, float(h_d))
