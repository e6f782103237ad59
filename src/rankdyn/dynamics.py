"""Decomposition of rank derivatives into population and individual parts.

The time and value partials of the smoothed cross-sectional cdf give two
fields D1 and D2; evaluated along a subject's (smoothed) curve they yield
the population component C1 and, after multiplying by the subject's own
slope, the individual component C2.  Because the integrated kernel is the
exact antiderivative of the density kernel, D1 and D2 are the exact
partial derivatives of the estimated cdf ratio, so C1 + C2 reproduces the
total time derivative of the smoothed rank along the curve to
finite-difference accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _engine
from .errors import DataError, DegenerateSampleError, DomainError, InsufficientDataError
from .kernels import EPANECHNIKOV, Kernel
from .ranks import Bandwidths, _check_interior
from .sample import FunctionalSample, SmoothedSample

__all__ = [
    "DecompositionResult",
    "ComponentContributions",
    "estimate_partials",
    "decompose",
    "decompose_many",
    "contributions",
]

_TOL = 1e-9


@dataclass
class DecompositionResult:
    """Per-subject C1, C2 and their sum R' on a boundary-trimmed grid."""

    ids: list[str]
    trimmed_grid: np.ndarray
    c1: np.ndarray      # (n, G')
    c2: np.ndarray      # (n, G')
    rprime: np.ndarray  # (n, G'), always c1 + c2

    def __post_init__(self):
        self.trimmed_grid = np.asarray(self.trimmed_grid, dtype=float)
        for name in ("c1", "c2", "rprime"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (len(self.ids), self.trimmed_grid.size):
                raise DataError(f"{name} must be (n, G')")
            setattr(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ComponentContributions:
    """Normalized integrated magnitudes of the two components; they sum to 1."""

    lambda1: float
    lambda2: float


def estimate_partials(
    sample,
    bw: Bandwidths,
    y: float,
    t: float,
    kernel: Kernel = EPANECHNIKOV,
    allow_boundary: bool = False,
) -> tuple[float, float]:
    """(D1, D2) at one point: the time and value partials of the cdf estimate.

    D1 = Q3/Q2 - Q1 Q4 / Q2^2 and D2 = Q5/Q2; D2 is nonnegative because it
    is a ratio of nonnegative kernel sums.
    """
    _check_interior(t, bw.h_t, allow_boundary)
    flat = _engine.flatten_sample(sample)
    [(q1, q2, q3, q4, q5)] = _engine.qbar_all_pairs(
        flat, kernel, [(bw.h_y, bw.h_t)], t, [float(y)]
    )
    if q2 <= 0.0:
        raise InsufficientDataError(f"no observations within h_t={bw.h_t!r} of t={t!r}")
    d1 = q3[0] / q2 - q1[0] * q4 / (q2 * q2)
    d2 = q5[0] / q2
    return float(d1), float(d2)


def _trimmed_grid(eval_grid: np.ndarray, trim: float) -> np.ndarray:
    keep = (eval_grid >= trim - _TOL) & (eval_grid <= 1.0 - trim + _TOL)
    trimmed = eval_grid[keep]
    if trimmed.size == 0:
        raise DomainError(f"no evaluation points remain inside [{trim}, {1 - trim}]")
    return trimmed


def decompose_many(
    sample: FunctionalSample,
    smoothed: SmoothedSample,
    bandwidths: list[Bandwidths],
    trim: float | None = None,
    kernel: Kernel = EPANECHNIKOV,
    strict: bool = True,
) -> list[DecompositionResult]:
    """decompose() for several bandwidth pairs sharing the kernel tensors.

    All results live on the same trimmed grid, which defaults to the widest
    h_t among the pairs.  Used by the bandwidth-comparison harness, where
    a fixed integration domain across pairs is required.
    """
    if smoothed.n != sample.n or list(smoothed.ids) != list(sample.ids):
        raise DataError("smoothed sample does not match the raw sample")
    if trim is None:
        trim = max(bw.h_t for bw in bandwidths)
    if any(bw.h_t > trim + _TOL for bw in bandwidths):
        raise DomainError("trim must be at least the largest h_t in use")
    grid = _trimmed_grid(smoothed.eval_grid, float(trim))
    cols = np.searchsorted(smoothed.eval_grid, grid - _TOL)
    flat = _engine.flatten_sample(sample)
    pairs = [(bw.h_y, bw.h_t) for bw in bandwidths]
    n, gp = sample.n, grid.size
    c1 = [np.empty((n, gp)) for _ in pairs]
    c2 = [np.empty((n, gp)) for _ in pairs]
    for g, (tg, col) in enumerate(zip(grid, cols)):
        yq = smoothed.values[:, col]
        dyq = smoothed.derivatives[:, col]
        for p, (q1, q2, q3, q4, q5) in enumerate(
            _engine.qbar_all_pairs(flat, kernel, pairs, float(tg), yq)
        ):
            if q2 <= 0.0:
                if strict:
                    raise InsufficientDataError(
                        f"no observations within h_t={pairs[p][1]!r} of t={tg!r}"
                    )
                c1[p][:, g] = np.nan
                c2[p][:, g] = np.nan
                continue
            d1 = q3 / q2 - q1 * q4 / (q2 * q2)
            d2 = q5 / q2
            c1[p][:, g] = d1
            c2[p][:, g] = d2 * dyq
    return [
        DecompositionResult(list(sample.ids), grid, c1p, c2p, c1p + c2p)
        for c1p, c2p in zip(c1, c2)
    ]


def decompose(
    sample: FunctionalSample,
    smoothed: SmoothedSample,
    bw: Bandwidths,
    trim: float | None = None,
    kernel: Kernel = EPANECHNIKOV,
    strict: bool = True,
) -> DecompositionResult:
    """Estimate C1, C2 and R' = C1 + C2 for every subject.

    The cdf partials are evaluated at the subject's smoothed value, and C2
    multiplies the value partial by the smoothed derivative.  Evaluation is
    restricted to [trim, 1 - trim] (trim defaults to h_t).  In strict mode
    a grid point without local data aborts; otherwise it is marked NaN.
    """
    return decompose_many(sample, smoothed, [bw], trim=trim, kernel=kernel, strict=strict)[0]


def contributions(decomp: DecompositionResult) -> ComponentContributions:
    """Integrated share of each component in the total rank movement.

    lambda1 integrates the subject-averaged |C1| over the trimmed grid and
    normalizes by the same integral plus the |C2| counterpart; lambda2 is
    its exact complement.
    """
    grid = decomp.trimmed_grid
    i1 = float(np.trapezoid(np.mean(np.abs(decomp.c1), axis=0), grid))
    i2 = float(np.trapezoid(np.mean(np.abs(decomp.c2), axis=0), grid))
    total = i1 + i2
    if not total > 1e-12:
        raise DegenerateSampleError(
            "both components integrate to zero (flat population); "
            "contributions are undefined"
        )
    lam1 = i1 / total
    return ComponentContributions(lambda1=lam1, lambda2=1.0 - lam1)
