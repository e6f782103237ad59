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

from .errors import DataError, DegenerateSampleError, DomainError
from .kernels import EPANECHNIKOV, Kernel
from .ranks import Bandwidths, _check_interior, _estimates, _inside
from .sample import FunctionalSample, SmoothedSample

__all__ = [
    "DecompositionResult",
    "ComponentContributions",
    "estimate_partials",
    "decompose",
    "decompose_many",
    "contributions",
]


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

    def integrate(self, values) -> np.ndarray:
        """Trapezoid integral over the trimmed grid (last axis); one point spans no interval."""
        if self.trimmed_grid.size < 2:
            raise DegenerateSampleError(
                "fewer than two evaluation points remain inside [trim, 1 - trim] "
                f"(trimmed grid {self.trimmed_grid.tolist()}); integrals over it are undefined"
            )
        return np.trapezoid(values, self.trimmed_grid, axis=-1)


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
) -> tuple[float, float]:
    """(D1, D2) at one point: the time and value partials of the cdf estimate.

    D1 = Q3/Q2 - Q1 Q4 / Q2^2 and D2 = Q5/Q2; D2 is nonnegative because it
    is a ratio of nonnegative kernel sums.  Raises BoundaryError for t
    outside [h_t, 1 - h_t].
    """
    _check_interior(t, bw.h_t)
    [(_, d1, d2)] = _estimates(sample, kernel, [bw], [t], [[y]])
    return float(d1[0, 0]), float(d2[0, 0])


def decompose_many(
    sample: FunctionalSample,
    smoothed: SmoothedSample,
    bandwidths: list[Bandwidths],
    trim: float | None = None,
    kernel: Kernel = EPANECHNIKOV,
) -> list[DecompositionResult]:
    """decompose() for several bandwidth pairs sharing the kernel tensors.

    All results live on the points of ``smoothed.eval_grid`` inside
    [trim, 1 - trim]; trim defaults to, and may not be below, the widest h_t.
    Used by the bandwidth-comparison harness, where a fixed integration
    domain across pairs is required.
    """
    if smoothed.n != sample.n or list(smoothed.ids) != list(sample.ids):
        raise DataError("smoothed sample does not match the raw sample")
    h_max = max(bw.h_t for bw in bandwidths)
    if trim is None:
        trim = h_max
    if _inside(trim, h_max).size == 0:
        raise DomainError(f"trim={trim!r} must lie in [h_t, 1 - h_t] for the largest h_t {h_max!r}")
    cols = _inside(smoothed.eval_grid, trim)
    if cols.size == 0:
        raise DomainError(f"no evaluation points remain inside [{trim}, {1 - trim}]")
    grid = smoothed.eval_grid[cols]
    fields = _estimates(sample, kernel, bandwidths, grid, smoothed.values[:, cols])
    dyq = smoothed.derivatives[:, cols]
    out = []
    for _, d1, d2 in fields:
        c2 = d2 * dyq
        out.append(DecompositionResult(list(sample.ids), grid, d1, c2, d1 + c2))
    return out


def decompose(
    sample: FunctionalSample,
    smoothed: SmoothedSample,
    bw: Bandwidths,
    trim: float | None = None,
    kernel: Kernel = EPANECHNIKOV,
) -> DecompositionResult:
    """Estimate C1, C2 and R' = C1 + C2 for every subject.

    The cdf partials are evaluated at the subject's smoothed value, and C2
    multiplies the value partial by the smoothed derivative.  Evaluation is
    restricted to [trim, 1 - trim] (trim defaults to h_t).  The first grid
    point without data within h_t raises InsufficientDataError.
    """
    return decompose_many(sample, smoothed, [bw], trim=trim, kernel=kernel)[0]


def contributions(decomp: DecompositionResult) -> ComponentContributions:
    """Integrated share of each component in the total rank movement.

    lambda1 integrates the subject-averaged |C1| over the trimmed grid and
    normalizes by the same integral plus the |C2| counterpart; lambda2 is
    its exact complement.
    """
    i1 = float(decomp.integrate(np.mean(np.abs(decomp.c1), axis=0)))
    i2 = float(decomp.integrate(np.mean(np.abs(decomp.c2), axis=0)))
    total = i1 + i2
    if not total > 1e-12:
        raise DegenerateSampleError(
            "both components integrate to zero (flat population); "
            "contributions are undefined"
        )
    lam1 = i1 / total
    return ComponentContributions(lambda1=lam1, lambda2=1.0 - lam1)
