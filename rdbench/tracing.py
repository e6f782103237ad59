"""Spans around rankdyn's public functions, and the per-layer metrics they give.

The tracer replaces each function where ``rankdyn.cli`` and
``rankdyn.simulation`` look it up, so the package itself is unchanged.
Spans are kept in memory; counts that need the call's arguments are
computed from them after the sequence, outside every timed region.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9

# (module, attribute, span name).  The span name's first part is the layer.
WRAPPED = [
    ("cli", "load_long_csv", "sample.load_long_csv"),
    ("cli", "presmooth", "sample.presmooth"),
    ("cli", "smooth_ranks", "ranks.smooth_ranks"),
    ("cli", "empirical_ranks", "ranks.empirical_ranks"),
    ("cli", "decompose", "dynamics.decompose"),
    ("cli", "contributions", "dynamics.contributions"),
    ("cli", "select_bandwidths", "bandwidth.select_bandwidths"),
    ("cli", "subject_summaries", "summaries"),
    ("cli", "population_summaries", "summaries"),
    ("simulation", "generate_sample", "simulation.generate_sample"),
    ("simulation", "presmooth", "sample.presmooth"),
    ("simulation", "decompose_many", "dynamics.decompose_many"),
    ("simulation", "mise", "simulation.mise"),
    ("simulation", "select_bandwidths", "bandwidth.select_bandwidths"),
    ("simulation", "smooth_ranks", "ranks.smooth_ranks"),
    ("simulation", "time_average", "summaries"),
]
# The roots, "cli.main" and "simulation.run_monte_carlo", are spanned where
# the benchmark calls them.
LAYERS = ["sample", "ranks", "dynamics", "bandwidth", "summaries", "simulation", "cli"]
BUSY = sorted({name for _, _, name in WRAPPED})
COUNTS = [
    "sample.rows_parsed",
    "sample.distinct_grids",
    "sample.shared_grid_share",
    "bandwidth.loo_terms",
    "engine.direct_pairs",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int
    error: bool = False
    call: tuple | None = None  # (function, args, kwargs, result)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, rankdyn_modules: dict):
        self.modules = rankdyn_modules
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None):
        kwargs = kwargs or {}
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.call = (fn, args, kwargs, result)
        return result

    @contextmanager
    def active(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                module = self.modules[mod_name]
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _bound(span: Span) -> dict:
    fn, args, kwargs, _ = span.call
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _pooled_times(source) -> np.ndarray:
    if hasattr(source, "times"):
        return np.sort(np.concatenate(source.times))
    return np.sort(np.tile(source.eval_grid, source.n))


def _window_obs(pooled: np.ndarray, grid: np.ndarray, h_t: float) -> int:
    """Observations with |t - t_k| <= h_t, summed over the evaluation times."""
    hi = np.searchsorted(pooled, grid + h_t, side="right")
    lo = np.searchsorted(pooled, grid - h_t, side="left")
    return int((hi - lo).sum())


def _inside(grid: np.ndarray, trim: float) -> np.ndarray:
    return grid[(grid >= trim - _TOL) & (grid <= 1.0 - trim + _TOL)]


def _direct_pairs(span: Span) -> int:
    """Queries x observations in the h_t window, over evaluation times and pairs."""
    a = _bound(span)
    if span.name == "ranks.smooth_ranks":
        src, bw = a["source"], a["bw"]
        grid = a["eval_grid"]
        if grid is None:
            grid = src.eval_grid if hasattr(src, "eval_grid") else src.shared_grid
        grid = _inside(np.atleast_1d(np.asarray(grid, dtype=float)), bw.h_t)
        return src.n * _window_obs(_pooled_times(src), grid, bw.h_t)
    pairs = a["bandwidths"] if "bandwidths" in a else [a["bw"]]
    trim = a["trim"] if a["trim"] is not None else max(bw.h_t for bw in pairs)
    grid = _inside(a["smoothed"].eval_grid, float(trim))
    pooled = _pooled_times(a["sample"])
    return a["sample"].n * sum(_window_obs(pooled, grid, bw.h_t) for bw in pairs)


def sequence_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced op sequence."""
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.end - s.start
    out = {f"{name}.busy_s": 0.0 for name in BUSY}
    out.update({f"{name}.calls": 0 for name in BUSY})
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out.update({f"{layer}.errors": 0 for layer in LAYERS})
    out.update({name: 0 for name in COUNTS})
    subjects = shared = 0
    for s, child in zip(spans, children):
        layer = s.name.split(".")[0]
        out[f"{layer}.self_s"] += (s.end - s.start) - child
        out[f"{layer}.errors"] += int(s.error)
        if s.name in BUSY:
            out[f"{s.name}.busy_s"] += s.end - s.start
            out[f"{s.name}.calls"] += 1
        if s.call is None:
            continue
        if s.name == "sample.load_long_csv":
            out["sample.rows_parsed"] += sum(t.size for t in s.call[3].times)
        elif s.name == "sample.presmooth":
            grids = [t.tobytes() for t in _bound(s)["sample"].times]
            counts = {g: grids.count(g) for g in set(grids)}
            out["sample.distinct_grids"] += len(counts)
            subjects += len(grids)
            shared += sum(c for c in counts.values() if c > 1)
        elif s.name == "bandwidth.select_bandwidths":
            a = _bound(s)
            h_max = a["grid"].h_max
            interior = sum(int(((t > h_max) & (t < 1.0 - h_max)).sum()) for t in a["sample"].times)
            out["bandwidth.loo_terms"] += interior * len(a["grid"].pairs)
        elif s.name in ("ranks.smooth_ranks", "dynamics.decompose", "dynamics.decompose_many"):
            out["engine.direct_pairs"] += _direct_pairs(s)
    out["sample.shared_grid_share"] = shared / subjects if subjects else 0.0
    engine_busy = sum(
        out[f"{name}.busy_s"]
        for name in ("ranks.smooth_ranks", "dynamics.decompose", "dynamics.decompose_many")
    )
    pairs = out["engine.direct_pairs"]
    out["engine.ns_per_direct_pair"] = 1e9 * engine_busy / pairs if pairs else 0.0
    return out
