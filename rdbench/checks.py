"""Output checks.  Each returns a list of problems; an empty list means correct.

The checks read the files the CLI wrote and test the paper's identities
(ranks in [0, 1], lambda1 + lambda2 = 1, G = exp(-M), R' = C1 + C2), the
row counts, the empirical-rank lattice, and, on the shared-grid workload,
spot values against the direct-sum oracle in ``model.py``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import model

EVAL_POINTS = 101
_TOL = 1e-9


def eval_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, EVAL_POINTS)


def trimmed(grid: np.ndarray, trim: float) -> np.ndarray:
    return grid[(grid >= trim - _TOL) & (grid <= 1.0 - trim + _TOL)]


def _rows(path: Path, header: list[str]):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValueError(f"{path.name}: header is not {','.join(header)}")
        yield from reader


def _read_table(path: Path, header: list[str], ids: list[str], times: np.ndarray):
    """Numeric columns after (id, t) as (n, T) arrays, in subject and time order."""
    rows = list(_rows(path, header))
    got_t = np.array([float(row[1]) for row in rows])
    if [row[0] for row in rows] != [sid for sid in ids for _ in times] or not np.allclose(
        got_t, np.tile(times, len(ids)), rtol=0, atol=1e-12
    ):
        raise ValueError(f"{path.name}: {len(rows)} (id, t) rows, expected {len(ids) * times.size} in order")
    data = np.array([[float(x) for x in row[2:]] for row in rows]).reshape(len(ids), times.size, -1)
    return [data[:, :, c] for c in range(data.shape[2])]


def check_cv(outdir: Path, n_pairs: int):
    """(problems, chosen (h_y, h_t)) for cv_report.csv and chosen.json."""
    entries = [tuple(float(x) for x in row) for row in _rows(outdir / "cv_report.csv", ["h_y", "h_t", "cv_value"])]
    problems = []
    if len(entries) != n_pairs:
        problems.append(f"cv_report.csv has {len(entries)} rows, expected {n_pairs}")
    if not all(math.isfinite(v) and v > 0 for _, _, v in entries):
        problems.append("cv_report.csv holds a non-finite or non-positive objective")
    chosen = json.loads((outdir / "chosen.json").read_text())
    pick = (chosen["h_y"], chosen["h_t"])
    best = min(entries, key=lambda e: (e[2], e[1], e[0]))
    if pick != best[:2]:
        problems.append(f"chosen.json {pick} is not the argmin {best[:2]} of cv_report.csv")
    return problems, pick


def check_decomposition(outdir: Path, ids: list[str], grid: np.ndarray):
    """(problems, (c1, c2)) for decomposition.csv and contributions.json."""
    c1, c2, rprime = _read_table(outdir / "decomposition.csv", ["id", "t", "c1", "c2", "rprime"], ids, grid)
    problems = []
    if not (np.all(np.isfinite(c1)) and np.all(np.isfinite(c2))):
        problems.append("decomposition.csv holds non-finite components")
    if np.any(np.abs(rprime - (c1 + c2)) > 1e-12 * np.maximum(1.0, np.abs(rprime))):
        problems.append("rprime != c1 + c2 in decomposition.csv")
    lam = json.loads((outdir / "contributions.json").read_text())
    if not (0.0 <= lam["lambda1"] <= 1.0 and abs(lam["lambda1"] + lam["lambda2"] - 1.0) <= 1e-12):
        problems.append(f"lambda1 + lambda2 != 1 in contributions.json: {lam}")
    return problems, (c1, c2)


def check_summaries(outdir: Path, ids: list[str], grid: np.ndarray):
    rows = list(_rows(outdir / "subject_summaries.csv", ["id", "rho", "nu", "zeta", "eta"]))
    got_ids = [row[0] for row in rows]
    rho, nu, zeta, eta = np.array([[float(x) for x in row[1:]] for row in rows]).reshape(-1, 4).T
    problems = []
    if got_ids != ids:
        problems.append(f"subject_summaries.csv has {len(got_ids)} subjects, expected {len(ids)} in order")
    if not (np.all((rho >= 0) & (rho <= 1)) and np.all((nu >= 0) & (nu <= 0.25))
            and np.all(np.abs(zeta) <= 1) and np.all(eta >= 0)):
        problems.append("subject_summaries.csv: rho, nu, zeta or eta outside its range")
    pop = json.loads((outdir / "population.json").read_text())
    if not (pop["M"] >= 0 and abs(pop["G"] - math.exp(-pop["M"])) <= 1e-15 * max(1.0, pop["G"])):
        problems.append(f"G != exp(-M) in population.json: M={pop['M']!r}, G={pop['G']!r}")
    if len(pop["gamma"]) != grid.size or min(pop["gamma"]) < 0:
        problems.append(f"population.json gamma has {len(pop['gamma'])} values, expected {grid.size} >= 0")
    return problems


def check_ranks(outdir: Path, ids: list[str], methods: dict[str, np.ndarray]):
    """(problems, smooth ranks (n, T) or None) for ranks.csv.

    ``methods`` maps each rank method in the file to its evaluation grid.
    Empirical ranks must form the lattice {0, 1/n, ..., (n-1)/n} at every t,
    which holds exactly when no two curves tie there.
    """
    n = len(ids)
    problems = []
    want = [(m, sid, t) for m, g in methods.items() for sid in ids for t in g]
    seen = [bytearray(n) for _ in methods.get("empirical", ())]
    smooth = [] if "smooth" in methods else None
    k = 0
    for sid, t, rank, method in _rows(outdir / "ranks.csv", ["id", "t", "rank", "method"]):
        if k >= len(want) or want[k][:2] != (method, sid) or abs(float(t) - want[k][2]) > 1e-12:
            problems.append(f"ranks.csv row {k + 2} is {sid},{t},{method}; rows are out of order or too many")
            return problems, None
        r = float(rank)
        if not 0.0 <= r <= 1.0:
            problems.append(f"rank {r!r} outside [0, 1] for {sid} at t={t}")
            return problems, None
        if method == "empirical":
            j = round(r * n)
            g = k % methods["empirical"].size
            if not (j < n and j / n == r) or seen[g][j]:
                problems.append(f"empirical ranks at t={t} are not the lattice {{0, 1/n, ..., (n-1)/n}}")
                return problems, None
            seen[g][j] = 1
        else:
            smooth.append(r)
        k += 1
    if k != len(want):
        problems.append(f"ranks.csv has {k} rows, expected {len(want)}")
        return problems, None
    if smooth is not None:
        smooth = np.array(smooth).reshape(n, methods["smooth"].size)
    return problems, smooth


def _shared_presmooth(grid: np.ndarray, values: np.ndarray, h_d: float, g: np.ndarray):
    fits = [model.presmooth_shared(grid, values, h_d, x) for x in g]
    return np.array([f for f, _ in fits]).T, np.array([s for _, s in fits]).T


def check_oracle_shared(grid, values, h_d, bw, tgrid, smooth, c1, c2, spots: int = 5):
    """Spot-check smooth ranks and C1/C2 against direct sums on a shared grid.

    ``grid`` and ``values`` are the raw input; ``smooth``, ``c1`` and ``c2``,
    each (n, len(tgrid)) on the trimmed grid, are what the CLI wrote.
    """
    h_y, h_t = bw
    problems = []
    egrid = eval_grid()
    pick = np.unique(np.linspace(0, tgrid.size - 1, spots).round().astype(int))
    for j in pick:
        t = tgrid[j]
        near = egrid[np.abs(egrid - t) <= h_t + _TOL]
        fit, slope = _shared_presmooth(grid, values, h_d, np.concatenate(([t], near)))
        y, dy = fit[:, 0], slope[:, 0]
        q1, q2, q3, q4, q5 = model.qsums([grid] * len(values), list(values), h_y, h_t, y, t)
        want_c1 = q3 / q2 - q1 * q4 / (q2 * q2)
        want_c2 = q5 / q2 * dy
        if not (np.allclose(c1[:, j], want_c1, rtol=1e-7, atol=1e-9)
                and np.allclose(c2[:, j], want_c2, rtol=1e-7, atol=1e-9)):
            problems.append(f"C1/C2 at t={t!r} differ from the direct-sum oracle")
        # smooth ranks pool the presmoothed curves at every evaluation point
        pooled = fit[:, 1:]
        r1, r2, _, _, _ = model.qsums([near] * len(values), list(pooled), h_y, h_t, y, t)
        if not np.allclose(smooth[:, j], np.clip(r1 / r2, 0.0, 1.0), rtol=0, atol=1e-9):
            problems.append(f"smooth ranks at t={t!r} differ from the direct-sum oracle")
    return problems


def mise(xi: np.ndarray, grid: np.ndarray, c1: np.ndarray, c2: np.ndarray) -> float:
    """Total C1 + C2 mean integrated squared error against the closed form."""
    _, c1_true, c2_true = model.truth(xi, grid)
    return float(model.trapezoid((c1 - c1_true) ** 2, grid).mean() + model.trapezoid((c2 - c2_true) ** 2, grid).mean())


def check_mc_rows(rows, n_list, pairs):
    """Monte Carlo rows: one per n, picks on the grid, finite errors, opt <= cv."""
    problems = []
    if [r.n for r in rows] != list(n_list):
        problems.append(f"Monte Carlo rows cover n={[r.n for r in rows]}, expected {list(n_list)}")
    for r in rows:
        if (r.h_y_cv, r.h_t_cv) not in pairs or (r.h_y_opt, r.h_t_opt) not in pairs:
            problems.append(f"n={r.n}: a bandwidth pick is not on the grid")
        errs = [r.mise_c1_cv, r.mise_c2_cv, r.mise_c1_opt, r.mise_c2_opt, r.err_rho, r.err_nu, r.err_zeta]
        if not all(math.isfinite(e) and e >= 0 for e in errs):
            problems.append(f"n={r.n}: a MISE or summary error is negative or not finite")
        elif r.mise_c1_opt + r.mise_c2_opt > r.mise_c1_cv + r.mise_c2_cv:
            problems.append(f"n={r.n}: the oracle pick has a larger MISE than the CV pick")
    return problems
