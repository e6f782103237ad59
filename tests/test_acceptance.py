"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 5, 6 and 7 read one shared Monte Carlo report (100 runs of the
closed-form verification model at n = 20, 50, 200 over the canonical
16-pair bandwidth grid with h_max = 0.3); everything else runs on its own
fixed-seed inputs.  Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest

from rankdyn import _engine
from rankdyn.bandwidth import BandwidthGrid, cv_objective, select_bandwidths
from rankdyn.dynamics import contributions, decompose, estimate_partials
from rankdyn.kernels import EPANECHNIKOV
from rankdyn.ranks import (
    Bandwidths,
    default_bandwidths,
    empirical_ranks,
    smooth_cdf,
    smooth_ranks,
)
from rankdyn.sample import FunctionalSample, presmooth
from rankdyn.simulation import SimModel, generate_sample, run_monte_carlo
from rankdyn.summaries import population_summaries, subject_summaries
from reference import naive_cv_objective, naive_smooth_cdf

MC_RUNS = 100
MC_SEED = 20_240_511


def _verdict(name: str, ok: bool, detail: str, elapsed: float, limit: float):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({elapsed:.1f}s / limit {limit:.0f}s)"
    print(line)
    assert ok, line
    assert elapsed < limit, line


@pytest.fixture(scope="session")
def mc_report():
    model = SimModel()
    start = time.perf_counter()
    report = run_monte_carlo(model, [20, 50, 200], runs=MC_RUNS, base_seed=MC_SEED)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def sim200_fixed():
    return generate_sample(SimModel(), 200, seed=314159)


@pytest.fixture(scope="session")
def cv200(sim200_fixed):
    return select_bandwidths(sim200_fixed.sample, BandwidthGrid.geometric()).chosen


def test_criterion_1_exact_chain_rule():
    start = time.perf_counter()
    sim = generate_sample(SimModel(), 50, seed=101)
    bw = default_bandwidths(sim.sample)
    delta = 1e-5
    rng = np.random.default_rng(2024)

    def curve(t):
        return 1.5 + np.sin(2 * np.pi * t)

    def slope(t):
        return 2 * np.pi * np.cos(2 * np.pi * t)

    worst = 0.0
    for t in rng.uniform(bw.h_t + 2 * delta, 1 - bw.h_t - 2 * delta, 100):
        d1, d2 = estimate_partials(sim.sample, bw, curve(t), t, kernel=EPANECHNIKOV)
        fd = (
            smooth_cdf(sim.sample, bw, curve(t + delta), t + delta)
            - smooth_cdf(sim.sample, bw, curve(t - delta), t - delta)
        ) / (2 * delta)
        worst = max(worst, abs(d1 + d2 * slope(t) - fd))
    _verdict(
        "criterion 1 exact chain rule",
        worst < 1e-4,
        f"max |C1+C2 - dF/dt| = {worst:.2e} (tol 1e-4)",
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_2_uniform_rank_law():
    start = time.perf_counter()
    sim = generate_sample(SimModel(m=40), 500, seed=11)
    bw = default_bandwidths(sim.sample)
    smooth = smooth_ranks(sim.sample, bw, eval_grid=[0.5])
    ks = kstest(smooth.ranks[:, 0], "uniform").statistic
    emp = empirical_ranks(sim.sample, eval_grid=[0.5])
    exact = np.array_equal(np.sort(emp.ranks[:, 0]), np.arange(500) / 500)
    _verdict(
        "criterion 2 uniform rank law",
        ks < 0.10 and exact,
        f"KS = {ks:.4f} (tol 0.10), empirical ranks exact lattice: {exact}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_3_mean_rank_centering(sim200_fixed, cv200):
    start = time.perf_counter()
    ranks = smooth_ranks(sim200_fixed.sample, cv200)
    means = ranks.ranks.mean(axis=0)
    lo, hi = means.min(), means.max()
    _verdict(
        "criterion 3 mean-rank centering",
        0.45 <= lo and hi <= 0.55,
        f"mean rank in [{lo:.4f}, {hi:.4f}] over {means.size} trimmed points "
        f"(CV bandwidths h_y={cv200.h_y:.3f}, h_t={cv200.h_t:.4f})",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_4_method_agreement(sim200_fixed, cv200):
    start = time.perf_counter()
    smooth = smooth_ranks(sim200_fixed.sample, cv200)
    emp = empirical_ranks(sim200_fixed.sample, eval_grid=smooth.eval_grid)
    gap = float(np.mean(np.abs(smooth.ranks - emp.ranks)))
    _verdict(
        "criterion 4 method agreement",
        gap < 0.05,
        f"mean |empirical - smooth| = {gap:.4f} (tol 0.05)",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_5_mise_consistency_trend(mc_report):
    report, harness_time = mc_report
    start = time.perf_counter()
    med = {n: report.median_opt_mise(n) for n in (20, 50, 200)}
    ok = med[20] > med[50] > med[200]
    _verdict(
        "criterion 5 MISE consistency trend",
        ok,
        f"median oracle MISE {med[20]:.3f} -> {med[50]:.3f} -> {med[200]:.3f} "
        f"over {MC_RUNS} runs",
        harness_time + time.perf_counter() - start,
        1200.0,
    )


def test_criterion_6_cv_efficiency(mc_report):
    report, _ = mc_report
    start = time.perf_counter()
    r50 = report.median_cv_ratio(50)
    r200 = report.median_cv_ratio(200)
    _verdict(
        "criterion 6 CV efficiency",
        r50 <= 1.5 and r200 <= 1.3,
        f"median MISE(CV)/MISE(opt) = {r50:.3f} at n=50 (tol 1.5), "
        f"{r200:.3f} at n=200 (tol 1.3)",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_7_summary_statistic_trend(mc_report):
    report, _ = mc_report
    start = time.perf_counter()
    errs = {n: report.median_stat_errors(n) for n in (20, 50, 200)}
    ok = all(
        errs[20][k] > errs[50][k] > errs[200][k] for k in ("rho", "nu", "zeta")
    )
    detail = "; ".join(
        f"{k}: {errs[20][k]:.2e} -> {errs[50][k]:.2e} -> {errs[200][k]:.2e}"
        for k in ("rho", "nu", "zeta")
    )
    _verdict(
        "criterion 7 summary-statistic trend",
        ok,
        detail,
        time.perf_counter() - start,
        600.0,
    )


def test_criterion_8_stability_extremes():
    start = time.perf_counter()
    n = 50
    grid = np.linspace(0, 1, 101)
    vals = np.array([(i + 1) / n + 0.1 * np.sin(2 * np.pi * grid) for i in range(n)])
    calm = FunctionalSample.from_matrix(grid, vals)
    bw = default_bandwidths(calm)
    dec = decompose(calm, presmooth(calm, h_d=0.15), bw)
    ranks = smooth_ranks(calm, bw, eval_grid=dec.trimmed_grid)
    etas = [s.eta for s in subject_summaries(ranks, dec)]
    pop = population_summaries(dec)

    dense = np.linspace(0, 1, 401)
    offsets = np.linspace(0.0, 2.0, n)
    parallel = FunctionalSample.from_matrix(
        dense, offsets[:, None] + np.sin(2 * np.pi * dense)[None, :]
    )
    dec_p = decompose(parallel, presmooth(parallel, h_d=0.10), default_bandwidths(parallel))
    ratio = float(np.mean(np.abs(dec_p.c1 + dec_p.c2)) / np.mean(np.abs(dec_p.c2)))

    ok = max(etas) < 0.01 and pop.stability > 0.99 and pop.mixing < 0.01 and ratio < 0.05
    _verdict(
        "criterion 8 stability extremes",
        ok,
        f"non-crossing: max eta {max(etas):.2e} (tol 0.01), G {pop.stability:.5f} "
        f"(>0.99), M {pop.mixing:.2e} (<0.01); parallel: |C1+C2|/|C2| = {ratio:.4f} "
        f"(tol 0.05)",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_9_algebraic_invariants(sim200_fixed, cv200):
    start = time.perf_counter()
    sim = generate_sample(SimModel(), 50, seed=55)
    smoothed = presmooth(sim.sample, h_d=0.12)
    dec = decompose(sim.sample, smoothed, Bandwidths(0.8, 0.2))
    lam = contributions(dec)
    lam_ok = (lam.lambda1 + lam.lambda2 == 1.0) and 0.0 <= lam.lambda1 <= 1.0
    pop = population_summaries(dec)
    g_ok = pop.stability == np.exp(-pop.mixing)

    flat = _engine.flatten_sample(sim.sample)
    rng = np.random.default_rng(99)
    ts = rng.uniform(0.25, 0.75, 100)
    yq = np.stack([rng.uniform(-6.0, 12.0, 100) for _ in ts], axis=1)
    [(_, q2, _, _, q5)] = _engine.qbar_grid(flat, EPANECHNIKOV, [(0.7, 0.2)], ts, yq)
    d2_min = float((q5 / q2).min())

    ranks = smooth_ranks(sim200_fixed.sample, cv200)
    emp = empirical_ranks(sim200_fixed.sample)
    ranks_ok = (
        ranks.ranks.min() >= 0.0
        and ranks.ranks.max() <= 1.0
        and emp.ranks.min() >= 0.0
        and emp.ranks.max() <= 1.0
    )
    ok = lam_ok and g_ok and d2_min >= 0.0 and ranks_ok
    _verdict(
        "criterion 9 algebraic invariants",
        ok,
        f"lambda1+lambda2 == 1: {lam_ok}; G == exp(-M): {g_ok}; "
        f"min D2 over 10^4 points = {d2_min:.2e}; ranks within [0,1]: {ranks_ok}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_10_oracle_equivalence(tiny_sample):
    start = time.perf_counter()
    worst_cdf = 0.0
    rng = np.random.default_rng(12)
    for _ in range(25):
        y = rng.uniform(-1.0, 2.5)
        t = rng.uniform(0.35, 0.65)
        ours = smooth_cdf(tiny_sample, Bandwidths(0.8, 0.3), y, t)
        ref = naive_smooth_cdf(tiny_sample.times, tiny_sample.values, 0.8, 0.3, y, t)
        worst_cdf = max(worst_cdf, abs(ours - ref))

    pair = FunctionalSample.from_matrix(
        np.array([0.2, 0.4, 0.6, 0.8]),
        np.vstack([np.array([0.0, 0.2, 0.1, 0.3]), np.array([1.0, 0.8, 0.9, 1.1])]),
    )
    rel = 0.0
    for sample in (tiny_sample, pair):
        ours = cv_objective(sample, Bandwidths(0.8, 0.3), h_max=0.3)
        ref = naive_cv_objective(
            [list(t) for t in sample.times],
            [list(v) for v in sample.values],
            0.8, 0.3, 0.3,
        )
        rel = max(rel, abs(ours - ref) / ref)

    ok = worst_cdf < 1e-12 and rel < 1e-3
    _verdict(
        "criterion 10 oracle equivalence",
        ok,
        f"max |smooth_cdf - bruteforce| = {worst_cdf:.2e} (tol 1e-12); "
        f"max CV rel diff = {rel:.2e} (tol 1e-3)",
        time.perf_counter() - start,
        10.0,
    )
