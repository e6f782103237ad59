import tracemalloc

import numpy as np
import pytest

from rankdyn import _engine
from rankdyn.bandwidth import BandwidthGrid
from rankdyn.dynamics import decompose_many
from rankdyn.kernels import BIWEIGHT, EPANECHNIKOV
from rankdyn.sample import presmooth
from rankdyn.simulation import generate_sample
from reference import naive_partials, naive_qbars, naive_smooth_cdf


def test_flatten_orders_by_value(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    dy = np.diff(flat.y)
    assert np.all((dy > 0) | ((dy == 0) & (np.diff(flat.t) >= 0)))
    assert flat.n == 3
    assert flat.t.size == 15
    assert np.allclose(flat.w, 1 / 5)


def test_qbar_all_matches_naive(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    [got] = _engine.qbar_grid(flat, EPANECHNIKOV, [(0.8, 0.3)], [0.45], [[0.6], [1.2]])
    for qi, (y, _) in zip(range(2), [(0.6, None), (1.2, None)]):
        ref = naive_qbars(tiny_sample.times, tiny_sample.values, 0.8, 0.3, [0.6, 1.2][qi], 0.45)
        assert got[0][qi, 0] == pytest.approx(ref[0], abs=1e-13)
        assert got[1][0] == pytest.approx(ref[1], abs=1e-13)
        assert got[2][qi, 0] == pytest.approx(ref[2], abs=1e-13)
        assert got[3][0] == pytest.approx(ref[3], abs=1e-13)
        assert got[4][qi, 0] == pytest.approx(ref[4], abs=1e-13)


def test_qbar_grid_matches_singles(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    pairs = [(0.8, 0.3), (0.8, 0.15), (0.4, 0.3), (1.6, 0.2)]
    yq = np.array([[0.1], [0.7], [1.5]])
    batched = _engine.qbar_grid(flat, EPANECHNIKOV, pairs, [0.5], yq)
    for (hy, ht), got in zip(pairs, batched):
        [solo] = _engine.qbar_grid(flat, EPANECHNIKOV, [(hy, ht)], [0.5], yq)
        for a, b in zip(got, solo):
            assert np.allclose(a, b, atol=1e-13)


def _ragged(shift, seed=11):
    """Ten subjects on ragged grids; subject 0 moved up by ``shift``."""
    rng = np.random.default_rng(seed)
    times = [np.sort(rng.uniform(0.0, 1.0, rng.integers(5, 10))) for _ in range(10)]
    values = [rng.normal(0.0, 1.0, ti.size) + 2.0 * ti for ti in times]
    values[0] = values[0] + shift
    return times, values


def _oracle_gap(times, values, kern, pairs, ts, yq):
    """Largest |engine - direct sums| over F, D1 and D2, all pairs, times and queries.

    One engine call covers every time in ``ts``; each time is queried at all of ``yq``.
    """
    flat = _engine.flatten(times, values, len(times))
    ts = np.asarray(ts, dtype=float)
    gap = 0.0
    for (hy, ht), (q1, q2, q3, q4, q5) in zip(
        pairs, _engine.qbar_grid(flat, kern, pairs, ts, np.tile(np.c_[yq], ts.size))
    ):
        for j, t in enumerate(ts):
            for qi, y in enumerate(yq):
                got = (
                    q1[qi, j] / q2[j],
                    q3[qi, j] / q2[j] - q1[qi, j] * q4[j] / (q2[j] * q2[j]),
                    q5[qi, j] / q2[j],
                )
                want = (
                    naive_smooth_cdf(times, values, hy, ht, y, t, kern.name),
                    *naive_partials(times, values, hy, ht, y, t, kern.name),
                )
                gap = max(gap, *(abs(a - b) for a, b in zip(got, want)))
    return gap


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("shift", [0.0, 50.0, 500.0])
def test_engine_matches_oracle_with_outlier(kern, shift):
    times, values = _ragged(shift)
    # 0.4, 0.7 and 1.1 share cells of width 0.4
    pairs = [(0.4, 0.2), (0.7, 0.35), (1.1, 0.2), (1.1, 0.35)]
    allv = np.concatenate(values)
    # every observed value, points at the band edges, and queries near the outlier
    yq = np.concatenate([allv, allv[:10] + 0.4, allv[:10] - 1.1, [shift - 0.5, shift + 0.3]])
    assert _oracle_gap(times, values, kern, pairs, [0.72, 0.3, 0.5], yq) < 1e-10


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("shift", [0.0, 50.0, 500.0])
def test_engine_matches_oracle_when_h_y_span_a_factor_12(kern, shift):
    # 0.1, 0.3 and 0.5 share cells of width 0.1, so 0.5's bands span up to
    # 11 cells; 1.2 gets cells of its own
    assert [hys for _, hys in _engine.cell_sets([0.1, 0.3, 0.5, 1.2])] == [[0.1, 0.3, 0.5], [1.2]]
    times, values = _ragged(shift)
    pairs = [(0.1, 0.2), (0.3, 0.35), (0.5, 0.2), (0.5, 0.35), (1.2, 0.35)]
    allv = np.concatenate(values)
    yq = np.concatenate([allv, allv[:10] + 0.5, allv[:10] - 0.1, [shift - 0.5, shift + 0.3]])
    assert _oracle_gap(times, values, kern, pairs, [0.72, 0.3, 0.5], yq) < 1e-10


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("shift", [0.0, 500.0])
def test_engine_matches_oracle_on_blocks_of_times(kern, shift):
    # with h_t <= 0.1 a block holds several of these close times
    times, values = _ragged(shift)
    ts = np.array([0.52, 0.4, 0.43, 0.46, 0.49, 0.55, 0.58, 0.61, 0.64, 0.37])
    t_sorted = np.sort(np.concatenate(times))
    assert max(b - a for a, b in _engine._blocks(t_sorted, np.sort(ts), 0.1)) > 1
    pairs = [(0.4, 0.06), (0.7, 0.1), (1.1, 0.1)]
    allv = np.concatenate(values)
    yq = np.concatenate([allv, allv[:10] + 0.4, [shift - 0.5, shift + 0.3]])
    assert _oracle_gap(times, values, kern, pairs, ts, yq) < 1e-10


def test_blocks_merge_times_within_the_moment_bound(model, monkeypatch):
    # on 20 subjects one time's window holds a few hundred observations, so a
    # block takes several times while its prefix moments stay within the bound
    sim = generate_sample(model, 20, seed=3)
    smoothed = presmooth(sim.sample, h_d=0.1, eval_grid_size=101)
    grid = BandwidthGrid.geometric()
    blocks, sizes = [], []
    blocks_of, moments_of = _engine._blocks, _engine.prefix_moments

    def recorded_blocks(*args):
        for block in blocks_of(*args):
            blocks.append(block)
            yield block

    def recorded_moments(*args):
        mom = moments_of(*args)
        sizes.append(mom.size)
        return mom

    monkeypatch.setattr(_engine, "_blocks", recorded_blocks)
    monkeypatch.setattr(_engine, "prefix_moments", recorded_moments)
    times = decompose_many(sim.sample, smoothed, grid.pairs, trim=grid.h_max)[0].trimmed_grid.size
    assert sum(stop - start for start, stop in blocks) == times
    assert len(blocks) < times
    assert max(sizes) <= _engine.BLOCK_MOMENTS


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
def test_engine_matches_oracle_on_ties(kern):
    # values on a 0.25 lattice with h_y = 0.5: band edges fall on data points
    # and on cell edges
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 11)
    times = [grid] * 8
    values = [np.round(rng.normal(0.0, 1.0, grid.size) * 4.0) / 4.0 for _ in times]
    yq = np.arange(-3.0, 3.01, 0.25)
    assert _oracle_gap(times, values, kern, [(0.5, 0.25), (1.0, 0.3)], [0.5], yq) < 1e-10


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
def test_engine_matches_oracle_with_one_observation_in_window(kern):
    times = [np.array([0.1, 0.48, 0.9]), np.array([0.05, 0.95]), np.array([0.1, 0.85])]
    values = [np.array([0.3, 1.2, 0.4]), np.array([0.0, 2.0]), np.array([-1.0, 0.5])]
    flat = _engine.flatten(times, values, 3)
    assert np.sum(np.abs(flat.t - 0.5) <= 0.2) == 1
    yq = np.array([0.5, 1.0, 1.2, 1.5, 1.9])
    assert _oracle_gap(times, values, kern, [(0.7, 0.2)], [0.5], yq) < 1e-10


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("shift", [0.0, 500.0])
def test_queries_beyond_the_band_saturate_exactly(kern, shift):
    times, values = _ragged(shift)
    flat = _engine.flatten(times, values, len(times))
    hy = 0.6
    win = np.abs(flat.t - 0.5) <= 0.3
    ymin, ymax = flat.y[win].min(), flat.y[win].max()
    yq = [[ymin - hy - 1e-9], [ymin - 10.0], [ymax + hy + 1e-9], [ymax + 10.0]]
    [(q1, q2, q3, q4, _)] = _engine.qbar_grid(flat, kern, [(hy, 0.3)], [0.5], yq)
    q1, q2, q3, q4 = q1[:, 0], q2[0], q3[:, 0], q4[0]
    assert q2 > 0
    assert q1[0] == q1[1] == 0.0
    assert q3[0] == q3[1] == 0.0
    # S1 = S2 and S3 = S4 exactly, so F = 1 and D1 = 0 with no rounding dust
    assert q1[2] == q1[3] == q2
    assert q3[2] == q3[3] == q4


def test_window_excludes_far_observations(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    win = np.abs(flat.t - 0.5) <= 0.15
    assert np.all(np.abs(flat.t[win] - 0.5) <= 0.15)
    assert win.sum() < flat.t.size
    [(q1, q2, _, _, _)] = _engine.qbar_grid(flat, EPANECHNIKOV, [(0.5, 0.15)], [0.5], [[0.5]])
    ref = naive_qbars(tiny_sample.times, tiny_sample.values, 0.5, 0.15, 0.5, 0.5)
    assert q1[0, 0] == pytest.approx(ref[0], abs=1e-14)
    assert q2[0] == pytest.approx(ref[1], abs=1e-14)


def test_cell_starts_are_bounded_by_the_points_not_the_spread():
    # one point 1e12 widths above the rest: the run of empty cells between
    # counts as a few rows of the start table, and every band of the reach
    # still finds each of its cells' starts there
    rng = np.random.default_rng(2)
    x = np.sort(np.append(rng.normal(0.0, 1.0, 60), 1e11))
    width, reach = 0.1, 0.5
    cl = _engine.cells(x, width, 3, reach)
    span = int(2 * reach / width) + 2
    assert cl.start.size <= x.size * (span + 1) + 1
    assert cl.start[-1] == x.size
    for k in range(1, span + 1):
        want = np.searchsorted(cl.cell, cl.cell + k)
        assert np.array_equal(np.take(cl.start, cl.key + k, mode="clip"), want)


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
def test_engine_matches_oracle_with_a_far_outlier(kern):
    # the outlier sits 1e9 narrowest widths above the bulk, queried in the bulk
    times, values = _ragged(1e8)
    pairs = [(0.1, 0.2), (0.3, 0.35), (0.5, 0.2)]
    yq = np.concatenate([np.concatenate(values[1:]), [1e8 - 1.0]])
    assert _oracle_gap(times, values, kern, pairs, [0.72, 0.3, 0.5], yq) < 1e-10


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
@pytest.mark.parametrize("hs, sets", [((0.05, 0.1, 0.2), 1), ((0.02, 0.05, 0.3), 2)],
                         ids=["one_cell_set", "two_cell_sets"])
def test_window_sums_match_direct_sums(kern, hs, sets):
    # jittered distinct times, plus 0.5 +- h for every h: the query 0.5 has
    # both window edges exactly on observation times, which the open windows
    # leave out in time units, whatever (0.5 - tau) / h rounds to
    assert len(list(_engine.cell_sets(hs))) == sets
    rng = np.random.default_rng(len(hs) + sets)
    jittered = (np.arange(150) + rng.uniform(0.05, 0.95, 150)) / 150
    edges = [0.5, *(0.5 + h for h in hs), *(0.5 - h for h in hs)]
    tau = np.unique(np.concatenate([jittered, edges]))
    assert tau.size == jittered.size + len(edges)
    queries = np.union1d(tau[::4], [0.5])
    d = rng.uniform(0.5, 1.5, size=(tau.size, 3))
    windows = _engine.WindowSums(tau, queries, hs, kern)
    got = windows.sums(d, list(range(len(hs))))
    for c, h in enumerate(sorted(hs)):
        lo, hi = np.searchsorted(tau, queries - h, "right"), np.searchsorted(tau, queries + h)
        assert np.array_equal(windows.ends[c], np.column_stack([lo, hi]))
        for q, s in enumerate(queries):
            inside = (tau > s - h) & (tau < s + h)
            assert np.array_equal(np.flatnonzero(inside), np.arange(lo[q], hi[q]))
            want = kern.density((s - tau[inside]) / h) @ d[inside]
            np.testing.assert_allclose(got[c, q], want, rtol=1e-12, atol=0.0)
        at = np.flatnonzero(queries == 0.5)[0]
        assert tau[lo[at] - 1] == 0.5 - h and tau[hi[at]] == 0.5 + h
    # the widest bandwidth read alone
    alone = windows.sums(d, [len(hs) - 1])
    assert np.array_equal(alone[0], got[-1])


@pytest.mark.parametrize("kern", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
def test_a_repeated_pair_reads_the_same_views(sim50, kern, monkeypatch):
    # the default grid plus a copy of its first pair: the copies, the pair in
    # the grid without the copy and the engine's arrays after they are read
    sample, grid = sim50.sample, BandwidthGrid.geometric()
    smoothed = presmooth(sample, h_d=0.1, eval_grid_size=101, kernel=kern)
    returned = []
    qbar_grid = _engine.qbar_grid

    def recorded(*args):
        qs = qbar_grid(*args)
        returned.append([(q, q.copy()) for pair in qs for q in pair])
        return qs

    monkeypatch.setattr(_engine, "qbar_grid", recorded)
    many = decompose_many(sample, smoothed, grid.pairs + grid.pairs[:1], trim=grid.h_max, kernel=kern)
    once = decompose_many(sample, smoothed, grid.pairs, trim=grid.h_max, kernel=kern)
    [alone] = decompose_many(sample, smoothed, grid.pairs[:1], trim=grid.h_max, kernel=kern)
    fields = ("c1", "c2", "rprime")
    for got in (many[-1], once[0]):
        assert all(np.array_equal(getattr(got, f), getattr(many[0], f)) for f in fields)
    for a, b in zip(many, once):
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)
    # alone, the pair's h_y sets the cells, so its sums agree to rounding
    for f in fields:
        np.testing.assert_allclose(getattr(alone, f), getattr(many[0], f), rtol=1e-12, atol=1e-12)
    for q, before in (q for call in returned for q in call):
        assert not q.flags.writeable
        assert np.array_equal(q, before)


def test_decompose_many_holds_little_beyond_what_it_returns(sim200):
    # the engine's averages are views of its scaled sums, with no copy per pair
    sample, grid = sim200.sample, BandwidthGrid.geometric()
    smoothed = presmooth(sample, h_d=0.1, eval_grid_size=101)
    decompose_many(sample, smoothed, grid.pairs, trim=grid.h_max)  # caches and lazy imports
    tracemalloc.start()
    try:
        results = decompose_many(sample, smoothed, grid.pairs, trim=grid.h_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(getattr(r, f).nbytes for r in results for f in ("c1", "c2", "rprime"))
    assert peak <= 2.4 * returned
