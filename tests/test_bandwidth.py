import tracemalloc

import numpy as np
import pytest

from rankdyn.bandwidth import BandwidthGrid, cv_objective, select_bandwidths
from rankdyn.errors import DataError, DomainError, InsufficientDataError
from rankdyn.kernels import BIWEIGHT, EPANECHNIKOV
from rankdyn.ranks import Bandwidths
from rankdyn.sample import FunctionalSample
from rankdyn.simulation import SimModel, basis_matrix
from reference import epan_h, grid_cv_objective, naive_cv_objective, trapezoid


def ragged_sample(n: int, seed: int, m_lo: int = 25, m_hi: int = 40) -> FunctionalSample:
    """Verification-model curves on one jittered grid per subject, m_i in m_lo..m_hi.

    Every observation time is distinct, so consecutive interior times score
    different subjects and CV blocks span several times.
    """
    rng = np.random.default_rng(seed)
    model = SimModel()
    sizes = rng.permutation([m_lo + ((m_hi - m_lo) * i) // (n - 1) for i in range(n)])
    times = [(np.arange(m) + rng.uniform(0.05, 0.95, m)) / m for m in sizes]
    xi = rng.normal(model.means, model.sds, size=(n, 5))
    values = [basis_matrix(t)[0] @ x for t, x in zip(times, xi)]
    return FunctionalSample([f"s{i}" for i in range(n)], times, values)


class TestBandwidthGrid:
    def test_geometric_layout(self):
        grid = BandwidthGrid.geometric()
        assert len(grid.pairs) == 16
        assert grid.h_max == pytest.approx(0.3)
        hy = sorted({bw.h_y for bw in grid.pairs}, reverse=True)
        ht = sorted({bw.h_t for bw in grid.pairs}, reverse=True)
        assert hy == pytest.approx([2.4 * 0.6**u for u in range(4)])
        assert ht == pytest.approx([0.3 * 0.6**v for v in range(4)])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            BandwidthGrid([])

    def test_scaled_default_tracks_sample_spread(self, sim50):
        grid = BandwidthGrid.scaled_default(sim50.sample)
        # §5-scale data should land close to the canonical h_y values
        assert max(bw.h_y for bw in grid.pairs) == pytest.approx(2.4, rel=0.2)


class TestCvObjective:
    def test_finite_and_nonnegative(self, tiny_sample):
        val = cv_objective(tiny_sample, Bandwidths(0.8, 0.3), h_max=0.3)
        assert np.isfinite(val) and val >= 0.0

    def test_matches_bruteforce_triple_loop(self, tiny_sample):
        bw = Bandwidths(0.8, 0.3)
        ours = cv_objective(tiny_sample, bw, h_max=0.3)
        ref = naive_cv_objective(
            [list(t) for t in tiny_sample.times],
            [list(v) for v in tiny_sample.values],
            0.8, 0.3, 0.3,
        )
        assert ours == pytest.approx(ref, rel=1e-3)

    def test_two_constant_subjects_closed_form(self):
        # leave-one-out against a single constant curve: the smoothed cdf is
        # H((y - c_other)/h_y) at every interior time, so the objective is
        # m_interior * (I1 + I2) with I1, I2 one-dimensional integrals
        c1, c2, h_y, h_max = 1.0, 2.5, 0.9, 0.3
        grid = np.linspace(0, 1, 21)
        s = FunctionalSample.from_matrix(
            grid, np.vstack([np.full(21, c1), np.full(21, c2)])
        )
        ours = cv_objective(s, Bandwidths(h_y, 0.25), h_max=h_max)

        ys = [0.0 + 3.5 * k / 20000 for k in range(20001)]
        i1 = trapezoid(
            ys, [((1.0 if c1 <= y else 0.0) - epan_h((y - c2) / h_y)) ** 2 for y in ys]
        )
        i2 = trapezoid(
            ys, [((1.0 if c2 <= y else 0.0) - epan_h((y - c1) / h_y)) ** 2 for y in ys]
        )
        m_interior = int(np.sum((grid > h_max) & (grid < 1 - h_max)))
        assert i1 == pytest.approx(i2, rel=1e-9)
        assert ours == pytest.approx(m_interior * (i1 + i2), rel=2e-3)

    def test_relabeling_invariance(self, tiny_sample):
        bw = Bandwidths(0.7, 0.25)
        base = cv_objective(tiny_sample, bw, h_max=0.3)
        perm = FunctionalSample(
            ["c", "a", "b"],
            [tiny_sample.times[i].copy() for i in (2, 0, 1)],
            [tiny_sample.values[i].copy() for i in (2, 0, 1)],
        )
        assert cv_objective(perm, bw, h_max=0.3) == pytest.approx(base, abs=1e-10)

    def test_shift_invariance(self, tiny_sample):
        bw = Bandwidths(0.7, 0.25)
        base = cv_objective(tiny_sample, bw, h_max=0.3)
        shifted = FunctionalSample(
            list(tiny_sample.ids),
            [t.copy() for t in tiny_sample.times],
            [v + 11.25 for v in tiny_sample.values],
        )
        assert cv_objective(shifted, bw, h_max=0.3) == pytest.approx(base, abs=1e-10)

    def test_ragged_grids_match_bruteforce(self):
        times = [
            np.array([0.05, 0.35, 0.65, 0.95]),
            np.array([0.2, 0.4, 0.6, 0.8]),
            np.array([0.1, 0.45, 0.7, 0.9]),
        ]
        values = [
            np.array([0.0, 0.5, 1.0, 1.5]),
            np.array([2.0, 1.5, 1.0, 0.5]),
            np.array([1.0, 1.1, 0.9, 1.0]),
        ]
        s = FunctionalSample(["a", "b", "c"], times, values)
        assert s.shared_grid is None
        ours = cv_objective(s, Bandwidths(0.9, 0.3), h_max=0.3)
        ref = naive_cv_objective(
            [list(t) for t in times], [list(v) for v in values], 0.9, 0.3, 0.3
        )
        assert ours == pytest.approx(ref, rel=1e-3)

    def test_mixed_grids_match_bruteforce(self):
        # a and b share a grid (scored together at 0.4 and 0.55), c does not
        shared = np.array([0.1, 0.25, 0.4, 0.55, 0.7, 0.9])
        times = [shared, shared.copy(), np.array([0.05, 0.3, 0.45, 0.6, 0.75, 0.95])]
        values = [
            np.array([0.0, 0.4, 0.9, 1.3, 1.6, 2.0]),
            np.array([2.2, 1.8, 1.1, 0.7, 0.6, 0.1]),
            np.array([1.0, 1.2, 0.8, 1.1, 0.9, 1.0]),
        ]
        s = FunctionalSample(["a", "b", "c"], times, values)
        assert s.shared_grid is None
        ours = cv_objective(s, Bandwidths(0.9, 0.3), h_max=0.3)
        ref = naive_cv_objective(
            [list(t) for t in times], [list(v) for v in values], 0.9, 0.3, 0.3
        )
        assert ours == pytest.approx(ref, rel=1e-3)

    def test_heavily_padded_ragged_grids_match_bruteforce(self):
        # c has three times the others' observations, so a and b are mostly
        # padding; b's 0.75 lies exactly h_t from a's scored time 0.5
        times = [
            np.array([0.1, 0.3, 0.5, 0.9]),
            np.array([0.05, 0.4, 0.75, 0.95]),
            np.linspace(0.02, 0.98, 12),
        ]
        values = [
            np.array([0.3, 0.8, 1.2, 1.0]),
            np.array([1.5, 1.1, 0.6, 0.2]),
            np.cos(np.linspace(0.0, 3.0, 12)),
        ]
        s = FunctionalSample(["a", "b", "c"], times, values)
        ours = cv_objective(s, Bandwidths(0.9, 0.25), h_max=0.25)
        ref = naive_cv_objective(
            [list(t) for t in times], [list(v) for v in values], 0.9, 0.25, 0.25
        )
        assert ours == pytest.approx(ref, rel=1e-3)

    def test_ragged_without_interior_observation_rejected(self):
        s = FunctionalSample(
            ["a", "b"],
            [np.array([0.1, 0.9]), np.array([0.2, 0.8])],
            [np.array([0.0, 1.0]), np.array([1.0, 0.0])],
        )
        with pytest.raises(DomainError):
            cv_objective(s, Bandwidths(0.5, 0.2), h_max=0.25)

    def test_no_other_subject_near_scored_time_names_time_and_subject(self):
        # at t = 0.5 only subject a is observed within h_t, so leaving it out
        # leaves no kernel mass
        s = FunctionalSample(
            ["a", "b"],
            [np.array([0.1, 0.5, 0.9]), np.array([0.1, 0.9])],
            [np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0])],
        )
        with pytest.raises(InsufficientDataError, match=r"t=0\.5 after leaving out subject 'a'"):
            cv_objective(s, Bandwidths(0.5, 0.2), h_max=0.25)

    def test_earliest_failing_time_is_named_before_pair_order(self):
        # One h_y, larger h_t first.  Leaving out a, h_t = 0.1 has no data at
        # t = 0.35 (b's 0.2 is 0.15 away), and h_t = 0.2 has none at t = 0.55
        # (b's 0.78 is 0.23 away).  Both times score a, in two slots of one block.
        s = FunctionalSample(
            ["a", "b"],
            [np.array([0.05, 0.12, 0.19, 0.35, 0.55, 0.75, 0.88, 0.95]), np.array([0.2, 0.78, 0.9])],
            [np.linspace(0.0, 1.0, 8), np.array([0.5, 0.4, 0.3])],
        )
        grid = BandwidthGrid([Bandwidths(0.5, 0.2), Bandwidths(0.5, 0.1)])
        with pytest.raises(InsufficientDataError, match=r"h_t=0\.1 of t=0\.35 after leaving out subject 'a'"):
            select_bandwidths(s, grid)

    def test_two_subjects_allowed_one_rejected(self):
        grid = np.linspace(0, 1, 11)
        pair = FunctionalSample.from_matrix(grid, np.vstack([np.zeros(11), np.ones(11)]))
        assert cv_objective(pair, Bandwidths(0.5, 0.2), h_max=0.25) >= 0.0
        solo = FunctionalSample.from_matrix(grid, np.zeros((1, 11)))
        with pytest.raises(InsufficientDataError):
            cv_objective(solo, Bandwidths(0.5, 0.2), h_max=0.25)

    def test_h_max_validation(self, tiny_sample):
        with pytest.raises(DomainError):
            cv_objective(tiny_sample, Bandwidths(0.5, 0.2), h_max=0.6)


def _shift_first(sample: FunctionalSample, by: float) -> FunctionalSample:
    values = [v + by if i == 0 else v.copy() for i, v in enumerate(sample.values)]
    return FunctionalSample(list(sample.ids), [t.copy() for t in sample.times], values)


class TestGridRuleOracle:
    """select_bandwidths against direct sums on the same 201-point split trapezoid.

    The grid has two h_t per h_y, and the ragged subjects are scored at
    several times each.  The quadrature is the same on both sides, so the
    values agree to rounding, and a slip in a split-cell weight of the
    quadratic form shows.  The long shared grid has a small h_t, so the
    window sums along time read prefix moments over 17 time cells.
    """

    GRID = BandwidthGrid(
        [Bandwidths(h_y, h_t) for h_y in (1.4, 0.8) for h_t in (0.3, 0.2)]
    )
    LONG_GRID = BandwidthGrid([Bandwidths(0.8, 0.06)])

    @staticmethod
    def shared():
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 11)
        return FunctionalSample.from_matrix(grid, rng.normal(size=(4, 1)) + np.sin(3 * grid) * rng.normal(size=(4, 1)))

    @staticmethod
    def ragged():
        sample = ragged_sample(5, seed=3, m_lo=8, m_hi=12)
        interior = [int(np.sum((t > 0.3) & (t < 0.7))) for t in sample.times]
        # subjects of unequal length, each scored at two or more times
        assert max(t.size for t in sample.times) >= 8 and min(interior) >= 2
        return sample

    @staticmethod
    def long_shared():
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 61)
        return FunctionalSample.from_matrix(grid, rng.normal(size=(3, 1)) + np.sin(5 * grid) * rng.normal(size=(3, 1)))

    @pytest.mark.parametrize("kernel", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
    @pytest.mark.parametrize("case", ["shared", "ragged", "ragged_shift_500", "long_shared"])
    def test_matches_direct_sums(self, case, kernel):
        grid = self.LONG_GRID if case == "long_shared" else self.GRID
        sample = {"shared": self.shared, "long_shared": self.long_shared}.get(case, self.ragged)()
        if case == "ragged_shift_500":
            sample = _shift_first(sample, 500.0)
        report = select_bandwidths(sample, grid, kernel)
        times = [list(t) for t in sample.times]
        values = [list(v) for v in sample.values]
        for entry in report.entries:
            ref = grid_cv_objective(
                times, values, entry.bw.h_y, entry.bw.h_t, grid.h_max, kernel.name
            )
            assert entry.value == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestSelectBandwidths:
    def test_single_pair(self, tiny_sample):
        grid = BandwidthGrid([Bandwidths(0.8, 0.3)])
        report = select_bandwidths(tiny_sample, grid)
        assert report.chosen == Bandwidths(0.8, 0.3)
        assert len(report.entries) == 1

    def test_chosen_achieves_reported_minimum(self, sim50):
        grid = BandwidthGrid.geometric(steps=3)
        report = select_bandwidths(sim50.sample, grid)
        best = min(e.value for e in report.entries)
        chosen_value = next(e.value for e in report.entries if e.bw == report.chosen)
        assert chosen_value == best

    def test_batched_matches_single_pair_path(self, sim50):
        ragged = ragged_sample(12, seed=8)
        assert np.unique(np.concatenate(ragged.times)).size == sum(t.size for t in ragged.times)
        grid = BandwidthGrid.geometric(steps=2)
        for sample in (sim50.sample, ragged):
            for kernel in (EPANECHNIKOV, BIWEIGHT):
                report = select_bandwidths(sample, grid, kernel)
                for entry in report.entries:
                    solo = cv_objective(sample, entry.bw, h_max=grid.h_max, kernel=kernel)
                    assert entry.value == pytest.approx(solo, rel=1e-9)

    def test_deterministic(self, sim50):
        grid = BandwidthGrid.geometric(steps=2)
        a = select_bandwidths(sim50.sample, grid)
        b = select_bandwidths(sim50.sample, grid)
        assert a.chosen == b.chosen
        assert [e.value for e in a.entries] == [e.value for e in b.entries]

    def test_tie_break_prefers_small_h_t_then_h_y(self):
        # two identical constant subjects: the objective is identical for all
        # h_y large enough to saturate both indicator regions symmetrically
        grid_t = np.linspace(0, 1, 21)
        s = FunctionalSample.from_matrix(
            grid_t, np.vstack([np.zeros(21), np.ones(21)])
        )
        pairs = [Bandwidths(3.0, 0.25), Bandwidths(2.0, 0.25), Bandwidths(2.0, 0.2)]
        report = select_bandwidths(s, BandwidthGrid(pairs))
        values = [e.value for e in report.entries]
        if values[0] == values[1] == values[2]:
            assert report.chosen == Bandwidths(2.0, 0.2)


def test_memory_grows_linearly_in_subjects():
    # a column block's buffers are O(N) and the block width is sized from N;
    # nothing may grow as n^2
    peaks = []
    for n in (60, 240):
        sample = ragged_sample(n, seed=n)
        grid = BandwidthGrid.scaled_default(sample)
        tracemalloc.start()
        try:
            select_bandwidths(sample, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 5.0


def test_peak_memory_is_two_kernel_cdf_buffers(sim200):
    # a column block's buffers stay within one (N, y-grid) H; H and its
    # argument held at full width beside them would exceed the bound
    sample = sim200.sample
    one = sample.n * max(t.size for t in sample.times) * 201 * 8
    tracemalloc.start()
    try:
        select_bandwidths(sample, BandwidthGrid.geometric())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * one


def test_peak_memory_on_a_ragged_grid():
    # the same bound as on the shared grid: no row is padded, and the time
    # weights, own sums and leave-out numerators are sized per column block
    sample = ragged_sample(60, seed=60)
    one = sample.n * max(t.size for t in sample.times) * 201 * 8
    tracemalloc.start()
    try:
        select_bandwidths(sample, BandwidthGrid.scaled_default(sample))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * one
