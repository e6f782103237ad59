import numpy as np
import pytest

from rankdyn import _engine
from rankdyn.kernels import BIWEIGHT, EPANECHNIKOV
from reference import naive_qbars


def test_flatten_orders_by_time(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    assert np.all(np.diff(flat.t) >= 0)
    assert flat.n == 3
    assert flat.t.size == 15
    assert np.allclose(flat.w, 1 / 5)


def test_qbar_all_matches_naive(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    [got] = _engine.qbar_all_pairs(flat, EPANECHNIKOV, [(0.8, 0.3)], 0.45, [0.6, 1.2])
    for qi, (y, _) in zip(range(2), [(0.6, None), (1.2, None)]):
        ref = naive_qbars(tiny_sample.times, tiny_sample.values, 0.8, 0.3, [0.6, 1.2][qi], 0.45)
        assert got[0][qi] == pytest.approx(ref[0], abs=1e-13)
        assert got[1] == pytest.approx(ref[1], abs=1e-13)
        assert got[2][qi] == pytest.approx(ref[2], abs=1e-13)
        assert got[3] == pytest.approx(ref[3], abs=1e-13)
        assert got[4][qi] == pytest.approx(ref[4], abs=1e-13)


def test_qbar_all_pairs_matches_singles(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    pairs = [(0.8, 0.3), (0.8, 0.15), (0.4, 0.3), (1.6, 0.2)]
    yq = np.array([0.1, 0.7, 1.5])
    batched = _engine.qbar_all_pairs(flat, EPANECHNIKOV, pairs, 0.5, yq)
    for (hy, ht), got in zip(pairs, batched):
        [solo] = _engine.qbar_all_pairs(flat, EPANECHNIKOV, [(hy, ht)], 0.5, yq)
        for a, b in zip(got, solo):
            assert np.allclose(a, b, atol=1e-13)


def test_chunked_queries_match_unchunked(tiny_sample, monkeypatch):
    flat = _engine.flatten_sample(tiny_sample)
    yq = np.linspace(-1.0, 2.5, 57)
    [full] = _engine.qbar_all_pairs(flat, BIWEIGHT, [(0.7, 0.25)], 0.5, yq)
    monkeypatch.setattr(_engine, "_CHUNK_ELEMS", 64)  # force many tiny chunks
    [chunked] = _engine.qbar_all_pairs(flat, BIWEIGHT, [(0.7, 0.25)], 0.5, yq)
    for a, b in zip(full, chunked):
        # chunking changes the BLAS call shapes, so only near-machine equality
        assert np.allclose(np.asarray(a), np.asarray(b), rtol=1e-13, atol=1e-15)


def test_window_excludes_far_observations(tiny_sample):
    flat = _engine.flatten_sample(tiny_sample)
    win = _engine.time_window(flat, 0.5, 0.15)
    assert np.all(np.abs(flat.t[win] - 0.5) <= 0.15)
    q1, q2 = _engine.qbar_cdf(flat, EPANECHNIKOV, 0.5, 0.15, 0.5, [0.5])
    ref = naive_qbars(tiny_sample.times, tiny_sample.values, 0.5, 0.15, 0.5, 0.5)
    assert q1[0] == pytest.approx(ref[0], abs=1e-14)
    assert q2 == pytest.approx(ref[1], abs=1e-14)
