"""Property tests: rank invariances, the paper's summary identities, and CSV in and out."""

import codecs
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankdyn.cli import _fmt_column
from rankdyn.dynamics import DecompositionResult, contributions
from rankdyn.errors import DataError
from rankdyn.ranks import Bandwidths, empirical_ranks, smooth_ranks
from rankdyn.sample import FunctionalSample, load_long_csv, presmooth
from rankdyn.summaries import population_summaries
from reference import naive_load_long_csv

FINITE = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def shared_grid_samples(draw):
    """(grid, integer-valued (n, m) matrix): integers keep ties exact under the transforms."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(2, 9))
    values = draw(st.lists(st.lists(st.integers(-40, 40), min_size=m, max_size=m),
                           min_size=n, max_size=n))
    return np.linspace(0.0, 1.0, m), np.array(values, dtype=float)


@settings(max_examples=60, deadline=None)
@given(shared_grid_samples(), st.data())
def test_empirical_ranks_follow_relabelled_and_permuted_subjects(sample, data):
    grid, values = sample
    n = values.shape[0]
    order = data.draw(st.permutations(range(n)))
    labels = data.draw(st.lists(st.text(min_size=1, max_size=6), min_size=n, max_size=n,
                                unique=True))
    base = empirical_ranks(FunctionalSample.from_matrix(grid, values))
    moved = empirical_ranks(FunctionalSample.from_matrix(grid, values[order], ids=labels))
    assert moved.ids == labels
    assert np.array_equal(moved.ranks, base.ranks[order])


@settings(max_examples=60, deadline=None)
@given(shared_grid_samples(), st.sampled_from(["affine", "cube", "exp", "arctan"]))
def test_empirical_ranks_invariant_under_increasing_transform(sample, name):
    grid, values = sample
    transform = {
        "affine": lambda v: 2.5 * v - 7.0,
        "cube": lambda v: v**3,
        "exp": lambda v: np.exp(0.25 * v),
        "arctan": np.arctan,
    }[name]
    base = empirical_ranks(FunctionalSample.from_matrix(grid, values))
    warped = empirical_ranks(FunctionalSample.from_matrix(grid, transform(values)))
    assert np.array_equal(warped.ranks, base.ranks)


@st.composite
def decompositions(draw):
    """A DecompositionResult with arbitrary components on an increasing grid."""
    n = draw(st.integers(1, 6))
    g = draw(st.integers(2, 8))
    grid = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=g, max_size=g, unique=True)))
    c1, c2 = (np.array(draw(st.lists(FINITE, min_size=n * g, max_size=n * g))).reshape(n, g)
              for _ in range(2))
    return DecompositionResult([f"s{i}" for i in range(n)], grid, c1, c2, c1 + c2)


@settings(max_examples=80, deadline=None)
@given(decompositions())
def test_contributions_sum_to_one(decomp):
    grid = decomp.trimmed_grid
    total = sum(np.trapezoid(np.mean(np.abs(c), axis=0), grid) for c in (decomp.c1, decomp.c2))
    assume(total > 1e-12)
    lam = contributions(decomp)
    assert 0.0 <= lam.lambda1 <= 1.0 and 0.0 <= lam.lambda2 <= 1.0
    assert lam.lambda1 + lam.lambda2 == pytest.approx(1.0, rel=0, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(decompositions())
def test_stability_is_exp_of_minus_mixing(decomp):
    pop = population_summaries(decomp)
    assert pop.mixing >= 0.0
    assert pop.stability == math.exp(-pop.mixing)
    assert 0.0 <= pop.stability <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 8).flatmap(lambda n: st.lists(
        st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=11, max_size=11),
        min_size=n, max_size=n)),
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(0.25, 4.0, allow_nan=False),
)
def test_smooth_ranks_equivariant_under_increasing_affine_maps(values, a, b):
    # H((y_q - y_k)/h_y) is unchanged when y -> a + b y and h_y -> b h_y
    grid = np.linspace(0.0, 1.0, 11)
    values = np.array(values)
    base = smooth_ranks(FunctionalSample.from_matrix(grid, values), Bandwidths(0.8, 0.25))
    moved = smooth_ranks(FunctionalSample.from_matrix(grid, a + b * values),
                         Bandwidths(0.8 * b, 0.25))
    assert np.max(np.abs(moved.ranks - base.ranks)) <= 1e-12


# values whose strings a value-keyed formatter would merge or get wrong
SIGNED = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0 / 3.0])


FLOATS = hnp.arrays(np.float64, st.integers(0, 40),
                    elements=st.one_of(SIGNED, st.floats(allow_nan=True, allow_infinity=True)))


@st.composite
def float_columns(draw):
    """Columns of mostly distinct floats, or of a few floats repeated (as rank columns are)."""
    pool = draw(FLOATS)
    if pool.size == 0 or draw(st.booleans()):
        return pool
    picks = draw(hnp.arrays(np.intp, st.integers(0, 120),
                            elements=st.integers(0, min(pool.size, 4) - 1)))
    return pool[picks]


@settings(max_examples=300, deadline=None)
@given(float_columns(), st.data())
def test_fmt_column_is_the_repr_of_each_element(x, data):
    column = _fmt_column(x)
    if x.size:  # any rows, in any order and repeated, as a batch may ask for
        rows = data.draw(hnp.arrays(np.intp, st.integers(0, 20), elements=st.integers(0, x.size - 1)))
        assert column(rows) == [repr(v) for v in x[rows].tolist()]
    fields = column(np.arange(x.size))
    assert fields == [repr(v) for v in x.tolist()]
    patterns = len(set(x.view(np.uint64).tolist()))
    if 2 * patterns <= x.size:
        # repeated values: one string per bit pattern, shared by the elements that hold it
        assert len(set(map(id, fields))) == patterns


def test_an_empirical_rank_column_shares_one_string_per_value():
    # ranks take at most n + 1 values over n subjects x 101 grid points, so
    # their column formats each value once (the ingest path's writer speed
    # rests on this), not once per field
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 32)
    values = rng.normal(size=(300, 1)) + np.sin(2 * np.pi * grid) * rng.normal(1.0, 0.3, (300, 1))
    ranks = empirical_ranks(presmooth(FunctionalSample.from_matrix(grid, values), h_d=0.1)).ranks
    fields = _fmt_column(np.clip(ranks, 0.0, 1.0) + 0.0)(np.arange(ranks.size))
    assert len(set(map(id, fields))) == len(set(fields)) <= 301


# ids full of CSV specials; each stays distinct and non-empty once stripped
CSV_IDS = st.lists(st.text(alphabet='ab,"\n\r x', min_size=1, max_size=5).filter(str.strip),
                   min_size=1, max_size=4, unique_by=str.strip)
BAD_RECORDS = [
    ["a", "0.5"], ["a", "0.5", "1", "2"], [" ", "0.5", "1"], ["a", "zero", "1"],
    ["a", "0.5", "x"], ["a", "0.5", "nan"], ["a", "inf", "1"], ["a", "1.5", "1"],
    ["a", "-0.25", "x"], ["a", "1e400", "1"],
]


@st.composite
def long_csv_texts(draw):
    """(text, has_bad): a shuffled long CSV with blank records and at most one bad record."""
    records = []
    for sid in draw(CSV_IDS):
        m = draw(st.integers(2, 5))
        for j in range(1, m + 1):
            pad = draw(st.sampled_from(["", " "]))
            value = draw(st.one_of(SIGNED, st.floats(allow_nan=False, allow_infinity=False)))
            records.append([sid, pad + repr(j / m) + pad, repr(value)])
    records = draw(st.permutations(records))
    for _ in range(draw(st.integers(0, 3))):
        records.insert(draw(st.integers(0, len(records))), [])
    has_bad = draw(st.booleans())
    if has_bad:   # a malformed record, or a repeat of a good one: a duplicate (id, time)
        bad = draw(st.sampled_from(BAD_RECORDS) | st.sampled_from(records).filter(bool))
        records.insert(draw(st.integers(0, len(records))), bad)
    out = io.StringIO()
    writer = csv.writer(out)   # quotes ids that hold \r or \n
    writer.writerow(["id", "time", "value"])
    writer.writerows(records)
    return out.getvalue(), has_bad


def _load_outcome(load, source):
    """The sample as (ids, time bytes, value bytes), or the error as (type, message)."""
    try:
        ids, times, values = load(source)
    except DataError as exc:
        return type(exc), str(exc)
    return (ids, [np.array(t, dtype=float).tobytes() for t in times],
            [np.array(v, dtype=float).tobytes() for v in values])


def _loaded(source):
    sample = load_long_csv(source)
    return sample.ids, sample.times, sample.values


@settings(max_examples=150, deadline=None)
@given(long_csv_texts())
def test_long_loader_matches_the_record_by_record_oracle(case):
    text, has_bad = case
    expected = _load_outcome(naive_load_long_csv, text)
    assert isinstance(expected[0], type) == has_bad
    assert _load_outcome(_loaded, io.StringIO(text)) == expected
    raw = text.encode("utf-8")
    assert _load_outcome(_loaded, io.BytesIO(codecs.BOM_UTF8 + raw)) == expected
