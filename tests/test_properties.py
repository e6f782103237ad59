"""Property tests: rank invariances and the paper's summary identities."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankdyn.dynamics import DecompositionResult, contributions
from rankdyn.ranks import Bandwidths, empirical_ranks, smooth_ranks
from rankdyn.sample import FunctionalSample
from rankdyn.summaries import population_summaries

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
