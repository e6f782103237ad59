"""Property tests: empirical ranks depend only on the order of the values at each time."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdyn.ranks import empirical_ranks
from rankdyn.sample import FunctionalSample


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
