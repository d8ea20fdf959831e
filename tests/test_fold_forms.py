"""The two forms of the carried supports' values, Python floats for small
batches and numpy arrays for large ones, against each other: the same bits
for phi, both mixtures and the cell-game counts, non-finite values
included."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdmg import demos, shapley
from pdmg.matrix_game import COUNTS, reset_counts
from pdmg.shapley import SolverConfig, _CarriedSaddles, backward_solve_batch
from support import BUDGET, finite_members, pick_steps

NUMPY, FLOATS = 0, 1 << 30  # values of _FLOAT_CELLS that force each form


def solve_in_form(cutover, models, n):
    reset_counts()
    with mock.patch.object(shapley, "_FLOAT_CELLS", cutover):
        solved = backward_solve_batch(models, SolverConfig(n_steps=n))
    return solved, dict(COUNTS)


@pytest.mark.property
@BUDGET
@given(
    widths=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    n_segments=st.integers(1, 3),
    members=st.integers(1, 8),  # R*S from 1 to 24 cells, across the default cutover
    n=st.integers(1, 120),
    seed=st.integers(0, 2**32 - 9),
)
def test_forms_agree_bit_for_bit(widths, n_segments, members, n, seed):
    models = finite_members(range(seed, seed + members), widths, n_segments)
    n = pick_steps(models, n)
    (arrays, array_counts), (floats, float_counts) = (solve_in_form(c, models, n) for c in (NUMPY, FLOATS))
    assert float_counts == array_counts
    for (field, strategies), (ref, ref_strategies) in zip(floats, arrays):
        assert field.phi.tobytes() == ref.phi.tobytes()
        assert strategies.mu.tobytes() == ref_strategies.mu.tobytes()
        assert strategies.nu.tobytes() == ref_strategies.nu.tobytes()


inf, nan = float("inf"), float("nan")
# one knot of a two-state model per line: state 0's entries on a 2x2
# support and state 1's on the 1x1 support (0, 0), each [[a, b], [c, d]]
# as (a, b, c, d), and whether the Python form values the knot
KNOTS = [
    # a + d = b + c on the 2x2 support: 2/0 and 0/0, which raise in Python
    ((1, 2, 3, 4), (1, 0, 0, 0), False),
    ((1, 1, 1, 1), (-0.0, 7, 7, 7), False),
    # inf - inf, inf/inf and nan operands, every denominator nonzero
    ((inf, 1, 2, 3), (inf, 0, 0, 0), True),
    ((1, inf, 2, 3), (-inf, 1, 1, 1), True),
    ((1, 2, -inf, 3), (nan, 0, 0, 0), True),
    ((nan, 1, 2, 3), (2.5, 0, 0, 0), True),
    # products that overflow to +inf and -inf, subnormal ones, signed zeros
    ((1e300, -1e300, 2e300, 5e299), (-0.0, 1, 1, 1), True),
    ((0, 1e300, 1e300, 3e300), (5e-324, 0, 0, 0), True),
    ((1e-300, 3e-300, 2e-300, 1e-301), (-0.0, -0.0, -0.0, -0.0), True),
]


def fold(entries, floats):
    """Knot 0 of a batch of controlled_two_state members, (R, S, 4) entries
    or (S, 4) for one member, on the supports of KNOTS, in one form."""
    members = len(entries) if entries.ndim == 3 else 1
    saddles = _CarriedSaddles(demos.build("controlled_two_state"), 1, members)
    mix = np.array([[0.5, 0.5], [1.0, 0.0]])
    for r in range(members):
        saddles._hold(r, mix, mix)
    saddles.floats = floats
    with np.errstate(all="ignore"):
        return saddles.fold(0, entries)


def assert_same_values(got, expected):
    got = np.array(got, dtype=float)
    assert got.shape == expected.shape
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert got[~np.isnan(got)].tobytes() == expected[~np.isnan(expected)].tobytes()


def test_fold_of_singular_and_non_finite_supports():
    for state0, state1, in_python in KNOTS:
        entries = np.array([state0, state1], dtype=float)
        got = fold(entries, True)
        # a list from the Python form; numpy's array where a denominator is 0
        assert isinstance(got, list) == in_python, (state0, state1)
        assert_same_values(got, fold(entries, False))
    # the same knots as the members of one batch, (R, S) values: with a zero
    # denominator among them numpy values the batch, without one Python
    for knots in (KNOTS, [k for k in KNOTS if k[2]]):
        entries = np.array([[state0, state1] for state0, state1, _ in knots], dtype=float)
        expected = fold(entries, False)
        assert expected.shape == (len(knots), 2)
        assert_same_values(fold(entries, True), expected)
