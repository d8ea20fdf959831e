"""The float pass and the exact re-solve of ill-conditioned games.

The float simplex cannot certify every game whose rows or columns nearly
repeat, or whose entries span many orders of magnitude; ``solve`` then
re-solves the exactly shifted game in Fractions on the same Bland pivot
loop.  These tests pin a game whose float basis used to repeat, send a game
to the exact re-solve by each way a float pass can fail, check over four
families of such games that every game is certified and that the exact
solve returns the Fractions of the list-based reference in ``exact_lp.py``,
and check that games with entries near the float limits are certified or
refused without a warning.
"""

import warnings
from fractions import Fraction

import exact_lp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pdmg.matrix_game as mg
from pdmg.matrix_game import COUNTS, GAME_TOL, MatrixGame, MatrixGameError, reset_counts, solve

pytestmark = pytest.mark.property

# the float basis of this game repeated while the simplex of earlier
# versions refreshed its tableau after every pivot
CYCLING = [
    [-0.15811774746926824, 1.0, 5.513937869237579e-05, -1.7900255650991989e-06, -2.2576321290653247e-05],
    [-3.5460662656151566e-06, 2.0298816504095187e-08, -2.0485849503775953e-05, 4.122445464318418e-07,
     2.4897585272723786e-07],
    [-6.903668965370068e-08, 0.0053839032597420644, 8.160795273564308e-05, -1.4828384215437595e-06,
     0.7275722980926455],
]


def exact_shifted(payoffs):
    """The LP data ``solve`` re-solves exactly, and the shift of the game."""
    payoffs = np.asarray(payoffs)
    shift = 1 - Fraction(payoffs.min())
    m, n = payoffs.shape
    return (mg._FRACTIONS(payoffs) + shift, np.ones(m), np.ones(n)), shift


def exact_value(payoffs):
    args, shift = exact_shifted(payoffs)
    return 1 / mg._exact_simplex_max(*args)[2] - shift


def test_cycling_game_is_certified_in_one_float_pass(monkeypatch):
    pivots, loop = [], mg._pivot_loop

    def spy(*args):
        pivots.append(loop(*args))
        return pivots[-1]

    monkeypatch.setattr(mg, "_pivot_loop", spy)
    reset_counts()
    sol = solve(MatrixGame(np.array(CYCLING)))
    assert sol.gap <= GAME_TOL
    assert abs(Fraction(sol.value) - exact_value(CYCLING)) <= sol.gap
    assert COUNTS["simplex"] == 1 and COUNTS["exact"] == 0
    assert sum(pivots) < 100


def test_float_pass_runs_under_a_cap_of_its_size(monkeypatch):
    caps, loop = [], mg._pivot_loop

    def spy(tab, basis, m, n_total, cap, eps):
        caps.append((cap, eps))
        return loop(tab, basis, m, n_total, cap, eps)

    monkeypatch.setattr(mg, "_pivot_loop", spy)
    solve(MatrixGame(np.array(CYCLING)))
    assert caps == [(mg._FLOAT_PIVOTS * (3 + 5), mg._PIVOT_EPS)]


def _singular(*args):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("failure", ["singular final basis", "pivot cap reached"])
def test_failed_float_pass_is_re_solved_exactly(monkeypatch, failure):
    if failure == "singular final basis":
        monkeypatch.setattr(mg, "_polished_vertex", _singular)
    else:
        monkeypatch.setattr(mg, "_FLOAT_PIVOTS", 0)  # a cap of no pivots
    reset_counts()
    sol = solve(MatrixGame(np.array(CYCLING)))
    assert sol.value == float(exact_value(CYCLING))
    assert sol.gap <= GAME_TOL
    assert COUNTS["simplex"] == 1 and COUNTS["exact"] == 1


@st.composite
def ill_conditioned_games(draw):
    """A game of 2-8 rows and columns from one of four families: near-duplicate
    rows, near-duplicate columns (split by 1e-12 to 1e-6), entries spanning
    1e-8 to 1, and near-duplicates rounded to 6-12 decimals."""
    family = draw(st.sampled_from(["rows", "columns", "magnitudes", "rounded"]))
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "magnitudes":
        return 10.0 ** rng.uniform(-8.0, 0.0, (m, n)) * rng.choice([-1.0, 1.0], (m, n))
    P = rng.uniform(-1.0, 1.0, (m, n))
    columns = family == "columns" or (family == "rounded" and draw(st.booleans()))
    if columns:
        P = P.T.copy()
    for i in rng.choice(len(P), draw(st.integers(1, len(P) - 1)), replace=False):
        split = 10.0 ** draw(st.floats(-12.0, -6.0))
        P[i] = P[rng.integers(len(P))] + split * rng.uniform(-1.0, 1.0, P.shape[1])
    if family == "rounded":
        P = np.round(P, draw(st.integers(6, 12)))
    return P.T.copy() if columns else P


# the active profile's examples: 100 in tier-1, 2000 under
# `pytest --hypothesis-profile=ci`
@settings(deadline=None)
@given(ill_conditioned_games())
def test_ill_conditioned_games_are_certified_and_solved_exactly(payoffs):
    sol = solve(MatrixGame(payoffs))
    assert sol.gap <= GAME_TOL
    args, _ = exact_shifted(payoffs)
    assert mg._exact_simplex_max(*args) == exact_lp.exact_simplex_max(*args)


# 0 or +-10**U(-300, 300): entries that overflow the float shift, or span
# six hundred orders of magnitude
extreme_entries = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)),
)


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=extreme_entries))
@example(np.array([[1e308, -1e308], [-1e308, 1e308]]))  # the float shift overflows
def test_extreme_games_are_certified_or_refused_without_warnings(payoffs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = solve(MatrixGame(payoffs))
        except MatrixGameError:
            return
    assert sol.gap <= GAME_TOL
