"""The exact re-solve of ill-conditioned games.

The float simplex cannot certify every game whose rows or columns nearly
repeat, or whose entries span many orders of magnitude; ``solve`` then
re-solves the game in Fractions on the same Bland pivot loop.  These tests
pin a game whose float solve cycles, and check over four families of such
games that every game is certified and that the exact solve returns the
Fractions of the list-based reference in ``exact_lp.py``.
"""

import exact_lp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmg.matrix_game as mg
from pdmg.matrix_game import COUNTS, GAME_TOL, MatrixGame, reset_counts, solve

# the float basis of this game repeats while the simplex reinverts after
# every pivot; the float solve used to spin to its pivot cap first
CYCLING = [
    [-0.15811774746926824, 1.0, 5.513937869237579e-05, -1.7900255650991989e-06, -2.2576321290653247e-05],
    [-3.5460662656151566e-06, 2.0298816504095187e-08, -2.0485849503775953e-05, 4.122445464318418e-07,
     2.4897585272723786e-07],
    [-6.903668965370068e-08, 0.0053839032597420644, 8.160795273564308e-05, -1.4828384215437595e-06,
     0.7275722980926455],
]


def test_cycling_float_solve_goes_exact_at_once(monkeypatch):
    pivots, loop = [], mg._pivot_loop

    def spy(*args):
        pivots.append(loop(*args))
        return pivots[-1]

    monkeypatch.setattr(mg, "_pivot_loop", spy)
    reset_counts()
    sol = solve(MatrixGame(np.array(CYCLING)))
    assert sol.value == -9.841013678848576e-07
    assert sol.gap <= GAME_TOL
    assert COUNTS["simplex"] == 1 and COUNTS["exact"] == 1
    assert sum(pivots) < 100


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
    shifted = payoffs + (1.0 - float(payoffs.min()))
    m, n = payoffs.shape
    args = shifted, np.ones(m), np.ones(n)
    assert mg._exact_simplex_max(*args) == exact_lp.exact_simplex_max(*args)
