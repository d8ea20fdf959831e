import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdmg.matrix_game import (
    MatrixGame,
    MatrixGameError,
    solve,
)
from pdmg.model import model_from_dict
from pdmg.shapley import SolverConfig, StrategyField, TimeGrid, best_response_solve


def saddle_2x2(a, b, c, d):
    """Closed-form value/mixes of a fully mixed 2x2 game [[a,b],[c,d]]."""
    den = a + d - b - c
    value = (a * d - b * c) / den
    row = np.array([(d - c) / den, (a - b) / den])
    col = np.array([(d - b) / den, (a - c) / den])
    return value, row, col


class TestSolveExamples:
    def test_matching_pennies(self):
        sol = solve(MatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]])))
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.row_mix, [0.5, 0.5], atol=1e-12)
        assert np.allclose(sol.col_mix, [0.5, 0.5], atol=1e-12)

    def test_pure_saddle(self):
        # row min 2 equals column max 2 at (row 0, col 0)
        sol = solve(MatrixGame(np.array([[2.0, 5.0], [1.0, 3.0]])))
        assert sol.value == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(sol.row_mix, [1.0, 0.0], atol=1e-9)
        assert np.allclose(sol.col_mix, [1.0, 0.0], atol=1e-9)

    def test_mixed_2x2_closed_form(self):
        value, row, col = saddle_2x2(3.0, 1.0, 0.0, 2.0)
        assert value == 1.5  # oracle: (ad - bc) / (a + d - b - c)
        sol = solve(MatrixGame(np.array([[3.0, 1.0], [0.0, 2.0]])))
        assert sol.value == pytest.approx(value, abs=1e-9)
        assert np.allclose(sol.row_mix, row, atol=1e-9)
        assert np.allclose(sol.col_mix, col, atol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixGameError, match="non-finite"):
            MatrixGame(np.array([[1.0, np.inf]]))

    # a NaN tolerance certified any duality gap
    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_nan_or_negative_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            solve(MatrixGame(np.array([[1.0, 2.0], [3.0, 4.0]])), tol)

    def test_single_row_and_column(self):
        sol = solve(MatrixGame(np.array([[4.0, -2.0, 7.0]])))
        assert sol.value == -2.0
        assert np.allclose(sol.col_mix, [0.0, 1.0, 0.0])
        sol = solve(MatrixGame(np.array([[4.0], [-2.0], [7.0]])))
        assert sol.value == 7.0
        assert np.allclose(sol.row_mix, [0.0, 0.0, 1.0])


def best_response_phi(payoffs, side: str, opponent_mix) -> float:
    """phi(0) of a one-state, jump-free game with running costs ``payoffs``
    (lambda = T = 1) when one side best-responds to a fixed mixture of the other.

    The first-jump update scales each step by exp(c0*D)*(1 + (v - c0)*D),
    with c0 the value of the cost game and v the best-response payoff; where
    the two agree phi(0) is exp(v).
    """
    payoffs = np.asarray(payoffs, dtype=float)
    m, k = payoffs.shape
    model = model_from_dict({
        "lambda": 1.0,
        "horizon": 1.0,
        "states": {"finite": ["s"]},
        "actions": {"p1": [list(range(m))], "p2": [list(range(k))]},
        "costs": [{"state": 0, "a": a, "b": b, "value": float(payoffs[a, b])}
                  for a in range(m) for b in range(k)],
    })
    n = 64
    mu, nu = np.zeros((n, 1, m)), np.zeros((n, 1, k))
    mu[..., 0] = nu[..., 0] = 1.0
    if side == "maximize":
        nu[:, 0] = opponent_mix
    else:
        mu[:, 0] = opponent_mix
    fixed = StrategyField(TimeGrid(n, 1.0), mu, nu)
    return float(best_response_solve(model, fixed, side, SolverConfig(n_steps=n)).phi[0, 0])


class TestBestResponse:
    def test_indifference_breaks_low(self):
        phi = best_response_phi([[1.0, -1.0], [-1.0, 1.0]], "maximize", [0.5, 0.5])
        assert phi == pytest.approx(1.0, abs=1e-14)

    def test_equalized_payoffs_tie(self):
        phi = best_response_phi([[3.0, 1.0], [0.0, 2.0]], "maximize", [0.25, 0.75])
        assert phi == pytest.approx(np.exp(1.5), rel=1e-12)

    def test_pure_column(self):
        # rows pay 2 and 1 against the first column: the maximiser takes 2
        phi = best_response_phi([[2.0, 5.0], [1.0, 3.0]], "maximize", [1.0, 0.0])
        assert phi == pytest.approx(np.exp(2.0), rel=1e-12)

    def test_column_side_minimizes(self):
        # columns cost 2 and 5 against the first row: the minimiser takes 2
        phi = best_response_phi([[2.0, 5.0], [1.0, 3.0]], "minimize", [1.0, 0.0])
        assert phi == pytest.approx(np.exp(2.0), rel=1e-12)


def random_matrices(max_dim=8):
    shapes = st.tuples(
        st.integers(min_value=1, max_value=max_dim),
        st.integers(min_value=1, max_value=max_dim),
    )
    return shapes.flatmap(
        lambda mn: hnp.arrays(
            np.float64,
            mn,
            elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        )
    )


class TestProperties:
    @given(random_matrices())
    @settings(max_examples=120, deadline=None)
    def test_duality_and_certificates(self, payoffs):
        sol = solve(MatrixGame(payoffs), tol=1e-9)
        assert sol.gap <= 1e-9
        assert abs(sol.row_mix.sum() - 1.0) <= 1e-12
        assert abs(sol.col_mix.sum() - 1.0) <= 1e-12
        assert np.all(sol.row_mix >= -1e-15) and np.all(sol.col_mix >= -1e-15)
        # saddle certificates against every pure deviation
        assert np.min(sol.row_mix @ payoffs) >= sol.value - sol.gap - 1e-12
        assert np.max(payoffs @ sol.col_mix) <= sol.value + sol.gap + 1e-12

    @given(random_matrices(max_dim=5), st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_shift_equivariance(self, payoffs, alpha):
        base = solve(MatrixGame(payoffs))
        shifted = solve(MatrixGame(payoffs + alpha))
        assert shifted.value == pytest.approx(base.value + alpha, abs=1e-7)

    @given(random_matrices(max_dim=5), st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_equivariance(self, payoffs, beta):
        base = solve(MatrixGame(payoffs))
        scaled = solve(MatrixGame(beta * payoffs))
        assert scaled.value == pytest.approx(beta * base.value, abs=1e-7 * max(1.0, beta))

    @given(random_matrices(max_dim=6))
    @settings(max_examples=60, deadline=None)
    def test_best_response_bounded_by_value(self, payoffs):
        sol = solve(MatrixGame(payoffs))
        row_v = np.max(payoffs @ sol.col_mix)
        col_v = np.min(sol.row_mix @ payoffs)
        assert row_v <= sol.value + sol.gap + 1e-12
        assert col_v >= sol.value - sol.gap - 1e-12
