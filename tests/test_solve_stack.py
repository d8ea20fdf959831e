"""The batched cell-game solver: pure saddles, certified equalizers, simplex fallback."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmg.shapley
from pdmg import demos
from pdmg.matrix_game import (
    COUNTS,
    MatrixGame,
    MatrixGameError,
    _certificate,
    certified,
    reset_counts,
    solve,
    solve_stack,
)
from pdmg.model import model_from_dict
from pdmg.shapley import SolverConfig, backward_solve

TOL = 1e-9
WIDTH = 4


def one(payoffs):
    """solve_stack on a single unpadded game."""
    p = np.asarray(payoffs, dtype=float)
    v, x, y = solve_stack(p[None], np.ones((1,) + p.shape, dtype=bool))
    return v[0], x[0], y[0]


@st.composite
def padded_stacks(draw):
    """A stack of m x n games (1 <= m, n <= 4) padded to 4 x 4 with junk entries."""
    entry = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0))
    k = draw(st.integers(1, 6))
    payoffs = np.array(draw(st.lists(entry, min_size=k * WIDTH**2, max_size=k * WIDTH**2)))
    payoffs = payoffs.reshape(k, WIDTH, WIDTH)
    mask = np.zeros_like(payoffs, dtype=bool)
    sizes = [(draw(st.integers(1, WIDTH)), draw(st.integers(1, WIDTH))) for _ in range(k)]
    for c, (m, n) in enumerate(sizes):
        mask[c, :m, :n] = True
    return payoffs, mask, sizes


class TestAgainstSimplex:
    @given(padded_stacks())
    @settings(max_examples=150, deadline=None)
    def test_values_mixtures_and_certificates(self, stack):
        payoffs, mask, sizes = stack
        value, rows, cols = solve_stack(payoffs, mask)
        assert value.shape == (len(sizes),)
        for c, (m, n) in enumerate(sizes):
            game = payoffs[c, :m, :n]
            assert value[c] == pytest.approx(solve(MatrixGame(game), TOL).value, abs=TOL)
            for mix, count in ((rows[c], m), (cols[c], n)):
                assert np.all(mix[:count] >= 0.0)
                assert abs(mix[:count].sum() - 1.0) <= 1e-12
                assert np.all(mix[count:] == 0.0)
            assert _certificate(game, value[c], rows[c, :m], cols[c, :n]) <= TOL

    def test_leading_axes_are_kept(self):
        payoffs = np.random.default_rng(3).normal(size=(3, 5, 2, 2))
        value, rows, cols = solve_stack(payoffs, np.ones((2, 2), dtype=bool))
        assert value.shape == (3, 5) and rows.shape == cols.shape == (3, 5, 2)
        flat = solve_stack(payoffs.reshape(15, 2, 2), np.ones((2, 2), dtype=bool))
        assert np.array_equal(value.ravel(), flat[0])

    def test_non_finite_entry_rejected(self):
        with pytest.raises(MatrixGameError, match="non-finite"):
            one([[1.0, np.nan], [0.0, 1.0]])

    def test_stack_of_1x1_games_is_pure_saddles(self):
        payoffs = np.random.default_rng(4).normal(size=(3, 2, 1, 1))
        reset_counts()
        value, rows, cols = solve_stack(payoffs, np.ones((2, 1, 1), dtype=bool))
        assert np.array_equal(value, payoffs[..., 0, 0]) and COUNTS["pure_saddle"] == 6
        assert rows.shape == cols.shape == (3, 2, 1) and (rows == 1.0).all() and (cols == 1.0).all()
        payoffs[1, 0] = np.inf
        with pytest.raises(MatrixGameError, match="non-finite"):
            solve_stack(payoffs, np.ones((2, 1, 1), dtype=bool))

    def test_padding_is_ignored(self):
        payoffs = np.array([[[1.0, -1.0, np.inf], [-1.0, 1.0, 7.0], [5.0, 5.0, 5.0]]])
        mask = np.zeros((1, 3, 3), dtype=bool)
        mask[0, :2, :2] = True
        value, rows, cols = solve_stack(payoffs, mask)
        assert value[0] == 0.0
        assert np.allclose(rows[0], [0.5, 0.5, 0.0]) and np.allclose(cols[0], [0.5, 0.5, 0.0])


class TestCraftedGames:
    def setup_method(self):
        reset_counts()

    def test_all_equal_singular_2x2_is_a_pure_saddle(self):
        value, row, col = one([[2.0, 2.0], [2.0, 2.0]])
        assert value == 2.0
        assert row.tolist() == [1.0, 0.0] and col.tolist() == [1.0, 0.0]
        assert COUNTS["pure_saddle"] == 1 and COUNTS["simplex"] == 0

    def test_tied_pure_saddles_take_the_lowest_indices(self):
        # rows 0 and 1 both guarantee 2; columns 0 and 1 both cap at 2
        value, row, col = one([[2.0, 2.0, 9.0], [2.0, 2.0, 3.0], [0.0, 1.0, 9.0]])
        assert value == 2.0
        assert row.tolist() == [1.0, 0.0, 0.0] and col.tolist() == [1.0, 0.0, 0.0]
        assert COUNTS["pure_saddle"] == 1

    def test_duplicate_rows_fall_back_to_the_simplex(self):
        # no pure saddle; the equalizer systems are singular
        game = [[3.0, 0.0, 1.0], [3.0, 0.0, 1.0], [0.0, 3.0, 1.0]]
        pennies = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        payoffs = np.array([game, pennies])
        mask = np.ones((2, 3, 3), dtype=bool)
        mask[1, 2, :] = mask[1, :, 2] = False
        value, rows, cols = solve_stack(payoffs, mask)
        assert COUNTS == {"pure_saddle": 0, "equalizer": 1, "simplex": 1, "exact": 0}
        ref = solve(MatrixGame(np.array(game)), TOL)
        assert value[0] == pytest.approx(ref.value, abs=TOL)
        assert _certificate(np.array(game), value[0], rows[0], cols[0]) <= TOL
        assert value[1] == 0.0 and np.allclose(rows[1], [0.5, 0.5, 0.0])

    def test_rock_paper_scissors_by_the_equalizer(self):
        value, row, col = one([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        assert value == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(row, 1.0 / 3.0, atol=1e-15) and np.allclose(col, 1.0 / 3.0, atol=1e-15)
        assert COUNTS["equalizer"] == 1 and COUNTS["simplex"] == 0

    def test_negative_equalizer_weights_go_to_the_simplex(self):
        # the full-support equalizer is (0.875, 0.375, -0.25) for the rows;
        # the saddle lives on the leading 2 x 2 block
        value, row, col = one([[1.0, 0.0, 1.0], [0.0, 3.0, 2.0], [-3.0, -2.0, 0.0]])
        assert value == pytest.approx(0.75, abs=TOL)
        assert np.allclose(row, [0.75, 0.25, 0.0], atol=TOL)
        assert np.allclose(col, [0.75, 0.25, 0.0], atol=TOL)
        assert COUNTS == {"pure_saddle": 0, "equalizer": 0, "simplex": 1, "exact": 0}

    def test_exact_fallback_is_counted(self, monkeypatch):
        import pdmg.matrix_game as mg

        def fail(*args):
            raise MatrixGameError("forced")

        monkeypatch.setattr(mg, "_simplex_max", fail)
        sol = solve(MatrixGame(np.array([[3.0, 1.0], [0.0, 2.0]])))
        assert sol.value == pytest.approx(1.5, abs=1e-15)
        assert COUNTS["simplex"] == 1 and COUNTS["exact"] == 1


class TestCertificate:
    def test_infinite_gap_fails(self):
        # an infinite entry makes the tolerance relative to it infinite too
        game = np.array([[1.0, np.inf], [0.5, 2.0]])
        assert not certified(game, 1.0, np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_tolerance_is_relative_to_the_largest_entry(self):
        # matching pennies, off its saddle value by 5e-10: within GAME_TOL of
        # entries of size 1, past it for entries of size 1/4, and within it
        # again for the same game scaled by 2**40
        game, mix = np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([0.5, 0.5])
        assert certified(game, 5e-10, mix, mix)
        assert not certified(game / 4.0, 5e-10, mix, mix)
        assert certified(game * 2.0**40, 5e-10 * 2.0**40, mix, mix)

    def test_fallback_sees_the_game_scaled_by_a_power_of_two(self):
        seen = []

        def spy(game):
            seen.append(game.payoffs)
            return solve(game)

        # no pure saddle and not square: the fallback solves it
        game = np.array([[3.0, -1.0, 2.0], [-2.0, 1.5, 0.0]]) * 1e6
        value, row, col = solve_stack(game[None], np.ones((1, 2, 3), dtype=bool), fallback=spy)
        assert len(seen) == 1 and np.array_equal(seen[0], game / 2.0**21)
        ref = solve(MatrixGame(game / 2.0**21))
        assert value[0] == ref.value * 2.0**21
        assert np.array_equal(row[0], ref.row_mix) and np.array_equal(col[0], ref.col_mix)


class TestSolverUse:
    def test_controlled_backward_solve_needs_no_simplex(self, controlled, monkeypatch):
        calls = []

        def counting(game):
            calls.append(game.payoffs.shape)
            return solve(game)

        monkeypatch.setattr(pdmg.shapley, "solve_game", counting)
        field, _ = backward_solve(controlled, SolverConfig(n_steps=200))
        assert calls == []
        assert np.all(field.phi > 0.0)

    def test_cost_shift_beyond_float_spacing_meets_the_shift_identity(self):
        # with every cost and the terminal cost raised by 20, phi passes ~1e7
        # and an absolute gap of 1e-9 falls below the float spacing of the
        # cell entries; certified relative to each game's scale, the solve
        # succeeds and phi(0) is the base phi(0) times exp(lam*(T+1)*20)
        doc = demos.doc("controlled_two_state")
        base = backward_solve(model_from_dict(doc), SolverConfig(n_steps=200))[0]
        n_states = len(doc["states"]["finite"])
        p1, p2 = doc["actions"]["p1"], doc["actions"]["p2"]
        p1 = p1 * n_states if len(p1) == 1 else p1
        p2 = p2 * n_states if len(p2) == 1 else p2
        old = {(e["state"], e["a"], e["b"]): e["value"] for e in doc.get("costs", [])}
        doc["costs"] = [
            {"state": x, "a": a, "b": b, "value": old.get((x, a, b), 0.0) + 20.0}
            for x in range(n_states)
            for a in p1[x]
            for b in p2[x]
        ]
        g = {e["state"]: e["value"] for e in doc.get("terminal", [])}
        doc["terminal"] = [{"state": x, "value": g.get(x, 0.0) + 20.0} for x in range(n_states)]
        doc.pop("lyapunov", None)
        shifted = backward_solve(model_from_dict(doc), SolverConfig(n_steps=200))[0]
        factor = np.exp(doc["lambda"] * (doc["horizon"] + 1.0) * 20.0)
        for x in range(n_states):
            assert shifted.at(0, x) == pytest.approx(base.at(0, x) * factor, rel=1e-10)
