"""The backward solve on carried saddle supports against the per-knot
reference sweep, and the vectorised knot-to-slice map against its scalar
rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perknot
from pdmg.matrix_game import COUNTS, GAME_TOL, _certificate, reset_counts
from pdmg.model import model_from_dict
from pdmg.shapley import (
    SolverConfig,
    StrategyField,
    TimeGrid,
    _FlowLags,
    _step_coefficients,
    backward_solve,
    knot_segments,
)
from support import admissible_steps, grid_doc, random_finite_doc


def switching_doc():
    """Two states with 2x2 actions.  State 0 plays matching-pennies costs up
    to t = 0.5 (a mixed saddle) and a game with a pure saddle at (1, 0)
    after; state 1 keeps one mixed game; both jump to the other state."""
    pennies = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
    pure = {(0, 0): 0.1, (0, 1): 0.3, (1, 0): 0.6, (1, 1): 0.8}
    other = {(0, 0): 0.2, (0, 1): 0.9, (1, 0): 0.7, (1, 1): 0.3}

    def costs(game0):
        return [{"state": x, "a": a, "b": b, "value": v} for x, g in enumerate((game0, other)) for (a, b), v in g.items()]

    rates = [{"from": x, "a": a, "b": b, "to": 1 - x, "rate": 0.5 + 0.25 * (a + b)}
             for x in (0, 1) for a in (0, 1) for b in (0, 1)]
    return {
        "lambda": 0.5,
        "horizon": 1.0,
        "states": {"finite": ["s", "t"]},
        "actions": {"p1": [[0, 1]], "p2": [[0, 1]]},
        "rates": rates,
        "costs": costs(pennies),
        "segments": [{"t_start": 0.5, "costs": costs(pure)}],
        "terminal": [],
    }


def solve_both(model, n):
    config = SolverConfig(n_steps=n)
    reset_counts()
    field, strategies = backward_solve(model, config)
    counts = dict(COUNTS)
    reference = perknot.backward_solve(model, config)
    return field, strategies, counts, reference


def check_against_reference(model, field, strategies, counts, reference):
    """Every accepted game certified, phi within the propagated bound of the
    reference, and the route counts."""
    grid = field.grid
    N, S = grid.n_steps, model.n_states
    phi, ref = field.phi, reference[0].phi
    lags, knot_seg = _FlowLags(model, grid), knot_segments(model, grid)
    diags, jumps = _step_coefficients(model, grid)
    # a cell game is 1-Lipschitz in sup norm, and its entries move by at most
    # L * |psi - psi'| with L the largest row sum of the update coefficients
    lips = [float((d + j.sum(axis=-1)).max()) for d, j in zip(diags, jumps)]
    bound = 0.0
    for k in range(N - 1, -1, -1):
        psi = phi[k + 1][lags.step_table[k]]
        E = perknot.cell_entries(diags[knot_seg[k]], jumps[knot_seg[k]], psi, psi)
        mu, nu = strategies.mu[k], strategies.nu[k]
        assert np.all(mu >= 0.0) and np.all(nu >= 0.0)
        assert np.allclose(mu.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.allclose(nu.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(mu[~model.cells[:, :, 0]] == 0.0) and np.all(nu[~model.cells[:, 0, :]] == 0.0)
        assert np.all(_certificate(E, phi[k], mu, nu, model.cells) <= GAME_TOL)
        # both solvers settle each game within game_tol of its value
        bound = lips[knot_seg[k]] * bound + 2.0 * GAME_TOL + 1e-14 * np.abs(ref[k]).max()
        assert np.abs(phi[k] - ref[k]).max() <= bound
    games = counts["pure_saddle"] + counts["equalizer"] + counts["simplex"] + counts.get("locked", 0)
    cells = 0 if model.widths == (1, 1) else N * S
    assert games == cells + model.n_segments * S
    assert counts.get("discarded", 0) <= 2 * N * S


@pytest.mark.property
class TestAgainstPerKnotSweep:
    @settings(max_examples=max(40, settings.default.max_examples // 4), deadline=None)
    @given(
        widths=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
        n_segments=st.integers(1, 3),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_finite_models(self, widths, n_segments, n, seed):
        model = model_from_dict(random_finite_doc(seed, widths, n_segments))
        check_against_reference(model, *solve_both(model, admissible_steps(model, n)))

    @settings(max_examples=max(10, settings.default.max_examples // 20), deadline=None)
    @given(cells=st.integers(2, 8), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_random_grid_flows(self, cells, n, seed):
        model = model_from_dict(grid_doc(cells, seed))
        check_against_reference(model, *solve_both(model, admissible_steps(model, n)))


@pytest.mark.parametrize("name", ["controlled_two_state", "signed_cost", "matching_pennies"])
def test_demo_values_agree_to_rounding(demo, name):
    # far inside the propagated bound: the carried 2x2 equalizer works on
    # shifted entries, so it loses no digits to a + d - b - c = O(Delta)*phi
    model = demo(name)
    field, strategies, counts, (ref, ref_strategies) = solve_both(model, 2000)
    assert np.abs(field.phi - ref.phi).max() <= 1e-13 * ref.phi.max()
    assert np.abs(strategies.mu - ref_strategies.mu).max() <= 1e-10
    assert np.abs(strategies.nu - ref_strategies.nu).max() <= 1e-10
    assert counts["locked"] == 2000 * model.n_states - model.n_states


class TestSupportSwitches:
    def test_mixed_to_pure_forces_a_re_solve(self):
        model = model_from_dict(switching_doc())
        field, strategies, counts, reference = solve_both(model, 200)
        check_against_reference(model, field, strategies, counts, reference)
        assert counts["locked"] < 200 * 2
        # state 0 mixes before t = 0.5 and plays (1, 0) after
        assert np.all(strategies.mu[:100, 0] > 0.0) and np.all(strategies.nu[:100, 0] > 0.0)
        assert strategies.mu[100:, 0].tolist() == [[0.0, 1.0]] * 100
        assert strategies.nu[100:, 0].tolist() == [[1.0, 0.0]] * 100
        assert np.abs(field.phi - reference[0].phi).max() <= 1e-12 * reference[0].phi.max()
        assert np.abs(strategies.mu - reference[1].mu).max() <= 1e-9
        assert np.abs(strategies.nu - reference[1].nu).max() <= 1e-9

    def test_grid_cells_switch_at_different_knots(self):
        model = model_from_dict(grid_doc())
        N = 200
        field, strategies, counts, reference = solve_both(model, N)
        check_against_reference(model, field, strategies, counts, reference)
        pure = (strategies.mu > 0.0).sum(axis=2) == 1
        switched = {int(np.flatnonzero(pure[:, x] != pure[-1, x]).max()) for x in range(model.n_states)
                    if np.any(pure[:, x] != pure[-1, x])}
        assert len(switched) >= 3
        assert 0 < counts["discarded"] <= 2 * N * model.n_states
        assert counts["locked"] < N * model.n_states


class TestKnotSlices:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 500),
        m=st.integers(1, 500),
        horizon=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    )
    def test_map_matches_the_scalar_rule(self, n, m, horizon):
        strategies = StrategyField(TimeGrid(n, horizon), np.zeros((n, 1, 1)), np.zeros((n, 1, 1)))
        grid = TimeGrid(m, horizon)
        expected = [perknot.slice_at_time(strategies, grid.knot(j)) for j in range(m)]
        assert strategies.slices_at(grid).tolist() == expected

    @pytest.mark.parametrize("n, m", [(7, 7), (7, 56), (10, 3), (3, 10), (40, 97)])
    def test_resample_takes_the_mapped_slices(self, n, m):
        mu = np.arange(n, dtype=float)[:, None, None]
        strategies = StrategyField(TimeGrid(n, 1.0), mu, mu)
        fine = strategies.resample(TimeGrid(m, 1.0))
        expected = [perknot.slice_at_time(strategies, TimeGrid(m, 1.0).knot(j)) for j in range(m)]
        assert fine.mu[:, 0, 0].tolist() == expected
