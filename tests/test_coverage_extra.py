"""Cross-cutting cases: controlled grid flow, reflect-boundary simulation,
mid-horizon starts, level clipping, and float-vs-exact LP agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdmg.approx import truncate_nonneg
from pdmg.matrix_game import MatrixGame, _exact_simplex_max, solve
from pdmg.model import model_from_dict
from pdmg.shapley import SolverConfig, backward_solve, policy_evaluate
from pdmg.simulate import SimConfig, estimate_J, simulate_path
from pdmg.verify import exploitability

from conftest import singleton_strategies
from support import one_state_doc


def controlled_grid_doc(cells=8):
    """Two modes, 2x2 actions everywhere: game cells on a flowing grid."""
    rates = []
    costs = []
    for cell in range(cells):
        pos = (cell + 0.5) / cells
        for a in (0, 1):
            for b in (0, 1):
                if a == b:
                    rates.append(
                        {"from": cell, "a": a, "b": b, "to": cells + cell, "rate": 0.8}
                    )
                else:
                    rates.append(
                        {"from": cells + cell, "a": a, "b": b, "to": cell, "rate": 0.5}
                    )
        costs.append({"state": cell, "a": 0, "b": 0, "value": 0.6 + 0.3 * pos})
        costs.append({"state": cell, "a": 1, "b": 1, "value": 0.2})
        costs.append({"state": cells + cell, "a": 0, "b": 1, "value": 0.5})
        costs.append({"state": cells + cell, "a": 1, "b": 0, "value": 0.9 - 0.3 * pos})
    return {
        "lambda": 0.5,
        "horizon": 1.0,
        "states": {
            "grid_flow": {
                "modes": [{"name": "up", "drift": 0.6}, {"name": "down", "drift": -0.4}],
                "grid": {"min": 0.0, "max": 1.0, "cells": cells},
                "boundary": "clamp",
            }
        },
        "actions": {"p1": [[0, 1]], "p2": [[0, 1]]},
        "rates": rates,
        "costs": costs,
    }


@pytest.fixture(scope="module")
def controlled_grid_model():
    return model_from_dict(controlled_grid_doc())


class TestControlledGridFlow:
    @pytest.fixture()
    def model(self, controlled_grid_model):
        return controlled_grid_model

    def test_solve_converges_first_order(self, model):
        f1, _ = backward_solve(model, SolverConfig(n_steps=200))
        f2, _ = backward_solve(model, SolverConfig(n_steps=400))
        f3, _ = backward_solve(model, SolverConfig(n_steps=800))
        d1 = np.abs(f1.phi - f2.phi[::2]).max()
        d2 = np.abs(f2.phi - f3.phi[::2]).max()
        assert d1 <= 5e-3
        assert d2 <= d1  # refinement does not regress

    def test_saddle_evaluation_replays_value(self, model):
        field, strategies = backward_solve(model, SolverConfig(n_steps=200))
        replay = policy_evaluate(model, strategies)
        assert np.abs(replay.phi - field.phi).max() <= 1e-11

    def test_saddle_exploitability_small(self, model):
        _, strategies = backward_solve(model, SolverConfig(n_steps=400))
        gap = exploitability(model, strategies, SolverConfig(n_steps=400), refine=4)
        assert 0.0 <= gap <= 5e-3

    def test_monte_carlo_agrees(self, model):
        field, strategies = backward_solve(model, SolverConfig(n_steps=400))
        fine, _ = backward_solve(model, SolverConfig(n_steps=800))
        x0 = 3
        est = estimate_J(model, strategies, 0.0, x0, SimConfig(n_paths=2000, rng_seed=77))
        budget = 3.0 * est.stderr + 3.0 * abs(field.phi[0, x0] - fine.phi[0, x0]) + 1e-9
        assert abs(est.mean - field.phi[0, x0]) <= budget


class TestReflectBoundary:
    def reflecting_doc(self, drift):
        return {
            "lambda": 0.5,
            "horizon": 2.0,
            "states": {
                "grid_flow": {
                    "modes": [{"name": "m", "drift": drift}],
                    "grid": {"min": 0.0, "max": 1.0, "cells": 6},
                    "boundary": "reflect",
                }
            },
            "actions": {"p1": [[0]], "p2": [[0]]},
            "rates": [],
            "costs": [{"state": i, "a": 0, "b": 0, "value": 0.2 * i} for i in range(6)],
        }

    def test_paths_bounce_and_integrate_exactly(self):
        # sweeping drift, no jumps: the exponent is the exact cost integral
        # along the reflected sweep, identical across paths
        model = model_from_dict(self.reflecting_doc(1.5))
        strategies = singleton_strategies(model, n_steps=1)
        exps = set()
        for i in range(5):
            tr = simulate_path(model, strategies, 0.0, 0, 1, i)
            assert tr.jumps == []
            exps.add(tr.exponent)
        assert len(exps) == 1

    def test_interior_sweep_matches_solver_and_clamp(self):
        # while no trajectory reaches a boundary, reflect and clamp coincide
        # and the solver's per-step boundary folding is inactive: simulator
        # and both solver variants must agree (see README on reflect scope).
        # drift*T*cells = 4 cells exactly, so the solver's horizon-anchored
        # rounding and the simulator's trajectory rounding visit the same
        # cell sequence and only time discretization separates the values
        drift = 1.0 / 3.0
        model = model_from_dict(self.reflecting_doc(drift))
        doc_clamp = self.reflecting_doc(drift)
        doc_clamp["states"]["grid_flow"]["boundary"] = "clamp"
        clamped = model_from_dict(doc_clamp)

        field, _ = backward_solve(model, SolverConfig(n_steps=600))
        field_c, _ = backward_solve(clamped, SolverConfig(n_steps=600))
        assert np.array_equal(field.phi[:, 0], field_c.phi[:, 0])

        strategies = singleton_strategies(model, n_steps=1)
        est = estimate_J(model, strategies, 0.0, 0, SimConfig(n_paths=5, rng_seed=3))
        fine, _ = backward_solve(model, SolverConfig(n_steps=1200))
        budget = 3.0 * abs(field.phi[0, 0] - fine.phi[0, 0]) + 1e-9
        assert est.stderr == 0.0
        assert abs(est.mean - field.phi[0, 0]) <= budget


class TestMidHorizonStart:
    def test_estimate_from_interior_time(self, two_state):
        # closed form from t0: J(t0) = 1 + (T - t0) at state 0
        strategies = singleton_strategies(two_state, n_steps=1)
        est = estimate_J(two_state, strategies, 0.4, 0, SimConfig(n_paths=40_000, rng_seed=11))
        assert abs(est.mean - 1.6) <= 3.0 * est.stderr

    def test_policy_evaluate_interior_knot_matches(self, two_state):
        strategies = singleton_strategies(two_state, n_steps=1000)
        field = policy_evaluate(two_state, strategies)
        k = 400  # t = 0.4
        assert abs(field.phi[k, 0] - 1.6) <= 1e-4


class TestTruncationClipExample:
    def test_cost_five_clips_to_level_three(self):
        # x inside S_n with c = 5, level n = 3, Lyapunov cap above 3
        doc = one_state_doc(
            5.0,
            lam=0.5,
            lyapunov={
                "V": [2.0],
                "V1": [4.0],
                "rho1": 1.0,
                "b1": 0.1,
                "M1": 1.0,
                "M2": 1.0e9,  # cap = ln(2e9)/4 = 5.35 > 3
                "kappa": 1.0,
                "rho2": 1.0,
                "M3": 1.0,
                "b2": 1.0,
            },
        )
        m = model_from_dict(doc)
        out = truncate_nonneg(m, 3)
        assert out.costs[0, 0, 0, 0] == 3.0
        assert out.terminal[0] == 0.0


class TestExactLPAgreement:
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 5), st.integers(2, 5)),
            elements=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_path_matches_float_value(self, payoffs):
        sol = solve(MatrixGame(payoffs), tol=1e-8)
        shift = 1.0 - float(payoffs.min())
        m = payoffs.shape[0]
        n = payoffs.shape[1]
        w, duals, obj = _exact_simplex_max(payoffs + shift, np.ones(m), np.ones(n))
        exact_value = float(1 / obj) - shift
        assert sol.value == pytest.approx(exact_value, abs=2e-8)
