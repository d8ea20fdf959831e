import json
import math

import numpy as np
import pytest

from pdmg import demos
from pdmg.model import ModelValidationError, model_from_dict
from pdmg.shapley import (
    SolverConfig,
    StrategyField,
    TimeGrid,
    ValueField,
    backward_solve,
    gamma_apply,
)
from pdmg.verify import (
    check_assumptions,
    check_bounds,
    exploitability,
    oracle_fine_grid,
)

from conftest import singleton_strategies
from picard_loop import contraction_check


class TestCheckAssumptions:
    def test_unit_lyapunov_passes(self, two_state):
        report = check_assumptions(two_state)
        assert report.passed
        names = [c.name for c in report.checks]
        assert sorted(names) == sorted(
            ["drift_V", "drift_V1_squared", "cost_growth", "terminal_growth",
             "intensity_bound", "V_squared_vs_V1"]
        )
        assert len(names) == len(set(names))

    def test_tight_growth_constant_passes(self):
        # M2 = e^{2(T+1)|c|} exactly: margin zero, still a pass
        doc = demos.doc("two_state")
        doc["lyapunov"]["M2"] = math.exp(2.0 * 2.0 * 1.0)
        report = check_assumptions(model_from_dict(doc))
        assert report.passed

    def test_small_growth_constant_fails_with_location(self):
        doc = demos.doc("two_state")
        doc["lyapunov"]["M2"] = 10.0  # < e^4: cost growth violated at state 0
        report = check_assumptions(model_from_dict(doc))
        assert not report.passed
        failed = {c.name: c for c in report.checks if not c.passed}
        assert "cost_growth" in failed
        assert "state 0" in failed["cost_growth"].location

    def test_overflowing_growth_term_fails_with_margin_minus_inf(self):
        # 2*(T+1)*|c| = 1600 and 2*(T+1)*|g| = 1200 pass the float range of e^x
        doc = demos.doc("nonneg_ladder")
        doc["costs"][0]["value"] = 400.0
        doc["terminal"] = [{"state": 2, "value": 300.0}]
        report = check_assumptions(model_from_dict(doc))
        failed = {c.name: c for c in report.checks if not c.passed}
        assert sorted(failed) == ["cost_growth", "terminal_growth"]
        assert failed["cost_growth"].location == "seg 0, state 0"
        assert failed["terminal_growth"].location == "state 2"
        assert all(c.margin == -math.inf for c in failed.values())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_growth_product_past_the_float_range_fails_without_a_warning(self):
        # 2*(T+1)*|c| = 4e308 is past the float range before its exponential is
        doc = demos.doc("grid_flow")
        doc["costs"][0]["value"] = 1e308
        report = check_assumptions(model_from_dict(doc))
        failed = {c.name: c for c in report.checks if not c.passed}
        assert list(failed) == ["cost_growth"]
        assert failed["cost_growth"].location == "seg 0, state 0"
        assert failed["cost_growth"].margin == -math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, key, index, failed", [
        # rho2*V1(x)^2 is past the float range on the right of the drift check
        ("nonneg_ladder", "rho2", None, {}),
        # M2*V(x) is past the float range in the cost growth bound, which holds;
        # the drift and V^2 <= M3*V1 fail
        ("two_state", "V", 1, {"drift_V": -1e308, "V_squared_vs_V1": -math.inf}),
        # V1(x)^2 is past the float range on both sides of the drift check: a
        # margin of inf - inf is not a number and fails
        ("nonneg_ladder", "V1", 1, {"drift_V1_squared": math.nan}),
    ])
    def test_lyapunov_data_past_the_float_range_checks_without_a_warning(self, name, key, index, failed):
        doc = demos.doc(name)
        if index is None:
            doc["lyapunov"][key] = 1e308
        else:
            doc["lyapunov"][key][index] = 1e308
        report = check_assumptions(model_from_dict(doc))
        np.testing.assert_equal({c.name: c.margin for c in report.checks if not c.passed}, failed)  # nan == nan

    def test_requires_lyapunov(self, const_cost):
        with pytest.raises(ModelValidationError, match="lyapunov"):
            check_assumptions(const_cost)

    def test_report_json(self, two_state):
        doc = json.loads(check_assumptions(two_state).to_json())
        assert doc["passed"] is True
        assert len(doc["checks"]) == 6


class TestCheckBounds:
    def test_unit_field_passes(self, two_state):
        field = ValueField(TimeGrid(4, 1.0), np.ones((5, 2)))
        assert check_bounds(field, two_state).passed

    def test_zero_entry_fails_positivity(self, two_state):
        phi = np.ones((5, 2))
        phi[2, 1] = 0.0
        report = check_bounds(ValueField(TimeGrid(4, 1.0), phi), two_state)
        assert not report.passed
        assert report.checks[0].name == "positivity"
        assert "knot 2, state 1" in report.checks[0].location

    def test_solved_demos_pass(self, two_state, controlled, grid_flow, signed_cost):
        for model in (two_state, controlled, grid_flow, signed_cost):
            field, _ = backward_solve(model, SolverConfig(n_steps=200))
            report = check_bounds(field, model)
            assert report.passed, report.to_json()


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bound_with_M2_past_the_float_range_is_infinite_without_a_warning(self, two_state):
        # M2*e^{rho1*(T-t)}*(1 + b1/rho1) passes the largest float below t = T
        # for M2 = 1e308; at t = T it is 1.2e308, the least upper margin
        doc = demos.doc("two_state")
        doc["lyapunov"]["M2"] = 1e308
        model = model_from_dict(doc)
        field, _ = backward_solve(model, SolverConfig(n_steps=20))
        report = check_bounds(field, model)
        assert report.passed
        upper = {c.name: c for c in report.checks}["upper_bound"]
        assert upper.location.startswith("knot 20,") and upper.margin > 1e308

    def test_overflowing_growth_bound_is_infinite(self, two_state):
        # rho1*T = 800: e^{rho1*(T-t)} passes the largest float below t = 0.113
        doc = demos.doc("two_state")
        doc["lyapunov"]["rho1"] = 800.0
        report = check_bounds(ValueField(TimeGrid(4, 1.0), np.ones((5, 2))), model_from_dict(doc))
        assert report.passed
        upper = {c.name: c for c in report.checks}["upper_bound"]
        assert upper.location == "knot 4, state 0" and math.isfinite(upper.margin)


class TestExploitability:
    def test_uncontrolled_gap_is_zero(self, two_state):
        strategies = singleton_strategies(two_state, n_steps=100)
        gap = exploitability(two_state, strategies, SolverConfig(n_steps=100))
        assert gap == 0.0

    def test_pure_heads_is_exploited_for_one(self, matching_pennies):
        grid = TimeGrid(500, 1.0)
        heads = [[np.array([1.0, 0.0])] for _ in range(500)]
        half = [[np.array([0.5, 0.5])] for _ in range(500)]
        strategies = StrategyField(grid, heads, half)
        gap = exploitability(matching_pennies, strategies, SolverConfig(n_steps=500))
        # the column best response drives the risk value to -1 vs pair value 0
        assert gap == pytest.approx(1.0, abs=5e-3)

    def test_saddle_gap_small_and_first_order(self, controlled, controlled_saddle_1000,
                                              controlled_saddle_2000):
        _, s1 = controlled_saddle_1000
        _, s2 = controlled_saddle_2000
        g1 = exploitability(controlled, s1, SolverConfig(n_steps=1000))
        g2 = exploitability(controlled, s2, SolverConfig(n_steps=2000))
        assert g1 <= 2e-3
        assert 1.6 <= g1 / g2 <= 2.4


class TestOracle:
    def test_constant_cost_known_limit(self, const_cost):
        # the stepper integrates the constant exactly; the quadrature-based
        # fixed point deviates from e at first order, shrinking like 1/N
        r1 = oracle_fine_grid(const_cost, 4, SolverConfig(n_steps=100), probes=[(0.0, 0)])
        r2 = oracle_fine_grid(const_cost, 4, SolverConfig(n_steps=200), probes=[(0.0, 0)])
        assert r1.max_dev_backward <= 1e-10
        assert 1.6 <= r1.max_dev_picard / r2.max_dev_picard <= 2.4
        assert r1.probe_values[0][2] == pytest.approx(math.e, abs=1e-9)

    def test_uncontrolled_hits_exact_two(self, two_state):
        report = oracle_fine_grid(two_state, 8, SolverConfig(n_steps=250), probes=[(0.0, 0)])
        _, _, coarse, fine_b, fine_p = report.probe_values[0]
        assert abs(fine_b - 2.0) <= 1e-5
        assert abs(fine_p - 2.0) <= 1e-5

    def test_controlled_demo_deviation(self, controlled):
        report = oracle_fine_grid(controlled, 8, SolverConfig(n_steps=1000))
        assert report.max_deviation <= 5e-3

    def test_json_shape(self, const_cost):
        report = oracle_fine_grid(const_cost, 2, SolverConfig(n_steps=50), probes=[(0.5, 0)])
        doc = json.loads(report.to_json())
        assert doc["refine_factor"] == 2
        assert doc["probe_values"][0]["state"] == 0


class TestContraction:
    def test_bound_certified_on_unit_demo(self, controlled):
        # max q* = max |c| = T = 1: seven sweeps contract by 3^7/7! at most
        ratio, bound = contraction_check(controlled, 7, SolverConfig(n_steps=200))
        assert bound == pytest.approx(2187.0 / 5040.0, rel=1e-12)
        assert ratio <= bound + 1e-6

    def test_single_sweep_also_bounded(self, controlled):
        ratio, bound = contraction_check(controlled, 1, SolverConfig(n_steps=100))
        assert bound == pytest.approx(3.0, rel=1e-12)
        assert ratio <= bound + 1e-6

    def test_equal_fields_map_equally(self, controlled):
        grid = TimeGrid(50, controlled.horizon)
        rng = np.random.default_rng(5)
        u = rng.uniform(0.5, 2.0, size=(51, 2))
        a = gamma_apply(controlled, u.copy(), grid)
        b = gamma_apply(controlled, u.copy(), grid)
        assert np.array_equal(a, b)

    def test_degenerate_operator_ignores_argument(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
        }
        m = model_from_dict(doc)
        ratio, bound = contraction_check(m, 1, SolverConfig(n_steps=30))
        assert ratio == 0.0 and bound == 0.0
