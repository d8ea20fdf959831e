import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmg import demos, shapley
from pdmg.matrix_game import COUNTS, reset_counts
from pdmg.model import model_from_dict
from pdmg.shapley import (
    CFLError,
    PicardConvergenceError,
    SolutionFormatError,
    SolverConfig,
    SolverError,
    StrategyField,
    TimeGrid,
    ValueField,
    _bracket_entries,
    _bracket_tables,
    _ediff,
    backward_solve,
    best_response_solve,
    check_cfl,
    export_solution_csv,
    gamma_apply,
    import_solution_csv,
    picard_solve,
    policy_evaluate,
    saddle_from_field,
    terminal_field,
    to_risk_value,
)
from pdmg.simulate import SimConfig, estimate_J

from conftest import singleton_strategies


class TestTerminalField:
    def test_zero_terminal(self, const_cost):
        assert np.all(terminal_field(const_cost) == 1.0)

    def test_log_two(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "terminal": [{"state": 0, "value": math.log(2.0)}],
        }
        m = model_from_dict(doc)
        assert terminal_field(m)[0] == pytest.approx(2.0, abs=1e-15)

    def test_half_lambda(self):
        doc = {
            "lambda": 0.5,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "terminal": [{"state": 0, "value": 2.0}],
        }
        m = model_from_dict(doc)
        assert terminal_field(m)[0] == pytest.approx(math.e, abs=1e-12)

    def test_overflow_guard(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "terminal": [{"state": 0, "value": 800.0}],
        }
        with pytest.raises(SolverError, match="700"):
            terminal_field(model_from_dict(doc))


class TestTimeGrid:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3000), st.sampled_from([1.0, 0.7, 2.5, 3.0, 0.3, 10.0 / 3.0]))
    def test_knots_round_as_knot(self, n, horizon):
        grid = TimeGrid(n, horizon)
        assert grid.knots().tolist() == [grid.knot(k) for k in range(n + 1)]

    def test_slices_on_a_refined_grid_repeat_each_slice(self):
        for n in range(1, 1200, 7):
            for horizon in (1.0, 0.7, 2.5, 3.0):
                coarse = StrategyField(TimeGrid(n, horizon), np.ones((n, 1, 1)), np.ones((n, 1, 1)))
                for r in (2, 3, 8):
                    fine = TimeGrid(n * r, horizon)
                    assert np.array_equal(coarse.slices_at(fine), np.repeat(np.arange(n), r))


def _cell_game(model, u):
    """The bracket game lambda*c*u(x) + sum_y q(y|x,a,b)*u(y) of state 0 for one slice u."""
    return _bracket_entries(model, np.array([u], dtype=float), _bracket_tables(model, np.zeros(1, dtype=int)))[0, 0]


class TestLocalGameMatrix:
    def test_zero_kernel_scales_costs(self, matching_pennies):
        game = _cell_game(matching_pennies, [1.0])
        mp = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(game, matching_pennies.lam * mp)

    def test_conservativity_kills_constants(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a", "b"]},
            "actions": {"p1": [[0], [0]], "p2": [[0], [0]]},
            "rates": [{"from": 0, "a": 0, "b": 0, "to": 1, "rate": 1.0}],
        }
        m = model_from_dict(doc)
        assert np.allclose(_cell_game(m, [1.0, 1.0]), 0.0, atol=1e-15)

    def test_constant_cost_arithmetic(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "costs": [{"state": 0, "a": 0, "b": 0, "value": 1.0}],
        }
        m = model_from_dict(doc)
        assert _cell_game(m, [3.0])[0, 0] == 3.0


class TestBackwardSolve:
    def test_constant_cost_exponential(self, const_cost):
        # scalar linear equation: phi(t) = exp(lam*c0*(T-t)), phi(0) = e
        field, strategies = backward_solve(const_cost, SolverConfig(n_steps=1000))
        assert abs(field.phi[0, 0] - math.e) <= 1e-6
        knots = field.grid.knots()
        exact = np.exp(0.5 * 2.0 * (1.0 - knots))
        assert np.abs(field.phi[:, 0] - exact).max() <= 1e-6

    def test_matching_pennies_flat(self, matching_pennies):
        field, strategies = backward_solve(matching_pennies, SolverConfig(n_steps=1000))
        assert np.abs(field.phi - 1.0).max() <= 1e-9
        for k in (0, 499, 999):
            assert np.allclose(strategies.mu[k][0], [0.5, 0.5], atol=1e-9)
            assert np.allclose(strategies.nu[k][0], [0.5, 0.5], atol=1e-9)

    def test_controlled_matches_fine_grid(self, controlled, controlled_saddle_1000):
        field, _ = controlled_saddle_1000
        fine, _ = backward_solve(controlled, SolverConfig(n_steps=8000))
        dev = np.abs(field.phi - fine.phi[::8]).max()
        assert dev <= 5e-3

    def test_positivity_and_terminal_exact(self, controlled, controlled_saddle_1000):
        field, _ = controlled_saddle_1000
        assert field.phi.min() > 0.0
        assert np.array_equal(field.phi[-1], terminal_field(controlled))

    def test_strategies_are_simplices(self, controlled_saddle_1000):
        _, strategies = controlled_saddle_1000
        for k in (0, 500, 999):
            for x in (0, 1):
                for w in (strategies.mu[k][x], strategies.nu[k][x]):
                    assert abs(w.sum() - 1.0) <= 1e-12
                    assert np.all(w >= -1e-15)

    def test_cfl_guard_reports_required_steps(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a", "b"]},
            "actions": {"p1": [[0], [0]], "p2": [[0], [0]]},
            "rates": [{"from": 0, "a": 0, "b": 0, "to": 1, "rate": 40.0}],
            "costs": [{"state": 0, "a": 0, "b": 0, "value": 1.0}],
        }
        m = model_from_dict(doc)
        with pytest.raises(CFLError) as err:
            backward_solve(m, SolverConfig(n_steps=10))
        assert err.value.required_n >= 160
        backward_solve(m, SolverConfig(n_steps=err.value.required_n))

    def test_cfl_required_steps_past_the_float_range(self):
        # T*load/CFL_SAFETY = 2e308 is past the largest float
        doc = demos.doc("matching_pennies")
        doc["costs"][0]["value"] = 1e308
        with pytest.raises(CFLError) as err:
            backward_solve(model_from_dict(doc), SolverConfig(n_steps=20))
        assert err.value.required_n == 2 * int(1e308)
        assert str(err.value).endswith("; use N >= 2.000e+308")

    @pytest.mark.parametrize("cost, shown", [(1e308, "1.000e+308"), (1e12, "1.000e+12"), (1e11, "100000000003")])
    def test_cfl_message_shortens_a_count_past_twelve_digits(self, cost, shown):
        doc = demos.doc("grid_flow")
        doc["costs"][0]["value"] = cost
        with pytest.raises(CFLError) as err:
            check_cfl(model_from_dict(doc), TimeGrid(20, 1.0))
        assert str(err.value).endswith(f"; use N >= {shown}")

    def test_monotone_in_time_for_nonneg_costs(self, controlled, nonneg_ladder_model, grid_flow):
        # c >= 0, g = 0, time-homogeneous: phi nonincreasing in t
        for model, steps in ((controlled, 400), (nonneg_ladder_model, 400), (grid_flow, 250)):
            field, _ = backward_solve(model, SolverConfig(n_steps=steps))
            assert np.diff(field.phi, axis=0).max() <= 1e-10


class TestPicard:
    def test_trivial_fixed_point_one_sweep(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
        }
        m = model_from_dict(doc)
        field, info = picard_solve(m, SolverConfig(n_steps=50), collect_info=True)
        assert np.all(field.phi == 1.0)
        assert len(info["residuals"]) == 1 and info["residuals"][0] == 0.0

    def test_contraction_bound_certified_at_m7(self):
        # ||q|| = ||c|| = T = 1: the 7-sweep factor is 3^7/7! = 2187/5040 < 1
        bound = ((2.0 * 1.0 + 1.0) * 1.0) ** 7 / math.factorial(7)
        assert bound == pytest.approx(2187.0 / 5040.0, abs=1e-15)
        assert bound == pytest.approx(0.4339, abs=1e-4)

    def test_cross_solver_agreement(self, controlled, controlled_saddle_1000):
        field, _ = controlled_saddle_1000
        picard = picard_solve(controlled, SolverConfig(n_steps=1000))
        assert np.abs(field.phi - picard.phi).max() <= 5e-3

    def test_residuals_respect_factorial_bound(self, controlled):
        _, info = picard_solve(controlled, SolverConfig(n_steps=200), collect_info=True)
        for ratio, bound in zip(info["contraction_ratios"], info["contraction_bounds"]):
            assert ratio <= bound + 1e-9

    def test_saddle_extraction_round_trip(self, matching_pennies):
        field = picard_solve(matching_pennies, SolverConfig(n_steps=100))
        strategies = saddle_from_field(matching_pennies, field)
        assert np.allclose(strategies.mu[0][0], [0.5, 0.5], atol=1e-9)

    def test_saddle_of_singleton_model_counts_its_games(self, grid_flow):
        # no bracket entries are built, but each of the N*S 1x1 games counts
        # as the pure saddle solve_stack would settle it as
        field = picard_solve(grid_flow, SolverConfig(n_steps=20))
        reset_counts()
        strategies = saddle_from_field(grid_flow, field)
        assert COUNTS["pure_saddle"] == 20 * grid_flow.n_states
        assert strategies.mu.shape == strategies.nu.shape == (20, grid_flow.n_states, 1)
        assert (strategies.mu == 1.0).all() and (strategies.nu == 1.0).all()

    def test_non_finite_residual_raises_at_once(self):
        # finite entries of 1e306 sum past the largest float over ten steps of 100
        doc = {
            "lambda": 1.0,
            "horizon": 1000.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "costs": [{"state": 0, "a": 0, "b": 0, "value": 1e306}],
        }
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="Picard sweep 1 has residual inf"):
            picard_solve(model_from_dict(doc), SolverConfig(n_steps=10))

    # an infinite tolerance stops after one sweep, whatever its residual
    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_config_rejects_a_tol_that_is_not_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            SolverConfig(n_steps=10, tol=tol)

    def test_sweep_cap_reports_the_last_residual(self, controlled, monkeypatch):
        monkeypatch.setattr(shapley, "MAX_PICARD_SWEEPS", 2)
        grid = TimeGrid(200, controlled.horizon)
        u = terminal_field(controlled)[shapley._FlowLags(controlled, grid).lag_table]
        once = gamma_apply(controlled, u, grid)
        last = float(np.max(np.abs(gamma_apply(controlled, once, grid) - once)))
        with pytest.raises(PicardConvergenceError, match="in 2 sweeps") as exc:
            picard_solve(controlled, SolverConfig(n_steps=200))
        assert exc.value.last_residual == last > 1e-9


class TestPolicyEvaluate:
    def test_uncontrolled_benchmark_equals_two(self, two_state):
        # closed form: E exp(min(tau, 1)), tau ~ Exp(1):
        #   int_0^1 e^s e^{-s} ds + e^{-1} * e^1 = 1 + 1 = 2
        strategies = singleton_strategies(two_state, n_steps=2000)
        field = policy_evaluate(two_state, strategies)
        assert abs(field.phi[0, 0] - 2.0) <= 1e-4

    def test_absorbing_state_stays_one(self, two_state):
        strategies = singleton_strategies(two_state, n_steps=500)
        field = policy_evaluate(two_state, strategies)
        assert np.abs(field.phi[:, 1] - 1.0).max() <= 1e-14

    def test_constant_cost_ignores_strategies(self):
        doc = {
            "lambda": 0.5,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0, 1]], "p2": [[0, 1]]},
            "costs": [
                {"state": 0, "a": a, "b": b, "value": 2.0} for a in (0, 1) for b in (0, 1)
            ],
        }
        m = model_from_dict(doc)
        grid = TimeGrid(400, 1.0)
        rng = np.random.default_rng(3)
        mu = [[_random_simplex(rng, 2)] for _ in range(400)]
        nu = [[_random_simplex(rng, 2)] for _ in range(400)]
        field = policy_evaluate(m, StrategyField(grid, mu, nu))
        exact = np.exp(0.5 * 2.0 * (1.0 - grid.knots()))
        assert np.abs(field.phi[:, 0] - exact).max() <= 1e-9

    def test_saddle_evaluation_reproduces_value(self, controlled, controlled_saddle_1000):
        field, strategies = controlled_saddle_1000
        replay = policy_evaluate(controlled, strategies)
        assert np.abs(replay.phi - field.phi).max() <= 1e-11

    def test_time_shift_consistency(self, controlled, controlled_saddle_1000):
        # time-homogeneous model: evaluating the strategy tail from knot k0
        # on the shortened horizon replays the original values exactly
        field, strategies = controlled_saddle_1000
        k0 = 250
        n_rest = 1000 - k0
        t_rest = controlled.horizon * n_rest / 1000
        from pdmg import demos

        doc = demos.doc("controlled_two_state")
        doc["horizon"] = t_rest
        m2 = model_from_dict(doc)
        tail = StrategyField(TimeGrid(n_rest, t_rest), strategies.mu[k0:], strategies.nu[k0:])
        replay = policy_evaluate(m2, tail)
        unshifted = policy_evaluate(controlled, strategies)
        assert np.array_equal(replay.phi, unshifted.phi[k0:])
        assert np.abs(replay.phi - field.phi[k0:]).max() <= 1e-10


def _random_simplex(rng, k):
    w = rng.uniform(0.1, 1.0, size=k)
    return w / w.sum()


class TestBestResponse:
    def test_saddle_is_unexploitable_to_first_order(self, controlled, controlled_saddle_1000):
        field, strategies = controlled_saddle_1000
        cfg = SolverConfig(n_steps=1000)
        sup_side = best_response_solve(controlled, strategies, "maximize", cfg)
        inf_side = best_response_solve(controlled, strategies, "minimize", cfg)
        # discretization tolerance estimated from a refinement step
        fine, _ = backward_solve(controlled, SolverConfig(n_steps=2000))
        disc = np.abs(field.phi[0] - fine.phi[0]).max() + 1e-9
        assert np.abs(sup_side.phi - field.phi).max() <= 2 * disc + 1e-6
        assert np.abs(inf_side.phi - field.phi).max() <= 2 * disc + 1e-6

    def test_fixed_heads_row_is_exploited(self, matching_pennies):
        # row frozen at heads: the column plays tails, phi(0) = e^{-1}
        grid = TimeGrid(1000, 1.0)
        heads = [[np.array([1.0, 0.0])] for _ in range(1000)]
        half = [[np.array([0.5, 0.5])] for _ in range(1000)]
        fixed = StrategyField(grid, heads, half)
        field = best_response_solve(matching_pennies, fixed, "minimize", SolverConfig(n_steps=1000))
        assert field.phi[0, 0] == pytest.approx(math.exp(-1.0), rel=2e-3)
        risk = to_risk_value(field, matching_pennies.lam)
        assert risk[0, 0] == pytest.approx(-1.0, abs=2e-3)

    def test_uncontrolled_equals_policy_evaluate(self, two_state):
        strategies = singleton_strategies(two_state, n_steps=300)
        pe = policy_evaluate(two_state, strategies)
        for side in ("maximize", "minimize"):
            br = best_response_solve(two_state, strategies, side, SolverConfig(n_steps=300))
            assert np.array_equal(br.phi, pe.phi)


class TestRiskValue:
    def test_unit_field_is_zero(self):
        field = ValueField(TimeGrid(2, 1.0), np.ones((3, 2)))
        assert np.all(to_risk_value(field, 0.7) == 0.0)

    def test_log_two(self):
        field = ValueField(TimeGrid(1, 1.0), np.full((2, 1), 2.0))
        assert to_risk_value(field, 1.0)[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_half_lambda_rescales(self):
        field = ValueField(TimeGrid(1, 1.0), np.full((2, 1), math.e))
        assert to_risk_value(field, 0.5)[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_nonpositive_entry_rejected(self):
        field = ValueField(TimeGrid(1, 1.0), np.array([[1.0], [0.0]]))
        with pytest.raises(SolverError, match="nonpositive"):
            to_risk_value(field, 1.0)


class TestEdiff:
    @given(
        a=st.floats(min_value=-3.0, max_value=3.0),
        b=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200)
    def test_matches_direct_quotient(self, a, b):
        got = float(_ediff(np.array(a), np.array(b)))
        if abs(a - b) > 1e-4:
            want = (math.exp(a) - math.exp(b)) / (a - b)
            assert got == pytest.approx(want, rel=1e-10)
        else:
            assert got == pytest.approx(math.exp(0.5 * (a + b)), rel=1e-7)

    def test_exact_at_equal_arguments(self):
        assert float(_ediff(np.array(-0.3), np.array(-0.3))) == pytest.approx(
            math.exp(-0.3), rel=1e-14
        )


class TestSolutionCsv:
    def test_round_trip_is_byte_identical(self, controlled):
        field, strategies = backward_solve(controlled, SolverConfig(n_steps=40))
        text = export_solution_csv(controlled, field, strategies)
        field2, strategies2 = import_solution_csv(controlled, text)
        text2 = export_solution_csv(controlled, field2, strategies2)
        assert text == text2

    def test_header_and_row_count(self, matching_pennies):
        field, strategies = backward_solve(matching_pennies, SolverConfig(n_steps=4))
        text = export_solution_csv(matching_pennies, field, strategies)
        lines = text.splitlines()
        assert lines[0] == "t,state,phi,risk_value,mu_0,mu_1,nu_0,nu_1"
        assert len(lines) == 1 + 5  # header + (N+1) knots x 1 state

    def test_malformed_row_names_the_row(self, matching_pennies):
        field, strategies = backward_solve(matching_pennies, SolverConfig(n_steps=4))
        lines = export_solution_csv(matching_pennies, field, strategies).splitlines()
        lines[3] = lines[3].replace(",", ";")
        with pytest.raises(SolutionFormatError, match="row 3: expected 8 fields, got 1"):
            import_solution_csv(matching_pennies, "\n".join(lines) + "\n")
        lines = export_solution_csv(matching_pennies, field, strategies).splitlines()
        lines[2] = lines[2].replace(",0.5,", ",half,", 1)
        with pytest.raises(SolutionFormatError, match="row 2: could not convert"):
            import_solution_csv(matching_pennies, "\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "mix, match",
        [
            ("1.5,-0.5", r"row 2, column mu_1: -0\.5 is not a probability"),
            ("0.5,0.6", r"row 2, columns mu_\*: probabilities sum to 1\.1"),
            ("nan,0.5", r"row 2, column mu_0: nan is not a probability"),
        ],
    )
    def test_import_rejects_non_simplex_mixtures(self, matching_pennies, mix, match):
        field, strategies = backward_solve(matching_pennies, SolverConfig(n_steps=4))
        lines = export_solution_csv(matching_pennies, field, strategies).splitlines()
        parts = lines[2].split(",")
        parts[4:6] = mix.split(",")
        lines[2] = ",".join(parts)
        with pytest.raises(SolverError, match=match):
            import_solution_csv(matching_pennies, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("name", sorted(p.stem for p in demos.MODELS_DIR.glob("*.json")))
    def test_every_demo_export_imports(self, name):
        model = demos.build(name)
        field, strategies = backward_solve(model, SolverConfig(n_steps=200))
        text = export_solution_csv(model, field, strategies)
        assert export_solution_csv(model, *import_solution_csv(model, text)) == text

    def test_import_rejects_nonpositive_phi(self, matching_pennies):
        field, strategies = backward_solve(matching_pennies, SolverConfig(n_steps=4))
        lines = export_solution_csv(matching_pennies, field, strategies).splitlines()
        parts = lines[1].split(",")
        parts[2] = "-1.0"
        lines[1] = ",".join(parts)
        with pytest.raises(SolverError, match="nonpositive or non-finite phi at knot 0, state 0"):
            import_solution_csv(matching_pennies, "\n".join(lines) + "\n")

    def test_refine_is_exact(self, controlled):
        _, strategies = backward_solve(controlled, SolverConfig(n_steps=20))
        fine = strategies.resample(TimeGrid(80, controlled.horizon))
        assert fine.grid.n_steps == 80
        for j in range(80):
            assert np.array_equal(fine.mu[j], strategies.mu[j // 4])
            assert np.array_equal(fine.nu[j], strategies.nu[j // 4])


def mixed_widths_doc():
    """A 2x2, a 1x3 and a 3x1 state; costs change at t = 0.5."""
    return {
        "lambda": 0.5,
        "horizon": 1.0,
        "states": {"finite": ["square", "wide", "tall"]},
        "actions": {"p1": [[0, 1], [0], [0, 1, 2]], "p2": [[0, 1], [0, 1, 2], [0]]},
        "rates": [
            {"from": 0, "a": 0, "b": 0, "to": 1, "rate": 0.9},
            {"from": 0, "a": 1, "b": 1, "to": 2, "rate": 0.6},
            {"from": 0, "a": 0, "b": 1, "to": 2, "rate": 0.2},
            {"from": 1, "a": 0, "b": 1, "to": 0, "rate": 0.7},
            {"from": 1, "a": 0, "b": 2, "to": 2, "rate": 0.4},
            {"from": 2, "a": 1, "b": 0, "to": 0, "rate": 0.5},
            {"from": 2, "a": 2, "b": 0, "to": 1, "rate": 0.8},
        ],
        "costs": [
            {"state": 0, "a": 0, "b": 0, "value": 1.0},
            {"state": 0, "a": 0, "b": 1, "value": -0.4},
            {"state": 0, "a": 1, "b": 0, "value": -0.2},
            {"state": 0, "a": 1, "b": 1, "value": 0.6},
            {"state": 1, "a": 0, "b": 0, "value": 0.9},
            {"state": 1, "a": 0, "b": 1, "value": 0.3},
            {"state": 1, "a": 0, "b": 2, "value": 0.5},
            {"state": 2, "a": 0, "b": 0, "value": -0.3},
            {"state": 2, "a": 1, "b": 0, "value": 0.4},
            {"state": 2, "a": 2, "b": 0, "value": 0.1},
        ],
        "segments": [
            {
                "t_start": 0.5,
                "costs": [
                    {"state": 0, "a": 0, "b": 0, "value": 0.2},
                    {"state": 0, "a": 1, "b": 1, "value": 0.8},
                    {"state": 1, "a": 0, "b": 1, "value": 1.1},
                    {"state": 2, "a": 2, "b": 0, "value": -0.5},
                ],
            }
        ],
        "terminal": [{"state": 1, "value": 0.3}],
    }


class TestMixedWidths:
    @pytest.fixture(scope="class")
    def solved(self):
        model = model_from_dict(mixed_widths_doc())
        field, strategies = backward_solve(model, SolverConfig(n_steps=200))
        return model, field, strategies

    def test_saddle_replay(self, solved):
        model, field, strategies = solved
        assert np.abs(policy_evaluate(model, strategies).phi - field.phi).max() <= 1e-11

    def test_best_responses_bound_the_pair(self, solved):
        model, field, strategies = solved
        cfg = SolverConfig(n_steps=200)
        pair = policy_evaluate(model, strategies).phi
        sup_side = best_response_solve(model, strategies, "maximize", cfg).phi
        inf_side = best_response_solve(model, strategies, "minimize", cfg).phi
        assert np.all(sup_side >= pair - 1e-12)
        assert np.all(inf_side <= pair + 1e-12)

    def test_mixtures_are_padded_simplices(self, solved):
        model, _, strategies = solved
        assert strategies.mu.shape == (200, 3, 3) and strategies.nu.shape == (200, 3, 3)
        for side, actions in ((strategies.mu, model.actions_p1), (strategies.nu, model.actions_p2)):
            for x, acts in enumerate(actions):
                w = side[:, x, : len(acts)]
                assert np.all(w >= -1e-15)
                assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
                assert np.all(side[:, x, len(acts) :] == 0.0)

    def test_csv_round_trip(self, solved):
        model, field, strategies = solved
        text = export_solution_csv(model, field, strategies)
        assert export_solution_csv(model, *import_solution_csv(model, text)) == text

    def test_monte_carlo_runs(self, solved):
        model, _, strategies = solved
        est = estimate_J(model, strategies, 0.0, 0, SimConfig(n_paths=200, rng_seed=3))
        assert est.n_paths == 200 and math.isfinite(est.mean)


def test_import_rejects_nan_phi(matching_pennies):
    field, strategies = backward_solve(matching_pennies, SolverConfig(n_steps=4))
    lines = export_solution_csv(matching_pennies, field, strategies).splitlines()
    parts = lines[2].split(",")
    parts[2] = "nan"
    lines[2] = ",".join(parts)
    with pytest.raises(SolverError, match="non-finite"):
        import_solution_csv(matching_pennies, "\n".join(lines) + "\n")
