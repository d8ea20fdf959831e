"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and match the package contracts.
"""

import json
import math
import time

import numpy as np
import pytest

from pdmg import demos
from pdmg.approx import ladder_run, shift_identity_check, truncate_nonneg
from pdmg.cli import main as cli_main
from pdmg.matrix_game import MatrixGame, solve as solve_game
from pdmg.shapley import (
    SolverConfig,
    backward_solve,
    export_solution_csv,
    import_solution_csv,
    picard_solve,
    policy_evaluate,
)
from pdmg.simulate import SimConfig, estimate_J
from pdmg.verify import check_bounds, contraction_check, exploitability, oracle_fine_grid

from conftest import singleton_strategies


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def disc_bound(model, n_steps: int, x: int) -> float:
    """First-order discretization budget from one refinement step."""
    a, _ = backward_solve(model, SolverConfig(n_steps=n_steps))
    b, _ = backward_solve(model, SolverConfig(n_steps=2 * n_steps))
    return 3.0 * abs(a.phi[0, x] - b.phi[0, x]) + 1e-9


def test_01_matrix_game_duality():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 21))
        payoffs = rng.uniform(-10.0, 10.0, size=(m, n))
        sol = solve_game(MatrixGame(payoffs), tol=1e-8)
        lo = float(np.min(sol.row_mix @ payoffs))   # maximin guarantee
        hi = float(np.max(payoffs @ sol.col_mix))   # minimax guarantee
        assert hi - lo <= 1e-8
        assert lo >= sol.value - sol.gap - 1e-12
        assert hi <= sol.value + sol.gap + 1e-12
        worst = max(worst, hi - lo)
    sol = solve_game(MatrixGame(np.array([[3.0, 1.0], [0.0, 2.0]])))
    assert abs(sol.value - 1.5) <= 1e-9
    assert np.abs(sol.row_mix - [0.5, 0.5]).max() <= 1e-9
    assert np.abs(sol.col_mix - [0.25, 0.75]).max() <= 1e-9
    elapsed = time.monotonic() - t0
    report(1, "matrix-game duality", elapsed < 10.0 and worst <= 1e-8,
           f"worst gap {worst:.2e}, {elapsed:.1f} s")


def test_02_closed_form_solves(const_cost, matching_pennies):
    t0 = time.monotonic()
    field, _ = backward_solve(const_cost, SolverConfig(n_steps=1000))
    err_e = abs(field.phi[0, 0] - math.e)
    mp_field, mp_strat = backward_solve(matching_pennies, SolverConfig(n_steps=1000))
    err_mp = np.abs(mp_field.phi - 1.0).max()
    strat_err = max(
        max(np.abs(mp_strat.mu[k][0] - 0.5).max(), np.abs(mp_strat.nu[k][0] - 0.5).max())
        for k in range(1000)
    )
    elapsed = time.monotonic() - t0
    report(2, "closed-form solves",
           err_e <= 1e-6 and err_mp <= 1e-9 and strat_err <= 1e-9 and elapsed < 1.0,
           f"|phi-e|={err_e:.1e}, |phi_mp-1|={err_mp:.1e}, strategies off by {strat_err:.1e}, "
           f"{elapsed:.2f} s")


def test_03_exact_uncontrolled_benchmark(two_state):
    t0 = time.monotonic()
    strategies = singleton_strategies(two_state, n_steps=2000)
    field = policy_evaluate(two_state, strategies)
    pe_err = abs(field.phi[0, 0] - 2.0)
    est = estimate_J(two_state, singleton_strategies(two_state, 1), 0.0, 0,
                     SimConfig(n_paths=100_000, rng_seed=42))
    mc_ok = abs(est.mean - 2.0) <= 3.0 * est.stderr
    elapsed = time.monotonic() - t0
    report(3, "exact uncontrolled benchmark",
           pe_err <= 1e-4 and mc_ok and elapsed < 30.0,
           f"|J-2|={pe_err:.1e}, MC {est.mean:.4f}+-{est.stderr:.4f}, {elapsed:.1f} s")


def test_04_feynman_kac_agreement():
    t0 = time.monotonic()
    cases = [
        ("const_cost", 1000, 0, 2000),
        ("matching_pennies", 1000, 0, 2000),
        ("two_state", 1000, 0, 20000),
        ("controlled_two_state", 1000, 0, 20000),
        ("signed_cost", 1000, 0, 20000),
        ("nonneg_ladder", 1000, 0, 20000),
        ("grid_flow", 500, 12, 3000),
    ]
    details = []
    ok = True
    for name, steps, x0, paths in cases:
        model = demos.build(name)
        field, strategies = backward_solve(model, SolverConfig(n_steps=steps))
        est = estimate_J(model, strategies, 0.0, x0, SimConfig(n_paths=paths, rng_seed=314))
        budget = 3.0 * est.stderr + disc_bound(model, steps, x0)
        gap = abs(est.mean - field.phi[0, x0])
        ok = ok and gap <= budget
        details.append(f"{name} {gap:.1e}<={budget:.1e}")
    elapsed = time.monotonic() - t0
    report(4, "Feynman-Kac agreement", ok and elapsed < 60.0,
           "; ".join(details) + f", {elapsed:.1f} s")


def test_05_saddle_certification(controlled, signed_cost,
                                 controlled_saddle_1000, controlled_saddle_2000):
    _, s1 = controlled_saddle_1000
    _, s2 = controlled_saddle_2000
    gaps = {}
    ratios = {}
    g1 = exploitability(controlled, s1, SolverConfig(n_steps=1000))
    g2 = exploitability(controlled, s2, SolverConfig(n_steps=2000))
    gaps["controlled"] = g1
    ratios["controlled"] = g1 / g2
    _, t1 = backward_solve(signed_cost, SolverConfig(n_steps=1000))
    _, t2 = backward_solve(signed_cost, SolverConfig(n_steps=2000))
    h1 = exploitability(signed_cost, t1, SolverConfig(n_steps=1000))
    h2 = exploitability(signed_cost, t2, SolverConfig(n_steps=2000))
    gaps["signed"] = h1
    ratios["signed"] = h1 / h2
    ok = all(g <= 2e-3 for g in gaps.values()) and all(
        1.6 <= r <= 2.4 for r in ratios.values()
    )
    report(5, "saddle certification", ok,
           ", ".join(f"{k}: gap {gaps[k]:.1e} ratio {ratios[k]:.2f}" for k in gaps))


def test_06_monotone_in_time():
    worst = -np.inf
    for name, steps in (
        ("const_cost", 1000),
        ("two_state", 1000),
        ("controlled_two_state", 1000),
        ("nonneg_ladder", 400),
        ("grid_flow", 500),
    ):
        model = demos.build(name)
        field, _ = backward_solve(model, SolverConfig(n_steps=steps))
        worst = max(worst, float(np.diff(field.phi, axis=0).max()))
    report(6, "monotone value in time", worst <= 1e-10, f"worst increase {worst:.1e}")


def test_07_lyapunov_sandwich():
    ok = True
    details = []
    for name in ("two_state", "controlled_two_state", "grid_flow", "signed_cost",
                 "nonneg_ladder"):
        model = demos.build(name)
        field, strategies = backward_solve(model, SolverConfig(n_steps=400))
        rep = check_bounds(field, model)
        ok = ok and rep.passed
        # Monte Carlo mean against the horizon-level bounds
        ly = model.lyapunov
        L1 = ly.M2 * math.exp(ly.rho1 * model.horizon) * (1.0 + ly.b1 / ly.rho1)
        est = estimate_J(model, strategies, 0.0, 0, SimConfig(n_paths=4000, rng_seed=99))
        vT = float(ly.V[model.states.flow_map(model.horizon)[0]])
        hi = L1 * vT + 3.0 * est.stderr
        lo = math.exp(-model.lam * L1 * vT) - 3.0 * est.stderr
        ok = ok and lo <= est.mean <= hi
        details.append(name)
    report(7, "Lyapunov sandwich", ok, ", ".join(details))


def test_08_contraction_and_picard(controlled, controlled_saddle_1000):
    ratio, bound = contraction_check(controlled, 7, SolverConfig(n_steps=200))
    assert bound == pytest.approx(2187.0 / 5040.0, rel=1e-12)
    field, _ = controlled_saddle_1000
    picard = picard_solve(controlled, SolverConfig(n_steps=1000))
    dev = float(np.abs(field.phi - picard.phi).max())
    ok = ratio <= bound + 1e-6 and dev <= 5e-3
    report(8, "contraction and Picard fixed point", ok,
           f"m=7 factor {ratio:.2e} <= {bound:.4f}, cross-solver dev {dev:.1e}")


def test_09_truncation_ladders(nonneg_ladder_model, signed_cost):
    cfg = SolverConfig(n_steps=400)
    up = ladder_run(nonneg_ladder_model, [1, 3, 6, 9, 16], [(0.0, 0), (0.0, 2)], cfg)
    down = ladder_run(signed_cost, [1, 2, 4, 8], [(0.0, 0), (0.0, 1)], cfg)
    shift_err = shift_identity_check(signed_cost, 2, 0.0, cfg)
    direct, _ = backward_solve(nonneg_ladder_model, cfg)
    level, _ = backward_solve(truncate_nonneg(nonneg_ladder_model, 16), cfg)
    bit_identical = np.array_equal(direct.phi, level.phi)
    ok = up.monotone_ok and down.monotone_ok and shift_err <= 1e-9 and bit_identical
    report(9, "truncation ladders", ok,
           f"up monotone {up.monotone_ok}, down monotone {down.monotone_ok}, "
           f"shift rel err {shift_err:.1e}, bit-identical {bit_identical}")


def test_10_grid_flow_advection(grid_flow):
    oracle = oracle_fine_grid(grid_flow, 8, SolverConfig(n_steps=250))
    f1, _ = backward_solve(grid_flow, SolverConfig(n_steps=500))
    f2, _ = backward_solve(grid_flow, SolverConfig(n_steps=1000))
    f3, _ = backward_solve(grid_flow, SolverConfig(n_steps=2000))
    d1 = float(np.abs(f1.phi - f2.phi[::2]).max())
    d2 = float(np.abs(f2.phi - f3.phi[::2]).max())
    ratio = d1 / d2
    ok = oracle.max_deviation <= 5e-3 and 1.6 <= ratio <= 2.4
    report(10, "grid-flow advection", ok,
           f"refine-8 dev {oracle.max_deviation:.1e}, Richardson ratio {ratio:.2f}")


def test_11_determinism(tmp_path, two_state):
    import os

    model_path = tmp_path / "two_state.json"
    model_path.write_text(json.dumps(demos.doc("two_state")))
    sol = tmp_path / "sol"
    cli_main(["solve", "--model", str(model_path), "--steps", "50", "--out", str(sol)])
    blobs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        rc = cli_main(
            ["simulate", "--model", str(model_path), "--strategies",
             str(sol / "solution.csv"), "--paths", "5000", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        blobs.append((out / "estimate.json").read_bytes())
    json_identical = blobs[0] == blobs[1]

    csv_bytes = (sol / "solution.csv").read_bytes()
    field, strategies = import_solution_csv(two_state, csv_bytes.decode())
    round_trip = export_solution_csv(two_state, field, strategies).encode() == csv_bytes
    report(11, "determinism", json_identical and round_trip,
           f"simulation JSON identical {json_identical}, CSV round-trip {round_trip}")
