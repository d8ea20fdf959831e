#!/usr/bin/env python3
"""Solve a demo model, simulate under the computed saddle, and compare.

The Monte Carlo mean of the exponential functional must agree with the
solved phi(0, x0) up to sampling noise plus the discretization budget.

Usage: python scripts/solve_and_simulate.py [demo-name] [N] [paths]
"""

import sys

from pdmg import demos
from pdmg.shapley import SolverConfig, backward_solve, to_risk_value
from pdmg.simulate import SimConfig, estimate_J


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "controlled_two_state"
    n_steps = int(sys.argv[2]) if len(sys.argv) > 2 else 1000
    paths = int(sys.argv[3]) if len(sys.argv) > 3 else 20_000

    model = demos.build(name)
    field, strategies = backward_solve(model, SolverConfig(n_steps=n_steps))
    risk = to_risk_value(field, model.lam)
    print(f"model {name}: {model.n_states} states, lambda={model.lam:g}, T={model.horizon:g}")
    for x in range(min(model.n_states, 6)):
        print(f"  phi(0, {model.state_name(x)}) = {field.at(0, x):.9f}"
              f"   risk value {risk[0, x]:.9f}")

    x0 = 0
    est = estimate_J(model, strategies, 0.0, x0, SimConfig(n_paths=paths, rng_seed=7))
    fine, _ = backward_solve(model, SolverConfig(n_steps=2 * n_steps))
    budget = 3.0 * est.stderr + 3.0 * abs(field.at(0, x0) - fine.at(0, x0)) + 1e-9
    gap = abs(est.mean - field.at(0, x0))
    print(f"Monte Carlo at x0={model.state_name(x0)}: {est.mean:.6f} +- {est.stderr:.6f} "
          f"({paths} paths, exponents in [{est.min_exponent:.3f}, {est.max_exponent:.3f}])")
    print(f"|MC - phi| = {gap:.2e}  vs budget {budget:.2e}  ->  "
          f"{'agree' if gap <= budget else 'DISAGREE'}")


if __name__ == "__main__":
    main()
