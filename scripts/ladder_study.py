#!/usr/bin/env python3
"""Truncation-ladder study: monotone convergence of the bounded
approximations and the exact exponential shift identity for signed costs.

Usage: python scripts/ladder_study.py [N]
"""

import sys

from pdmg import demos
from pdmg.approx import ladder_run, shift_factor
from pdmg.shapley import SolverConfig


def main():
    n_steps = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    cfg = SolverConfig(n_steps=n_steps)

    model = demos.build("nonneg_ladder")
    probes = [(0.0, x) for x in range(model.n_states)]
    report = ladder_run(model, [1, 3, 6, 9, 16], probes, cfg)
    print("nonnegative-cost ladder (levels uncover states, values nondecreasing):")
    for n, row in zip(report.n_values, report.phi_at_probe):
        print(f"  n={n:>3}: " + "  ".join(f"{v:.6f}" for v in row))
    print(f"  monotone: {report.monotone_ok}, gap at top levels: {report.converged_gap:.2e}")

    signed = demos.build("signed_cost")
    shift_n = 2
    report = ladder_run(signed, [1, 2, 4, 8], [(0.0, 0), (0.0, 1)], cfg, shift_n=shift_n)
    print("signed-cost clip ladder (values nonincreasing):")
    for n, row in zip(report.n_values, report.phi_at_probe):
        print(f"  n={n:>3}: " + "  ".join(f"{v:.6f}" for v in row))
    print(f"  monotone: {report.monotone_ok}, gap at top levels: {report.converged_gap:.2e}")

    fac = shift_factor(signed.lam, signed.horizon, 0.0, shift_n)
    print(f"shift identity at n={shift_n}: factor exp(lam*(T+1)*n) = {fac:.6f}, "
          f"worst relative error {report.shift_rel_err:.2e}")


if __name__ == "__main__":
    main()
