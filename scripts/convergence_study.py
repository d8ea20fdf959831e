#!/usr/bin/env python3
"""Time-step refinement study: successive sup-norm differences and their
Richardson ratios (about 2 for a first-order scheme), plus the cross-solver
deviation between the backward stepper and the Picard fixed point.

Usage: python scripts/convergence_study.py [demo-name] [N0]
"""

import sys

import numpy as np

from pdmg import demos
from pdmg.shapley import SolverConfig, backward_solve, picard_solve


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "grid_flow"
    n0 = int(sys.argv[2]) if len(sys.argv) > 2 else 250

    model = demos.build(name)
    levels = [n0, 2 * n0, 4 * n0, 8 * n0]
    fields = {n: backward_solve(model, SolverConfig(n_steps=n))[0] for n in levels}

    print(f"model {name}: refinement from N={n0}")
    diffs = []
    for a, b in zip(levels, levels[1:]):
        d = float(np.abs(fields[a] - fields[b].on(fields[a].grid)).max())
        diffs.append(d)
        print(f"  ||phi_{a} - phi_{b}||_inf = {d:.4e}")
    for i, (d1, d2) in enumerate(zip(diffs, diffs[1:])):
        print(f"  Richardson ratio level {i}: {d1 / d2:.3f}")

    picard = picard_solve(model, SolverConfig(n_steps=levels[-1]))
    dev = float(np.abs(fields[levels[-1]] - picard).max())
    print(f"  Picard vs backward at N={levels[-1]}: {dev:.4e}")


if __name__ == "__main__":
    main()
