"""Re-measure the ROADMAP baseline table: median of repeated single calls.

    python3 pdmgbench/baseline.py [--repeats 5]

Run from the root of a source checkout.  Prints one line per row of the
table (the figures quoted in pdmgbench/README.md come from this script).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from pdmg.matrix_game import MatrixGame, solve
    from pdmg.model import load_model
    from pdmg.shapley import SolverConfig, backward_solve, picard_solve
    from pdmg.simulate import SimConfig, estimate_J
    from pdmg.verify import exploitability

    def model(name):
        with open(os.path.join(ROOT, "models", name + ".json")) as fh:
            return load_model(fh.read())

    ctl, grid = model("controlled_two_state"), model("grid_flow")
    _, ctl_saddle = backward_solve(ctl, SolverConfig(n_steps=1000))
    _, grid_saddle = backward_solve(grid, SolverConfig(n_steps=200))
    games = [MatrixGame(np.random.default_rng(i).uniform(-1.0, 1.0, (2, 2))) for i in range(200)]
    r = args.repeats
    rows = [
        ("backward_solve, controlled_two_state, N=1000", "s",
         timed(lambda: backward_solve(ctl, SolverConfig(n_steps=1000)), r)),
        ("backward_solve, controlled_two_state, N=8000", "s",
         timed(lambda: backward_solve(ctl, SolverConfig(n_steps=8000)), r)),
        ("one 2x2 cell LP (200 random games)", "us",
         1e6 / len(games) * timed(lambda: [solve(g) for g in games], r)),
        ("picard_solve, controlled, N=200", "s",
         timed(lambda: picard_solve(ctl, SolverConfig(n_steps=200)), r)),
        ("exploitability, N=1000, refine 8", "s",
         timed(lambda: exploitability(ctl, ctl_saddle, SolverConfig(n_steps=1000), refine=8), r)),
        ("backward_solve, grid_flow, N=1000", "s",
         timed(lambda: backward_solve(grid, SolverConfig(n_steps=1000)), r)),
        ("Monte Carlo, controlled, per path (20000 paths)", "us",
         1e6 / 20000 * timed(lambda: estimate_J(ctl, ctl_saddle, 0.0, 0, SimConfig(20000, 7)), r)),
        ("Monte Carlo, grid_flow, per path (500 paths)", "ms",
         1e3 / 500 * timed(lambda: estimate_J(grid, grid_saddle, 0.0, 0, SimConfig(500, 7)), r)),
    ]
    for name, unit, value in rows:
        print(f"{name:50s} {value:10.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
