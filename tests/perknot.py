"""Per-knot forms of the backward solve and of the knot-to-slice map, kept as
references.

``backward_solve`` is ``pdmg.shapley.backward_solve`` as it was before it
carried saddle supports from knot to knot: it hands every knot's cell games
to ``solve_stack``.  ``slice_at_time`` is the scalar rule that
``StrategyField.slices_at`` applies to a whole grid at once.
``test_carried_supports.py`` checks the solver against the first and the
map against the second.
"""

from __future__ import annotations

import math

from pdmg.model import GameModel
from pdmg.shapley import (
    SolverConfig,
    StrategyField,
    TimeGrid,
    ValueField,
    _pure_mixtures,
    _sweep,
    check_cfl,
    solve_game,
    solve_stack,
)


def backward_solve(model: GameModel, config: SolverConfig) -> tuple[ValueField, StrategyField]:
    """Solve the optimality equation backward in time.

    Returns the value field (phi > 0 everywhere, terminal slice bit-exact)
    and the per-cell saddle mixtures.
    """
    grid = TimeGrid(config.n_steps, model.horizon)
    check_cfl(model, grid, config.cfl_safety)
    mu, nu = _pure_mixtures(model, grid.n_steps)

    def value(k, E):
        v, mu[k], nu[k] = solve_stack(E, model.cells, config.game_tol, solve_game)
        return v

    return _sweep(model, grid, config.game_tol, value), StrategyField(grid, mu, nu)


def slice_at_time(strategies: StrategyField, t: float) -> int:
    """The slice of ``strategies`` in force at time t."""
    n = strategies.grid.n_steps
    k = int(math.floor(t / strategies.grid.delta * (1.0 + 1e-15)))
    return min(max(k, 0), n - 1)
