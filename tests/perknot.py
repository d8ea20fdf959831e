"""Per-knot forms of the backward sweeps and of the knot-to-slice map, kept as
references.

``sweep`` is the backward loop of ``pdmg.shapley`` as it was before the
sweep marched on reduced step tables: it builds every knot's whole (S, A, B)
cell games with ``cell_entries`` and hands them to a per-knot reducer.  On
it run ``backward_solve`` (every knot's games handed to ``solve_stack``, as
before saddle supports were carried from knot to knot), ``policy_evaluate``
(the ``pair`` reducer) and ``best_response_solve`` (``row_max`` and
``col_min``).  The loop and the entry builder are copies, so no reference
runs the code it checks.  ``slice_at_time`` is the scalar rule that
``StrategyField.slices_at`` applies to a whole grid at once.
``test_carried_supports.py`` and ``test_reduced_tables.py`` check the
solvers against these and the map against the scalar rule.
"""

from __future__ import annotations

import math

import numpy as np

from pdmg.model import GameModel
from pdmg.shapley import (
    PositivityError,
    SolverConfig,
    StrategyField,
    TimeGrid,
    ValueField,
    _bad_entries,
    _FlowLags,
    _step_coefficients,
    check_cfl,
    knot_segments,
    solve_game,
    solve_stack,
    terminal_field,
)


def cell_entries(diag: np.ndarray, jump: np.ndarray, v_self, v: np.ndarray) -> np.ndarray:
    """Cell-game entries diag*v_self + sum_y jump[..., y]*v[y] on the (A, B) axes.

    ``diag`` (..., A, B) and ``jump`` (..., A, B, S) are coefficient tables,
    over all states or of one state; ``v`` is one slice (S,) or a stack of
    slices (K, S), and ``v_self`` holds the matching values of the states
    themselves (``v`` again for tables over all states).
    """
    flat = jump.reshape(-1, jump.shape[-1])
    jumps = (v @ flat.T).reshape(v.shape[:-1] + diag.shape)
    return diag * np.asarray(v_self)[..., None, None] + jumps


def sweep(model: GameModel, grid: TimeGrid, reduce) -> ValueField:
    """Backward recursion phi[k] = reduce(k, E_k) from the terminal slice,
    E_k (S, A, B) the cell games of the first-jump update at knot k."""
    lags = _FlowLags(model, grid)
    knot_seg = knot_segments(model, grid)
    diags, jumps = _step_coefficients(model, grid)
    N, S = grid.n_steps, model.n_states
    phi = np.empty((N + 1, S))
    phi[N] = terminal_field(model)
    for k in range(N - 1, -1, -1):
        psi = phi[k + 1][lags.step_table[k]]
        E = cell_entries(diags[knot_seg[k]], jumps[knot_seg[k]], psi, psi)
        phi[k] = reduce(k, E)
    bad = _bad_entries(phi)
    if bad.size:
        k, x = bad[-1]
        raise PositivityError(f"phi is not finite and positive at knot {k}, state {x}")
    return ValueField(grid, phi)


def backward_solve(model: GameModel, config: SolverConfig) -> tuple[ValueField, StrategyField]:
    """Solve the optimality equation backward in time.

    Returns the value field (phi > 0 everywhere, terminal slice bit-exact)
    and the per-cell saddle mixtures.
    """
    grid = TimeGrid(config.n_steps, model.horizon)
    check_cfl(model, grid)
    mu = np.zeros((grid.n_steps, model.n_states, model.widths[0]))
    nu = np.zeros((grid.n_steps, model.n_states, model.widths[1]))

    def value(k, E):
        v, mu[k], nu[k] = solve_stack(E, model.cells, fallback=solve_game)
        return v

    return sweep(model, grid, value), StrategyField(grid, mu, nu)


def policy_evaluate(model: GameModel, strategies: StrategyField) -> ValueField:
    """Value of a fixed Markov strategy pair: each knot's games mixed by both halves."""
    mu, nu = strategies.mu, strategies.nu

    def pair(k, E):
        return (mu[k][:, None, :] @ E @ nu[k][:, :, None])[:, 0, 0]

    return sweep(model, strategies.grid, pair)


def best_response_solve(model: GameModel, fixed: StrategyField, side: str, config: SolverConfig) -> ValueField:
    """One-sided backward solve against a frozen opponent half."""
    grid = TimeGrid(config.n_steps, model.horizon)
    check_cfl(model, grid)
    ks = [slice_at_time(fixed, grid.knot(k)) for k in range(grid.n_steps)]

    def row_max(k, E):
        rows = (E @ fixed.nu[ks[k]][:, :, None])[:, :, 0]
        return np.where(model.cells[:, :, 0], rows, -np.inf).max(axis=1)

    def col_min(k, E):
        cols = (fixed.mu[ks[k]][:, None, :] @ E)[:, 0, :]
        return np.where(model.cells[:, 0, :], cols, np.inf).min(axis=1)

    return sweep(model, grid, row_max if side == "maximize" else col_min)


def slice_at_time(strategies: StrategyField, t: float) -> int:
    """The slice of ``strategies`` in force at time t."""
    n = strategies.grid.n_steps
    k = int(math.floor(t / strategies.grid.delta * (1.0 + 1e-15)))
    return min(max(k, 0), n - 1)
