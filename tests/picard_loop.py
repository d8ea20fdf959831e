"""The Picard operator as a per-knot loop, kept as a reference.

``gamma_apply`` is the body ``pdmg.shapley.gamma_apply`` had before the
operator read its tables once per grid and summed its quadrature on a
finite state space with one reversed cumsum: every application rebuilds
the knot segments, the terminal slices along the flow and the masks of the
bracket games, and accumulates the suffix knot by knot through each step
map, the identity included.  ``FlowLags`` builds those lookups as they were
built then, one cached map per displacement, here from the scalar boundary
rule of ``perstate.apply_boundary``.  ``picard_solve`` and
``saddle_from_field`` are the loops of that time around it; ``picard_solve``
stops on the package's rule, each knot's change relative to its scale,
written knot by knot with ``math.frexp``.  The loop and
the lookups are copies, so no reference runs the code it checks.
``test_picard_tables.py`` checks the operator against these.
``contraction_check`` is the empirical m-sweep contraction of the operator
against its factorial bound, which ``test_verify.py`` and
``test_acceptance.py`` check on the demos: it runs this ``gamma_apply``,
which ``test_picard_tables.py`` ties bit for bit to the package's.
"""

from __future__ import annotations

import math

import numpy as np

from perstate import apply_boundary
from pdmg import shapley
from pdmg.model import GameModel, GridFlowStates
from pdmg.shapley import (
    PicardConvergenceError,
    SolverConfig,
    SolverError,
    StrategyField,
    TimeGrid,
    ValueField,
    _cell_entries,
    knot_segments,
    solve_game,
    solve_stack,
    terminal_field,
)


class FlowLags:
    """Rounded flow lookups anchored at the terminal time: the cell
    displacement over a lag of l steps is round(drift*l*Delta/width), and a
    step's lookup is the increment of that displacement."""

    def __init__(self, model: GameModel, grid: TimeGrid):
        self.model = model
        self.grid = grid
        self.identity = np.arange(model.n_states)
        self.flows = isinstance(model.states, GridFlowStates)
        if self.flows:
            sp = model.states
            lags = np.arange(grid.n_steps + 1)
            self.disp = np.stack(
                [np.floor(m.drift * lags * grid.delta / sp.cell_width + 0.5).astype(int) for m in sp.modes]
            )
        else:
            self.disp = None
        self.maps = {}

    def shifted(self, disp: np.ndarray) -> np.ndarray:
        key = tuple(disp.tolist())
        if key not in self.maps:
            sp = self.model.states
            self.maps[key] = np.array(
                [mode * sp.cells + apply_boundary(sp, cell + shift)
                 for mode, shift in enumerate(key) for cell in range(sp.cells)]
            )
        return self.maps[key]

    def lag_table(self) -> np.ndarray:
        n = self.grid.n_steps
        if self.disp is None:
            return np.tile(self.identity, (n + 1, 1))
        return np.stack([self.shifted(self.disp[:, n - k]) for k in range(n + 1)])

    def step_map(self, k: int) -> np.ndarray:
        if self.disp is None:
            return self.identity
        n = self.grid.n_steps
        return self.shifted(self.disp[:, n - k] - self.disp[:, n - k - 1])


def bracket_entries(model: GameModel, u: np.ndarray, knot_seg: np.ndarray) -> np.ndarray:
    """Cell games lambda*c*u(x) + sum_y q(y|x,a,b)*u(y) at every row of u: (K, S, A, B)."""
    S = model.n_states
    E = np.empty(u.shape + model.widths)
    for seg in range(model.n_segments):
        rows = knot_seg == seg
        D, J = model.lam * model.costs[seg].reshape(S, -1), model.rates[seg].reshape(-1, S)
        E[rows] = _cell_entries(D, J.T, u[rows]).reshape((-1, S) + model.widths)
    return E


def gamma_apply(model: GameModel, u: np.ndarray, grid: TimeGrid, lags: FlowLags | None = None) -> np.ndarray:
    n, N = model.n_states, grid.n_steps
    d = grid.delta
    if lags is None:
        lags = FlowLags(model, grid)
    E = bracket_entries(model, u, knot_segments(model, grid))
    w = solve_stack(E, model.cells, fallback=solve_game)[0]
    out = terminal_field(model)[lags.lag_table()]
    suffix = np.zeros(n)
    for k in range(N - 1, -1, -1):
        suffix = (d * w[k + 1] + suffix)[lags.step_map(k)]
        out[k] += suffix
    return out


def picard_solve(model: GameModel, config: SolverConfig, collect_info: bool = False):
    grid = TimeGrid(config.n_steps, model.horizon)
    lags = FlowLags(model, grid)
    u = terminal_field(model)[lags.lag_table()]
    rate = 2.0 * model.q_star_max() + model.max_abs_cost()
    residuals = []
    for sweep in range(shapley.MAX_PICARD_SWEEPS):
        nxt = gamma_apply(model, u, grid, lags)
        scale = [min(1.0, math.ldexp(1.0, math.frexp(float(np.abs(row).max()))[1] - 1)) for row in u]
        res = float(np.max([np.abs(nxt[k] - u[k]).max() / scale[k] for k in range(len(u))]))
        if not math.isfinite(res):
            raise SolverError(f"Picard sweep {sweep + 1} has residual {res}; rescale the model")
        residuals.append(res)
        u = nxt
        if res <= config.tol:
            break
    else:
        raise PicardConvergenceError(
            f"Picard iteration did not reach tol {config.tol:g} in "
            f"{shapley.MAX_PICARD_SWEEPS} sweeps (last residual {residuals[-1]:.3e})",
            residuals[-1],
        )
    field = ValueField(grid, u)
    if not collect_info:
        return field
    r0 = residuals[0] if residuals else 0.0
    ratios, bounds = [], []
    for l, r in enumerate(residuals):
        if l == 0 or r0 == 0.0:
            continue
        ratios.append(r / r0)
        bounds.append((rate * model.horizon) ** l / math.factorial(l))
    return field, {"residuals": residuals, "contraction_ratios": ratios, "contraction_bounds": bounds}


def contraction_check(model: GameModel, m: int, config: SolverConfig, seed: int = 0) -> tuple[float, float]:
    """(sup-norm ratio after m applications of the operator to two random
    bounded fields, factorial bound ((2*||q|| + ||c||)*T)^m / m!)."""
    grid = TimeGrid(config.n_steps, model.horizon)
    lags = FlowLags(model, grid)
    rng = np.random.default_rng(seed)
    shape = (grid.n_steps + 1, model.n_states)
    g1 = rng.uniform(0.5, 2.0, size=shape)
    g2 = rng.uniform(0.5, 2.0, size=shape)
    denom = float(np.abs(g1 - g2).max())
    for _ in range(m):
        g1 = gamma_apply(model, g1, grid, lags)
        g2 = gamma_apply(model, g2, grid, lags)
    num = float(np.abs(g1 - g2).max())
    ratio = num / denom if denom > 0.0 else 0.0
    rate = 2.0 * model.q_star_max() + model.max_abs_cost()
    bound = (rate * model.horizon) ** m / math.factorial(m)
    return ratio, bound


def saddle_from_field(model: GameModel, field: ValueField) -> StrategyField:
    """The saddle mixtures of a field's bracket games (models with a choice)."""
    grid = field.grid
    N = grid.n_steps
    E = bracket_entries(model, field.phi[:N], knot_segments(model, grid)[:N])
    return StrategyField(grid, *solve_stack(E, model.cells, fallback=solve_game)[1:])
