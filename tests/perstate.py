"""Per-state forms of the model tables, the flow, the truncations and the
assumption checks, kept as references.

These are the loops ``pdmg`` ran one state at a time before the dense
tables became its only table format: the constructor's per-state
completion of the rate diagonal, the scalar flow of one state (split into
(mode, cell), shift by drift*dt/cell_width, round halves up, apply the
boundary policy), ``truncate_nonneg`` and ``check_assumptions`` /
``check_bounds`` over unpadded per-state views.  ``test_model.py`` and
``test_verify.py`` check the dense code against them.
"""

from __future__ import annotations

import math

import numpy as np

from pdmg.model import FiniteStates, GameModel, GridFlowStates
from pdmg.verify import CheckResult, VerificationReport, _flow_durations


def apply_boundary(sp: GridFlowStates, cell: int) -> int:
    """Clamp a raw cell index into the grid, or reflect it with period 2n-2."""
    if sp.boundary == "reflect":
        p = 2 * sp.cells - 2
        i = cell % p
        return i if i < sp.cells else p - i
    return min(max(cell, 0), sp.cells - 1)


def flow(sp: FiniteStates | GridFlowStates, x: int, dt: float) -> int:
    """The state x flows to in time dt."""
    if isinstance(sp, FiniteStates):
        return x
    mode, cell = divmod(x, sp.cells)
    raw = cell + sp.modes[mode].drift * dt / sp.cell_width
    return mode * sp.cells + apply_boundary(sp, int(math.floor(raw + 0.5)))


def view(table: np.ndarray, model: GameModel, seg: int, x: int) -> np.ndarray:
    """The unpadded (|A(x)|, |B(x)|, ...) block of state x in a dense table."""
    return table[seg, x, : len(model.actions_p1[x]), : len(model.actions_p2[x])]


def tables(model: GameModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense rates, costs and q_totals rebuilt state by state from the
    model's off-diagonal rates and costs."""
    n = model.n_states
    shape = (model.n_segments, n) + model.widths
    rates, costs, q_totals = np.zeros(shape + (n,)), np.zeros(shape), np.zeros(shape)
    for seg in range(model.n_segments):
        for x in range(n):
            r = np.array(view(model.rates, model, seg, x))
            qtot = np.delete(r, x, axis=2).sum(axis=2)
            r[:, :, x] = -qtot  # conservativity fixes the diagonal
            view(rates, model, seg, x)[...] = r
            view(costs, model, seg, x)[...] = view(model.costs, model, seg, x)
            view(q_totals, model, seg, x)[...] = qtot
    return rates, costs, q_totals


def truncate_nonneg(model: GameModel, n: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rates, costs and terminal cost of the level-n bounded model."""
    lyap, T = model.lyapunov, model.horizon
    rates, costs = np.array(model.rates), np.array(model.costs)
    for s in range(model.n_segments):
        for x in range(model.n_states):
            if lyap.V[x] > n:
                rates[s, x] = 0.0
                costs[s, x] = 0.0
            else:
                cap = math.log(lyap.M2 * lyap.V[flow(model.states, x, T - model.time_breaks[s])]) / (2.0 * (T + 1.0))
                costs[s, x] = np.minimum(costs[s, x], min(float(n), cap))
    terminal = model.terminal.copy()
    for x in range(model.n_states):
        if lyap.V[x] > n:
            terminal[x] = 0.0
        else:
            cap = math.log(lyap.M2 * lyap.V[x]) / (2.0 * (T + 1.0))
            terminal[x] = min(terminal[x], float(n), cap)
    return rates, costs, terminal


def check_assumptions(model: GameModel) -> VerificationReport:
    """``pdmg.verify.check_assumptions``, one state, segment and duration at a time."""
    ly = model.lyapunov
    T = model.horizon
    durations = _flow_durations(model)
    n = model.n_states
    flows = np.array([[flow(model.states, x, u) for x in range(n)] for u in durations])

    def drift_check(name, W, rho, b):
        worst, where = math.inf, ""
        for s in range(model.n_segments):
            for x in range(n):
                R = view(model.rates, model, s, x)
                for i, u in enumerate(durations):
                    lhs = np.einsum("abs,s->ab", R, W[flows[i]])
                    margin = float((rho * W[flows[i, x]] + b - lhs).min())
                    if margin < worst:
                        worst = margin
                        a, bb = np.unravel_index(np.argmax(lhs), lhs.shape)
                        where = f"seg {s}, state {x}, actions ({int(a)},{int(bb)}), flow-duration {u:.4g}"
        return CheckResult(name, worst >= -1e-12, where, worst)

    def per_segment(name, lhs_of, factor, tol):
        worst, where = math.inf, ""
        for s in range(model.n_segments):
            for x in range(n):
                rhs = factor * min(float(ly.V[flow(model.states, x, T - u)]) for u in durations)
                if rhs - lhs_of(s, x) < worst:
                    worst, where = rhs - lhs_of(s, x), f"seg {s}, state {x}"
        return CheckResult(name, worst >= -tol, where, worst)

    terminal = [ly.M2 * float(ly.V[x]) - math.exp(2.0 * (T + 1.0) * abs(float(model.terminal[x])))
                for x in range(n)]
    squares = ly.M3 * ly.V1 - ly.V**2
    return VerificationReport([
        drift_check("drift_V", ly.V, ly.rho1, ly.b1),
        drift_check("drift_V1_squared", ly.V1**2, ly.rho2, ly.b2),
        per_segment("cost_growth",
                    lambda s, x: math.exp(2.0 * (T + 1.0) * float(np.abs(view(model.costs, model, s, x)).max())),
                    ly.M2, 1e-9),
        CheckResult("terminal_growth", min(terminal) >= -1e-9, f"state {int(np.argmin(terminal))}", min(terminal)),
        per_segment("intensity_bound", lambda s, x: float(view(model.q_totals, model, s, x).max()), ly.kappa, 1e-12),
        CheckResult("V_squared_vs_V1", float(squares.min()) >= -1e-12, f"state {int(np.argmin(squares))}",
                    float(squares.min())),
    ])


def check_bounds(field, model: GameModel) -> list:
    """(name, passed, location, margin) of the upper and lower sandwich
    bounds of ``pdmg.verify.check_bounds``, one knot at a time."""
    ly, T, grid = model.lyapunov, model.horizon, field.grid
    out = []
    for name in ("upper_bound", "lower_bound"):
        worst, where = math.inf, ""
        for k in range(grid.n_steps + 1):
            t = grid.knot(k)
            L2 = ly.M2 * math.exp(ly.rho1 * (T - t)) * (1.0 + ly.b1 / ly.rho1)
            vflow = np.array([ly.V[flow(model.states, x, T - t)] for x in range(model.n_states)])
            gap = L2 * vflow - field.phi[k] if name == "upper_bound" else field.phi[k] - np.exp(-model.lam * L2 * vflow)
            if float(gap.min()) < worst:
                worst, where = float(gap.min()), f"knot {k}, state {int(np.argmin(gap))}"
        out.append((name, worst >= -1e-12, where, worst))
    return out
