"""Certification of models and solver outputs.

Checks the standing drift/growth assumptions of a model against its
Lyapunov data, the value-field sandwich bounds, saddle quality via
best-response exploitability, and cross-solver agreement on a refined grid.
The factorial contraction bound of the fixed-point operator is reported by
``picard_solve(collect_info=True)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .matrix_game import MatrixGameError
from .model import GameModel, GridFlowStates, ModelValidationError
from .shapley import (
    SolverConfig,
    SolverError,
    StrategyField,
    TimeGrid,
    ValueField,
    backward_solve,
    best_response_solve,
    evaluate_and_respond,
    json_text,
    picard_solve,
    policy_evaluate,
    probe_knot,
    report_numbers,
    to_risk_value,
)
# gamma_apply is not called here, but it is part of this module's namespace:
# pdmgbench/tracing.py wraps it under this name
from .shapley import gamma_apply  # noqa: F401


@dataclass
class CheckResult:
    name: str
    passed: bool
    location: str
    margin: float  # smallest slack observed; negative when failed


@dataclass
class VerificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def doc(self) -> dict:
        return {"passed": self.passed, "checks": [dict(vars(c)) for c in self.checks]}

    def to_json(self) -> str:
        return json_text(report_numbers(self.doc()))


def _flow_durations(model: GameModel) -> np.ndarray:
    """Durations at which flow images are sampled for assumption checks."""
    if isinstance(model.states, GridFlowStates):
        return np.linspace(0.0, model.horizon, 65)  # 64 equal intervals
    return np.array([0.0])  # identity flow: one duration suffices


def _least(name: str, margin: np.ndarray, tol: float, where) -> CheckResult:
    """The check passing when every margin is >= -tol, located at the first
    smallest margin in C order; ``where`` formats that entry's index."""
    i = np.unravel_index(np.argmin(margin), margin.shape)
    worst = float(margin[i])
    return CheckResult(name, bool(worst >= -tol), where(*i), worst)


def _exp(scale: float, values: np.ndarray) -> np.ndarray:
    """math.exp(scale*v) for every entry v of ``values`` (np.exp may differ
    from it in the last bit); a growth term past the float range, in the
    product or in its exponential, counts as +inf."""

    def exp(v: float) -> float:
        try:
            return math.exp(scale * v)  # a float product past the range is inf
        except OverflowError:
            return math.inf

    return np.array([exp(v) for v in values.ravel().tolist()]).reshape(values.shape)


# the rule of both checks: a product past the float range is +inf, as in _exp,
# and a margin that is then not a number (inf - inf) fails its check
@np.errstate(over="ignore", invalid="ignore")
def check_assumptions(model: GameModel) -> VerificationReport:
    """Exhaustive drift/growth checks over states, action pairs and segments.

    Verifies: the V drift inequality, the cost and terminal growth bounds
    e^{2(T+1)|c|} <= M2*V(flow(x, T-t)), the intensity bound q <= kappa*V,
    the V1^2 drift inequality, and V^2 <= M3*V1.
    """
    if model.lyapunov is None:
        raise ModelValidationError("check_assumptions requires lyapunov data")
    ly = model.lyapunov
    T = model.horizon
    durations = _flow_durations(model)
    flows = np.stack([model.states.flow_map(u) for u in durations])  # (durations, S)
    # the least V along the flow from each state over the remaining horizon
    v_ahead = ly.V[np.stack([model.states.flow_map(T - u) for u in durations])].min(axis=0)
    cells = model.cells[None, :, None]

    def drift_check(name: str, W: np.ndarray, rho: float, b: float) -> CheckResult:
        Wf = W[flows].T  # (S, durations)
        # lhs[s, x, i, a, b] = sum_y q(y|s,x,a,b) W(flow(y, u_i))
        lhs = np.moveaxis(model.rates @ Wf, -1, 2)
        rhs = rho * Wf + b
        margin = np.where(cells, rhs[None, :, :, None, None] - lhs, np.inf).min(axis=(3, 4))

        def where(s, x, i):
            admissible = np.where(model.cells[x], lhs[s, x, i], -np.inf)
            a, bb = np.unravel_index(np.argmax(admissible), admissible.shape)
            return f"seg {s}, state {x}, actions ({a},{bb}), flow-duration {durations[i]:.4g}"

        return _least(name, margin, 1e-12, where)

    cost_growth = _exp(2.0 * (T + 1.0), np.abs(model.costs).max(axis=(2, 3)))
    terminal_growth = _exp(2.0 * (T + 1.0), np.abs(model.terminal))
    return VerificationReport([
        drift_check("drift_V", ly.V, ly.rho1, ly.b1),
        drift_check("drift_V1_squared", ly.V1**2, ly.rho2, ly.b2),
        # e^{2(T+1)|c(t,x,a,b)|} <= M2 * V(flow(x, T-t)) for all t
        _least("cost_growth", ly.M2 * v_ahead - cost_growth, 1e-9, "seg {}, state {}".format),
        _least("terminal_growth", ly.M2 * ly.V - terminal_growth, 1e-9, "state {}".format),
        # q(s,x,a,b) <= kappa * V(flow(x, T-s))
        _least("intensity_bound", ly.kappa * v_ahead - model.q_totals.max(axis=(2, 3)), 1e-12,
               "seg {}, state {}".format),
        _least("V_squared_vs_V1", ly.M3 * ly.V1 - ly.V**2, 1e-12, "state {}".format),
    ])


@np.errstate(over="ignore", invalid="ignore")
def check_bounds(field: ValueField, model: GameModel) -> VerificationReport:
    """Pointwise sandwich e^{-lam*L2*V} <= phi <= L2*V with
    L2(t) = M2*exp(rho1*(T-t))*(1 + b1/rho1) and V along the flow."""
    if model.lyapunov is None:
        raise ModelValidationError("check_bounds requires lyapunov data")
    ly = model.lyapunov
    T = model.horizon
    grid = field.grid

    checks = []
    pos = float(field.phi.min())
    k, x = np.unravel_index(np.argmin(field.phi), field.phi.shape)
    checks.append(CheckResult("positivity", pos > 0.0, f"knot {k}, state {x}", pos))
    if pos <= 0.0:
        return VerificationReport(checks)

    knots = grid.knots()
    L2 = (ly.M2 * _exp(ly.rho1, T - knots) * (1.0 + ly.b1 / ly.rho1))[:, None]
    vflow = ly.V[np.stack([model.states.flow_map(T - t) for t in knots.tolist()])]  # (N+1, S)
    up = L2 * vflow - field.phi
    lo = field.phi - np.exp(-model.lam * L2 * vflow)
    checks.append(_least("upper_bound", up, 1e-12, "knot {}, state {}".format))
    checks.append(_least("lower_bound", lo, 1e-12, "knot {}, state {}".format))
    return VerificationReport(checks)


def exploitability(
    model: GameModel,
    strategies: StrategyField,
    config: SolverConfig,
    refine: int = 8,
) -> float:
    """One-sided best-response gap of a strategy pair, in risk-value units.

    Both best responses and the pair evaluation run on a grid refined by
    ``refine`` relative to the strategies, so the gap measures genuine
    strategy suboptimality rather than per-cell solver residue: the gap of
    the computed saddle shrinks first-order in the coarse step.  The three
    march as one sweep (:func:`evaluate_and_respond`), each bit for bit its
    own solve; if that sweep fails, the pair evaluation and the two best
    responses run one after another, so that the error, type and message,
    is the one the first failing solve raises.  ``config`` is not read: the
    grid comes from the strategies and ``refine``.
    """
    fine = TimeGrid(strategies.grid.n_steps * refine, strategies.grid.horizon)
    fine_cfg = SolverConfig(n_steps=fine.n_steps)
    try:
        fields = evaluate_and_respond(model, strategies, fine_cfg)
    except (SolverError, MatrixGameError):
        policy_evaluate(model, strategies.resample(fine))
        best_response_solve(model, strategies, "maximize", fine_cfg)
        best_response_solve(model, strategies, "minimize", fine_cfg)
        raise
    risk_pair, risk_sup, risk_inf = (to_risk_value(field, model.lam)[0] for field in fields)
    return max(float(np.max(risk_sup - risk_pair)), float(np.max(risk_pair - risk_inf)), 0.0)


@dataclass
class OracleReport:
    n_coarse: int
    refine_factor: int
    max_dev_backward: float
    max_dev_picard: float
    probe_values: list  # [(t, x, coarse, fine_backward, fine_picard)]

    @property
    def max_deviation(self) -> float:
        return max(self.max_dev_backward, self.max_dev_picard)

    def to_json(self) -> str:
        doc = dict(vars(self))
        keys = ("t", "state", "coarse", "fine_backward", "fine_picard")
        doc["probe_values"] = [dict(zip(keys, row)) for row in self.probe_values]
        return json_text(report_numbers(doc))


def oracle_fine_grid(
    model: GameModel,
    refine_factor: int,
    config: SolverConfig,
    probes=None,
) -> OracleReport:
    """Independent discretisation oracle: re-solve on a refine_factor-times
    finer grid with both solvers and report the worst coarse-vs-fine
    deviation at shared knots, and both grids' values at each probe (t, x)
    on the coarse knot nearest to t.  Raises ValueError for a probe off the
    horizon or the state space (:func:`pdmg.shapley.probe_knot`)."""
    if refine_factor < 2:
        raise ValueError("refine_factor must be >= 2")
    grid = TimeGrid(config.n_steps, model.horizon)
    at = [probe_knot(grid, model.n_states, t, x) for t, x in probes or ()]
    coarse, _ = backward_solve(model, config)
    fine_cfg = replace(config, n_steps=config.n_steps * refine_factor)
    fine_b, _ = backward_solve(model, fine_cfg)
    fine_p = picard_solve(model, fine_cfg)

    sub = slice(0, None, refine_factor)
    dev_b = float(np.abs(coarse.phi - fine_b.phi[sub]).max())
    dev_p = float(np.abs(coarse.phi - fine_p.phi[sub]).max())

    rows = [
        (
            grid.knot(k),
            int(x),
            float(coarse.phi[k, x]),
            float(fine_b.phi[k * refine_factor, x]),
            float(fine_p.phi[k * refine_factor, x]),
        )
        for k, x in at
    ]
    return OracleReport(config.n_steps, refine_factor, dev_b, dev_p, rows)

