"""Certification of models and solver outputs.

Checks the standing drift/growth assumptions of a model against its
Lyapunov data, the value-field sandwich bounds, saddle quality via
best-response exploitability, cross-solver agreement on a refined grid, and
the factorial contraction estimate of the fixed-point operator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import GameModel, GridFlowStates, ModelValidationError
from .shapley import (
    FMT,
    SolverConfig,
    StrategyField,
    TimeGrid,
    ValueField,
    _FlowLags,
    backward_solve,
    best_response_solve,
    gamma_apply,
    picard_solve,
    policy_evaluate,
    to_risk_value,
)


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

    def to_json(self) -> str:
        doc = {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "location": c.location,
                    "margin": float(FMT % c.margin),
                }
                for c in self.checks
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _flow_durations(model: GameModel, n_samples: int = 64) -> np.ndarray:
    """Durations at which flow images are sampled for assumption checks."""
    if isinstance(model.states, GridFlowStates):
        return np.linspace(0.0, model.horizon, n_samples + 1)
    return np.array([0.0])  # identity flow: one duration suffices


def _least(name: str, margin: np.ndarray, tol: float, where) -> CheckResult:
    """The check passing when every margin is >= -tol, located at the first
    smallest margin in C order; ``where`` formats that entry's index."""
    i = np.unravel_index(np.argmin(margin), margin.shape)
    worst = float(margin[i])
    return CheckResult(name, bool(worst >= -tol), where(*i), worst)


def _math(f, values: np.ndarray) -> np.ndarray:
    """``f`` from the math module applied entrywise (np.exp and np.log may
    differ from it in the last bit)."""
    return np.array([f(v) for v in values.ravel().tolist()]).reshape(values.shape)


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

    cost_growth = _math(math.exp, 2.0 * (T + 1.0) * np.abs(model.costs).max(axis=(2, 3)))
    terminal_growth = _math(math.exp, 2.0 * (T + 1.0) * np.abs(model.terminal))
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

    knots = grid.knots().tolist()
    L2 = np.array([ly.M2 * math.exp(ly.rho1 * (T - t)) * (1.0 + ly.b1 / ly.rho1) for t in knots])[:, None]
    vflow = ly.V[np.stack([model.states.flow_map(T - t) for t in knots])]  # (N+1, S)
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
    the computed saddle shrinks first-order in the coarse step.  ``config``
    is not read: the grid comes from the strategies and ``refine``.
    """
    fine = TimeGrid(strategies.grid.n_steps * refine, strategies.grid.horizon)
    fine_cfg = SolverConfig(n_steps=fine.n_steps)
    pair = policy_evaluate(model, strategies.resample(fine))
    sup_side = best_response_solve(model, strategies, "maximize", fine_cfg)
    inf_side = best_response_solve(model, strategies, "minimize", fine_cfg)
    risk_pair = to_risk_value(pair, model.lam)[0]
    risk_sup = to_risk_value(sup_side, model.lam)[0]
    risk_inf = to_risk_value(inf_side, model.lam)[0]
    gap = max(float(np.max(risk_sup - risk_pair)), float(np.max(risk_pair - risk_inf)), 0.0)
    return gap


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
        doc = {
            "n_coarse": self.n_coarse,
            "refine_factor": self.refine_factor,
            "max_dev_backward": float(FMT % self.max_dev_backward),
            "max_dev_picard": float(FMT % self.max_dev_picard),
            "probe_values": [
                {
                    "t": float(FMT % t),
                    "state": x,
                    "coarse": float(FMT % c),
                    "fine_backward": float(FMT % fb),
                    "fine_picard": float(FMT % fp),
                }
                for t, x, c, fb, fp in self.probe_values
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def oracle_fine_grid(
    model: GameModel,
    refine_factor: int,
    config: SolverConfig,
    probes=None,
) -> OracleReport:
    """Independent discretisation oracle: re-solve on a refine_factor-times
    finer grid with both solvers and report the worst coarse-vs-fine
    deviation at shared knots."""
    if refine_factor < 2:
        raise ValueError("refine_factor must be >= 2")
    coarse, _ = backward_solve(model, config)
    fine_cfg = replace(config, n_steps=config.n_steps * refine_factor)
    fine_b, _ = backward_solve(model, fine_cfg)
    fine_p = picard_solve(model, fine_cfg)

    sub = slice(0, None, refine_factor)
    dev_b = float(np.abs(coarse.phi - fine_b.phi[sub]).max())
    dev_p = float(np.abs(coarse.phi - fine_p.phi[sub]).max())

    rows = []
    if probes:
        for t, x in probes:
            k = min(round(t / coarse.grid.delta), config.n_steps)
            kf = k * refine_factor
            rows.append(
                (
                    coarse.grid.knot(k),
                    int(x),
                    float(coarse.phi[k, x]),
                    float(fine_b.phi[kf, x]),
                    float(fine_p.phi[kf, x]),
                )
            )
    return OracleReport(config.n_steps, refine_factor, dev_b, dev_p, rows)


def contraction_check(
    model: GameModel,
    m: int,
    config: SolverConfig,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical m-sweep contraction of the fixed-point operator.

    Applies the operator m times to two random bounded fields and returns
    (sup-norm ratio, factorial bound ((2*||q|| + ||c||)*T)^m / m!).
    """
    grid = TimeGrid(config.n_steps, model.horizon)
    lags = _FlowLags(model, grid)
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
