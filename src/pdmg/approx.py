"""Approximation ladders: bounded truncations of unbounded-rate models.

Two constructions are provided.  For nonnegative costs, level n keeps the
dynamics on S_n = {x : V(x) <= n} (rates zeroed outside), caps the running
and terminal costs at min(n, ln(M2*V)/(2*(T+1))), and the solved values
increase monotonically to the untruncated value.  For signed costs, level n
clips costs and terminal below at -n; the clipped values decrease
monotonically, and shifting the clipped model up by n produces a
nonnegative model whose value equals the clipped one times the exact factor
exp(lambda*(T-s+1)*n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import GameModel, ModelValidationError
from .shapley import FMT, SolverConfig, backward_solve


@dataclass
class LadderReport:
    n_values: list
    probes: list  # [(t, x)]
    phi_at_probe: list  # per level: list of phi values aligned with probes
    direction: str  # "nondecreasing" (nonnegative ladder) or "nonincreasing"
    monotone_ok: bool
    converged_gap: float  # max |phi_n - phi_{n_max}| over probes at the two largest levels
    violations: list

    def to_json(self) -> str:
        doc = {
            "n_values": self.n_values,
            "probes": [[_f(t), x] for t, x in self.probes],
            "phi_at_probe": [[_f(v) for v in row] for row in self.phi_at_probe],
            "direction": self.direction,
            "monotone_ok": self.monotone_ok,
            "converged_gap": _f(self.converged_gap),
            "violations": self.violations,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _f(v: float) -> float:
    return float(FMT % v)


def _rebuild(model: GameModel, rates, costs, terminal) -> GameModel:
    """``model`` with its dense tables and terminal cost replaced."""
    return GameModel(model.states, model.actions_p1, model.actions_p2, model.time_breaks, rates, costs, terminal,
                     model.lam, model.horizon, model.lyapunov)


def truncate_nonneg(model: GameModel, n: float) -> GameModel:
    """Level-n bounded model for nonnegative costs (requires Lyapunov data).

    Outside S_n = {V <= n} the rate row and costs are zeroed; inside, the
    running cost is min(c, n, ln(M2*V(flow(x, T-t)))/(2*(T+1))) and the
    terminal cost is capped the same way.  The cap is evaluated at each
    segment's start time (exact for identity flows).
    """
    if model.lyapunov is None:
        raise ModelValidationError("nonnegative truncation requires lyapunov data")
    negative = np.argwhere(model.costs < 0.0)
    if negative.size:
        s, x = negative[0][:2]
        raise ModelValidationError(f"nonnegative truncation: negative cost at state {x} (segment {s})")
    if np.any(model.terminal < 0.0):
        raise ModelValidationError("nonnegative truncation: negative terminal cost")
    lyap, T = model.lyapunov, model.horizon

    def caps(V: np.ndarray) -> np.ndarray:
        # math.log per state: np.log may differ in the last bit
        return np.minimum(float(n), [math.log(lyap.M2 * v) / (2.0 * (T + 1.0)) for v in V])

    inside = lyap.V <= n
    level = np.array([caps(lyap.V[model.states.flow_map(T - t)]) for t in model.time_breaks])
    costs = np.minimum(model.costs, level[:, :, None, None])
    return _rebuild(
        model,
        np.where(inside[:, None, None, None], model.rates, 0.0),
        np.where(inside[:, None, None], costs, 0.0),
        np.where(inside, np.minimum(model.terminal, caps(lyap.V)), 0.0),
    )


def truncate_general(model: GameModel, n: float) -> tuple[GameModel, GameModel]:
    """Level-n clip for signed costs: (clipped, shifted).

    clipped: costs max(-n, c), terminal max(-n, g).
    shifted: clipped costs + n and terminal + n (both nonnegative).
    """
    costs = np.maximum(model.costs, -float(n))
    term = np.maximum(model.terminal, -float(n))
    clipped = _rebuild(model, model.rates, costs, term)
    shifted = _rebuild(model, model.rates, costs + float(n), term + float(n))
    return clipped, shifted


def shift_factor(lam: float, horizon: float, s: float, n: float) -> float:
    """Exact multiplicative factor exp(lambda*(T - s + 1)*n) of the shift."""
    return math.exp(lam * (horizon - s + 1.0) * n)


def shift_identity_check(model: GameModel, n: float, s: float, config: SolverConfig) -> float:
    """Worst relative error of J(shifted) = J(clipped)*factor on a shared grid.

    Checked per state at the grid knot nearest to s; both sides are solved
    independently with the same configuration.
    """
    clipped, shifted = truncate_general(model, n)
    fc, _ = backward_solve(clipped, config)
    fs, _ = backward_solve(shifted, config)
    k = min(round(s / fc.grid.delta), config.n_steps)
    t_k = fc.grid.knot(k)
    fac = shift_factor(model.lam, model.horizon, t_k, n)
    rel = np.abs(fs.phi[k] / (fc.phi[k] * fac) - 1.0)
    return float(rel.max())


def _is_nonneg(model: GameModel) -> bool:
    return not (np.any(model.terminal < 0.0) or np.any(model.costs < 0.0))


def ladder_run(model: GameModel, n_list, probes, config: SolverConfig) -> LadderReport:
    """Solve the truncation ladder at each level and check monotonicity.

    Nonnegative-cost models (with Lyapunov data) use the bounded ladder and
    expect phi nondecreasing in n; otherwise the signed-cost clip ladder is
    used and phi is expected nonincreasing.  Monotonicity is checked at
    every grid point (slack 1e-10); levels are solved independently.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    for t, x in probes:
        if not (0.0 <= t <= model.horizon) or not (0 <= x < model.n_states):
            raise ValueError(f"invalid probe ({t}, {x})")

    nonneg = _is_nonneg(model) and model.lyapunov is not None
    direction = "nondecreasing" if nonneg else "nonincreasing"

    fields = []
    for n in n_list:
        level = truncate_nonneg(model, n) if nonneg else truncate_general(model, n)[0]
        field, _ = backward_solve(level, config)
        fields.append(field)

    grid = fields[0].grid
    phi_at_probe = []
    for field in fields:
        row = []
        for t, x in probes:
            k = min(round(t / grid.delta), grid.n_steps)
            row.append(float(field.phi[k, x]))
        phi_at_probe.append(row)

    slack = 1e-10
    violations = []
    for i in range(len(fields) - 1):
        diff = fields[i + 1].phi - fields[i].phi
        worst = float(diff.min()) if nonneg else float(-diff.max())
        if worst < -slack:
            k, x = (
                np.unravel_index(np.argmin(diff), diff.shape)
                if nonneg
                else np.unravel_index(np.argmax(diff), diff.shape)
            )
            violations.append(
                {
                    "levels": [n_list[i], n_list[i + 1]],
                    "knot": int(k),
                    "state": int(x),
                    "violation": _f(-worst),
                }
            )

    gap = float(np.max(np.abs(np.array(phi_at_probe[-1]) - np.array(phi_at_probe[-2])))) if len(
        fields
    ) > 1 else 0.0
    return LadderReport(
        n_values=n_list,
        probes=list(probes),
        phi_at_probe=phi_at_probe,
        direction=direction,
        monotone_ok=not violations,
        converged_gap=gap,
        violations=violations,
    )
