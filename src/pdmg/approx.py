"""Approximation ladders: bounded truncations of unbounded-rate models.

Two constructions are provided.  For nonnegative costs, level n keeps the
dynamics on S_n = {x : V(x) <= n} (rates zeroed outside), caps the running
and terminal costs at min(n, ln(M2*V)/(2*(T+1))), and the solved values
increase monotonically to the untruncated value.  For signed costs, level n
clips costs and terminal below at -n; the clipped values decrease
monotonically, and shifting the clipped model up by n produces a
nonnegative model whose value equals the clipped one times the exact factor
exp(lambda*(T-s+1)*n).

A ladder's levels share states, action sets, time breaks and horizon, so
``ladder_run`` marches all of them, and the clipped and shifted pair of the
shift identity with them, in one batched backward sweep
(:func:`pdmg.shapley.backward_solve_batch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import GameModel, ModelValidationError
from .shapley import SolverConfig, TimeGrid, ValueField, backward_solve_batch, json_text, probe_knot, report_numbers
# backward_solve is not called here, but it is part of this module's
# namespace: pdmgbench/tracing.py wraps it under this name
from .shapley import backward_solve  # noqa: F401


@dataclass
class LadderReport:
    n_values: list
    probes: list  # [(t, x)]
    phi_at_probe: list  # per level: list of phi values aligned with probes
    direction: str  # "nondecreasing" (nonnegative ladder) or "nonincreasing"
    monotone_ok: bool
    converged_gap: float  # max |phi_n - phi_{n_max}| over probes at the two largest levels
    violations: list
    # worst relative error of the shift identity at t = 0 when the ladder
    # ran with a shift level (not part of ladder.json: the manifest has it)
    shift_rel_err: Optional[float] = None

    def to_json(self) -> str:
        doc = dict(vars(self))
        del doc["shift_rel_err"]
        return json_text(report_numbers(doc))


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


def truncate_clipped(model: GameModel, n: float) -> GameModel:
    """Level-n clip for signed costs: costs max(-n, c), terminal max(-n, g)."""
    return _rebuild(model, model.rates, np.maximum(model.costs, -float(n)), np.maximum(model.terminal, -float(n)))


def truncate_general(model: GameModel, n: float) -> tuple[GameModel, GameModel]:
    """Level-n clip for signed costs: (clipped, shifted).

    clipped: :func:`truncate_clipped`.
    shifted: clipped costs + n and terminal + n (both nonnegative).
    """
    clipped = truncate_clipped(model, n)
    return clipped, _rebuild(model, model.rates, clipped.costs + float(n), clipped.terminal + float(n))


def shift_factor(lam: float, horizon: float, s: float, n: float) -> float:
    """Exact multiplicative factor exp(lambda*(T - s + 1)*n) of the shift."""
    return math.exp(lam * (horizon - s + 1.0) * n)


def _shift_error(model: GameModel, n: float, s: float, clipped: ValueField, shifted: ValueField) -> float:
    """Worst relative error of phi(shifted) = phi(clipped)*factor over the
    states, at the grid knot nearest to s (ValueError unless 0 <= s <= T)."""
    grid = clipped.grid
    k, _ = probe_knot(grid, model.n_states, s, 0)
    fac = shift_factor(model.lam, model.horizon, grid.knot(k), n)
    rel = np.abs(shifted.phi[k] / (clipped.phi[k] * fac) - 1.0)
    return float(rel.max())


def shift_identity_check(model: GameModel, n: float, s: float, config: SolverConfig) -> float:
    """Worst relative error of J(shifted) = J(clipped)*factor on a shared grid.

    Checked per state at the grid knot nearest to s; the clipped and the
    shifted model are solved as one batch of two with the same
    configuration.
    """
    (clipped, _), (shifted, _) = backward_solve_batch(truncate_general(model, n), config)
    return _shift_error(model, n, s, clipped, shifted)


def _is_nonneg(model: GameModel) -> bool:
    return not (np.any(model.terminal < 0.0) or np.any(model.costs < 0.0))


def ladder_run(model: GameModel, n_list, probes, config: SolverConfig, shift_n=None) -> LadderReport:
    """Solve the truncation ladder at each level and check monotonicity.

    Nonnegative-cost models (with Lyapunov data) use the bounded ladder and
    expect phi nondecreasing in n; otherwise the signed-cost clip ladder is
    used and phi is expected nonincreasing.  Monotonicity is checked at
    every grid point (slack 1e-10).  All levels are solved as one batch
    (:func:`pdmg.shapley.backward_solve_batch`), each bit for bit as alone.
    With ``shift_n`` the same batch also solves the clipped and shifted
    pair of :func:`truncate_general` at that level, and the report's
    ``shift_rel_err`` is the shift identity's worst relative error at t = 0.

    Raises ValueError, naming the argument, for an empty ``n_list``, a
    level that is not finite, levels that do not increase strictly, an
    empty ``probes``, a probe off the grid or the state space, and a
    ``shift_n`` that is not finite.
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must hold at least one level")
    for n in n_list:
        if not math.isfinite(n):
            raise ValueError(f"n_list: level {n} is not finite")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    probes = list(probes)
    if not probes:
        raise ValueError("probes must hold at least one (t, x) probe")
    grid = TimeGrid(config.n_steps, model.horizon)
    at = [probe_knot(grid, model.n_states, t, x) for t, x in probes]
    if shift_n is not None and not math.isfinite(shift_n):
        raise ValueError(f"shift_n {shift_n} is not finite")

    nonneg = _is_nonneg(model) and model.lyapunov is not None
    direction = "nondecreasing" if nonneg else "nonincreasing"

    levels = [truncate_nonneg(model, n) if nonneg else truncate_clipped(model, n) for n in n_list]
    pair = [] if shift_n is None else list(truncate_general(model, shift_n))
    fields = [field for field, _ in backward_solve_batch(levels + pair, config)]
    shift_rel_err = None if shift_n is None else _shift_error(model, shift_n, 0.0, *fields[len(levels):])
    fields = fields[: len(levels)]

    phi_at_probe = [[float(field.phi[k, x]) for k, x in at] for field in fields]

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
                    "violation": -worst,
                }
            )

    gap = float(np.max(np.abs(np.array(phi_at_probe[-1]) - np.array(phi_at_probe[-2])))) if len(
        fields
    ) > 1 else 0.0
    return LadderReport(
        n_values=n_list,
        probes=probes,
        phi_at_probe=phi_at_probe,
        direction=direction,
        monotone_ok=not violations,
        converged_gap=gap,
        violations=violations,
        shift_rel_err=shift_rel_err,
    )
