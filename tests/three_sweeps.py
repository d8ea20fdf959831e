"""Exploitability as three sweeps, kept as a reference.

``exploitability`` is the body ``pdmg.verify.exploitability`` had before the
pair evaluation and both best responses marched as one sweep: the pair
evaluation, then player 1's best response, then player 2's, each a sweep of
its own that builds its own step tables.  ``best_response_solve`` is the
one-sided solve as it was then: each side folds its entries over an
additive pad, -inf for player 1's max and +inf for player 2's min.
``pdmg.shapley`` now masks the padded actions out of the reduction, and
its one sweep marches player 2 on -phi, with padded actions priced at
-inf, and takes a max.  ``test_exploitability_batch.py`` checks the
batched fields, the gap and the errors against these.
"""

from __future__ import annotations

import numpy as np

from pdmg.shapley import (
    SolverConfig,
    StrategyField,
    TimeGrid,
    ValueField,
    _Reducer,
    _sweep,
    check_cfl,
    policy_evaluate,
    to_risk_value,
)


class BestResponse(_Reducer):
    """One player held to its half of ``fixed``, the other free: a max over
    a -inf pad for player 1, a min over a +inf pad for player 2."""

    def __init__(self, model, fixed: StrategyField, slices: np.ndarray, side: str):
        if side == "maximize":
            super().__init__(model, slices, nu=fixed.nu)
            self.pad = np.where(model.cells[:, :, 0], 0.0, -np.inf)
            self.reduce = np.maximum.reduce
        else:
            super().__init__(model, slices, mu=fixed.mu)
            self.pad = np.where(model.cells[:, 0, :], 0.0, np.inf)
            self.reduce = np.minimum.reduce

    def fold(self, k: int, entries: np.ndarray) -> np.ndarray:
        return self.reduce(entries + self.pad, axis=1)


def best_response_solve(model, fixed: StrategyField, side: str, config: SolverConfig) -> ValueField:
    grid = TimeGrid(config.n_steps, model.horizon)
    check_cfl(model, grid)
    slices = fixed.slices_at(grid)
    if model.widths[0 if side == "maximize" else 1] == 1:
        return _sweep([model], grid, _Reducer(model, slices, fixed.mu, fixed.nu))[0]
    return _sweep([model], grid, BestResponse(model, fixed, slices, side))[0]


def exploitability(model, strategies: StrategyField, refine: int):
    """(gap, pair field, player 1's best response, player 2's best response)."""
    fine = TimeGrid(strategies.grid.n_steps * refine, strategies.grid.horizon)
    fine_cfg = SolverConfig(n_steps=fine.n_steps)
    pair = policy_evaluate(model, strategies.resample(fine))
    sup_side = best_response_solve(model, strategies, "maximize", fine_cfg)
    inf_side = best_response_solve(model, strategies, "minimize", fine_cfg)
    risk_pair = to_risk_value(pair, model.lam)[0]
    risk_sup = to_risk_value(sup_side, model.lam)[0]
    risk_inf = to_risk_value(inf_side, model.lam)[0]
    gap = max(float(np.max(risk_sup - risk_pair)), float(np.max(risk_pair - risk_inf)), 0.0)
    return gap, pair, sup_side, inf_side
