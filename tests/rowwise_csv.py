"""Row-by-row solution CSV export, kept as a reference.

This is ``pdmg.shapley.export_solution_csv`` as it was before it formatted
blocks of rows.  ``test_solution_csv.py`` checks that the block version
writes the same bytes; the import's reference is ``block_csv``.
"""

from __future__ import annotations

import io
import math
import sys

from pdmg.model import GameModel
from pdmg.shapley import FMT, SolverError, StrategyField, ValueField


def export_solution_csv(model: GameModel, field: ValueField, strategies: StrategyField) -> str:
    """Combined CSV: t, state, phi, risk_value, mu_0.., nu_0..

    12 significant digits; strategies are piecewise constant on
    [t_k, t_{k+1}) and the final row repeats the last slice.
    """
    wa, wb = model.widths
    grid = field.grid
    n, N = model.n_states, grid.n_steps
    # subnormal values are refused too
    if not all(math.isfinite(v) and v >= sys.float_info.min for v in field.phi.ravel().tolist()):
        raise SolverError("cannot export a field with nonpositive or non-finite phi")
    cols = ["t", "state", "phi", "risk_value"]
    cols += [f"mu_{i}" for i in range(wa)] + [f"nu_{i}" for i in range(wb)]
    counts = [(len(a), len(b)) for a, b in zip(model.actions_p1, model.actions_p2)]
    mus, nus = strategies.mu.tolist(), strategies.nu.tolist()
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    for k in range(N + 1):
        ks = min(k, N - 1)
        t = FMT % grid.knot(k)
        for x in range(n):
            # risk value derived from the printed (quantized) phi so that
            # export -> import -> export is byte-identical
            phi_q = float(FMT % field.phi[k, x])
            row = [t, str(x), FMT % phi_q, FMT % (math.log(phi_q) / model.lam)]
            ma, mb = counts[x]
            row += [FMT % v for v in mus[ks][x][:ma]] + [""] * (wa - ma)
            row += [FMT % v for v in nus[ks][x][:mb]] + [""] * (wb - mb)
            buf.write(",".join(row) + "\n")
    return buf.getvalue()

