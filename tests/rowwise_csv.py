"""Row-by-row solution CSV export and import, kept as a reference.

These are ``pdmg.shapley``'s CSV functions as they were before they worked
on blocks of rows.  ``test_solution_csv.py`` checks that the block versions
write the same bytes and read the same arrays.  The import here does not
check the header beyond its first four names, the t column, the final
knot's mixture fields or the padded fields.
"""

from __future__ import annotations

import io
import math

import numpy as np

from pdmg.model import GameModel
from pdmg.shapley import (
    FMT,
    SolutionFormatError,
    SolverError,
    StrategyField,
    TimeGrid,
    ValueField,
    _bad_entries,
)


def export_solution_csv(model: GameModel, field: ValueField, strategies: StrategyField) -> str:
    """Combined CSV: t, state, phi, risk_value, mu_0.., nu_0..

    12 significant digits; strategies are piecewise constant on
    [t_k, t_{k+1}) and the final row repeats the last slice.
    """
    wa, wb = model.widths
    grid = field.grid
    n, N = model.n_states, grid.n_steps
    if _bad_entries(field.phi).size:
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


def import_solution_csv(model: GameModel, text: str) -> tuple[ValueField, StrategyField]:
    """Inverse of :func:`export_solution_csv` (byte-identical round trip)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SolutionFormatError("empty solution CSV")
    header = lines[0].split(",")
    if header[:4] != ["t", "state", "phi", "risk_value"]:
        raise SolutionFormatError("solution CSV header mismatch")
    n = model.n_states
    rows = lines[1:]
    if len(rows) % n != 0:
        raise SolutionFormatError("solution CSV row count is not a multiple of the state count")
    n_knots = len(rows) // n
    if n_knots < 2:
        raise SolutionFormatError("solution CSV must contain at least two knots")
    N = n_knots - 1
    grid = TimeGrid(N, model.horizon)
    wa, wb = model.widths
    phi = np.empty((N + 1, n))
    mu = np.zeros((N, n, wa))
    nu = np.zeros((N, n, wb))
    for k in range(N + 1):
        for x in range(n):
            row = k * n + x + 1
            parts = rows[row - 1].split(",")
            if len(parts) != 4 + wa + wb:
                raise SolutionFormatError(
                    f"solution CSV row {row}: expected {4 + wa + wb} fields, got {len(parts)}"
                )
            try:
                state = int(parts[1])
                phi[k, x] = float(parts[2])
                if k < N:
                    ma, mb = len(model.actions_p1[x]), len(model.actions_p2[x])
                    mu[k, x, :ma] = [float(v) for v in parts[4 : 4 + ma]]
                    nu[k, x, :mb] = [float(v) for v in parts[4 + wa : 4 + wa + mb]]
            except ValueError as exc:
                raise SolutionFormatError(f"solution CSV row {row}: {exc}") from None
            if state != x:
                raise SolutionFormatError(f"solution CSV: unexpected state index at row {row}")
    bad = _bad_entries(phi)
    if bad.size:
        k, x = bad[0]
        raise SolverError(f"solution CSV: nonpositive or non-finite phi at knot {k}, state {x}")
    for name, mix in (("mu", mu), ("nu", nu)):
        # written as negations so that NaN fails too
        neg = np.argwhere(~(mix >= -1e-12))
        if neg.size:
            k, x, j = neg[0]
            raise SolverError(
                f"solution CSV row {k * n + x + 1}, column {name}_{j}: "
                f"{float(mix[k, x, j]):.12g} is not a probability"
            )
        off = np.argwhere(~(np.abs(mix.sum(axis=2) - 1.0) <= 1e-9))
        if off.size:
            k, x = off[0]
            raise SolverError(
                f"solution CSV row {k * n + x + 1}, columns {name}_*: "
                f"probabilities sum to {float(mix[k, x].sum()):.12g}"
            )
    return ValueField(grid, phi), StrategyField(grid, mu, nu)
