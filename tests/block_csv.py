"""Block-wise solution CSV import, kept as a reference.

This is ``pdmg.shapley.import_solution_csv`` as it was before numpy's
tokenizer parsed the CSV: the rows are read in blocks of 2048, each block by
a few C-level string calls and ``int``/``float`` over its columns, and a
block that fails is walked row by row to name the first malformed row.  It
makes every check the current import makes, so ``test_csv_fuzz.py`` requires
the two to return the same arrays bit for bit or raise the same error.  It
also reads digit-group underscores and non-ASCII digits, as ``int`` and
``float`` do; the current import refuses them.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from pdmg.model import GameModel
from pdmg.shapley import (
    FMT,
    SolutionFormatError,
    SolverError,
    StrategyField,
    TimeGrid,
    ValueField,
)

_CSV_BLOCK = 2048


def _csv_layout(model: GameModel) -> tuple[list[str], np.ndarray]:
    """Column names, and for each state which mixture columns it fills."""
    wa, wb = model.widths
    names = ["t", "state", "phi", "risk_value"]
    names += [f"mu_{i}" for i in range(wa)] + [f"nu_{i}" for i in range(wb)]
    return names, np.concatenate([model.cells.any(axis=2), model.cells.any(axis=1)], axis=1)


def _parse_rows(block: list[str], r0: int, shown: np.ndarray, t, phi, entries) -> bool:
    """Read rows r0+1.. of a solution CSV into t, phi and entries with a few
    C-level passes over the block; False if any row is malformed."""
    n, width = shown.shape[0], 4 + shown.shape[1]
    size = len(block)
    if list(map(str.count, block, repeat(",", size))).count(width - 1) != size:
        return False
    cells = np.array(",".join(block).split(","), dtype=object).reshape(size, width)
    states = (r0 + np.arange(size)) % n
    read = shown[states]
    if "".join(cells[:, 4:][~read].tolist()):
        return False
    try:
        if list(map(int, cells[:, 1].tolist())) != states.tolist():
            return False
        t[r0 : r0 + size] = list(map(float, cells[:, 0].tolist()))
        phi[r0 : r0 + size] = list(map(float, cells[:, 2].tolist()))
        list(map(float, cells[:, 3].tolist()))  # risk_value: read, not kept
        entries[r0 : r0 + size][read] = list(map(float, cells[:, 4:][read].tolist()))
    except ValueError:
        return False
    return True


def _raise_first_bad_row(block: list[str], r0: int, names: list[str], shown: np.ndarray) -> None:
    """Name the first malformed row of a block that :func:`_parse_rows` refused."""
    n = shown.shape[0]
    for i, line in enumerate(block):
        row, x = r0 + i + 1, (r0 + i) % n
        parts = line.split(",")
        if len(parts) != len(names):
            raise SolutionFormatError(
                f"solution CSV row {row}: expected {len(names)} fields, got {len(parts)}"
            )
        for name, value, read in zip(names, parts, [True] * 4 + shown[x].tolist()):
            if not read:
                if value:
                    raise SolutionFormatError(f"solution CSV row {row}: padded field {name} is not empty")
                continue
            try:
                (int if name == "state" else float)(value)
            except ValueError as exc:
                raise SolutionFormatError(f"solution CSV row {row}: {exc}") from None
        if int(parts[1]) != x:
            raise SolutionFormatError(f"solution CSV: unexpected state index at row {row}")
    raise AssertionError("no malformed row in a block that failed to parse")


def import_solution_csv(model: GameModel, text: str) -> tuple[ValueField, StrategyField]:
    """Inverse of :func:`export_solution_csv` (byte-identical round trip).

    Every field is read, a block of rows at a time.  The header must be the
    one export writes for the model; t, state, phi, risk_value and each
    admissible mixture entry must parse, on the final knot's rows too, and
    padded fields must be empty (else :class:`SolutionFormatError` naming the
    row).  Each t must lie within 1e-11*max(1, T) of its knot k*T/N of the
    model's grid, each phi must be finite and positive and each mixture a
    simplex (else :class:`SolverError` naming the row).
    """
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise SolutionFormatError("empty solution CSV")
    names, shown = _csv_layout(model)
    if lines[0] != ",".join(names):
        raise SolutionFormatError(f"solution CSV header mismatch: expected {','.join(names)}")
    n = model.n_states
    rows = len(lines) - 1
    if rows % n != 0:
        raise SolutionFormatError("solution CSV row count is not a multiple of the state count")
    n_knots = rows // n
    if n_knots < 2:
        raise SolutionFormatError("solution CSV must contain at least two knots")
    N = n_knots - 1
    grid = TimeGrid(N, model.horizon)
    t, phi, entries = np.empty(rows), np.empty(rows), np.zeros((rows, shown.shape[1]))
    for r0 in range(0, rows, _CSV_BLOCK):
        block = lines[1 + r0 : 1 + r0 + _CSV_BLOCK]
        if not _parse_rows(block, r0, shown, t, phi, entries):
            _raise_first_bad_row(block, r0, names, shown)
    knots = np.repeat(grid.knots(), n)
    off = np.flatnonzero(~(np.abs(t - knots) <= 1e-11 * max(1.0, grid.horizon)))
    if off.size:
        r = int(off[0])
        raise SolverError(
            f"solution CSV row {r + 1}: t = {FMT % t[r]} is not knot {r // n} of the model's grid "
            f"(t = {FMT % knots[r]})"
        )
    phi = phi.reshape(N + 1, n)
    bad = np.argwhere(~(np.isfinite(phi) & (phi >= np.finfo(float).tiny)))  # subnormals too
    if bad.size:
        k, x = bad[0]
        raise SolverError(f"solution CSV: nonpositive or non-finite phi at knot {k}, state {x}")
    wa = model.widths[0]
    mu = np.ascontiguousarray(entries[: N * n, :wa]).reshape(N, n, wa)
    nu = np.ascontiguousarray(entries[: N * n, wa:]).reshape(N, n, -1)
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
