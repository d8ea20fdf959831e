"""Problem instances: state spaces with deterministic flow, admissible
actions, signed transition-rate kernels, running/terminal costs.

A state is an integer index.  Finite spaces index their name list; grid-flow
spaces enumerate (mode, cell) pairs as ``mode * cells + cell``.  Rates and
costs may be piecewise constant in time over declared segments.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SIMPLEX_TOL = 1e-12


class ModelFormatError(ValueError):
    """Model document does not parse; message carries the field path."""


class ModelValidationError(ValueError):
    """A model invariant is violated; message names the invariant."""


@dataclass(frozen=True)
class Mode:
    name: str
    drift: float


@dataclass(frozen=True)
class FiniteStates:
    """Pure-jump state space; the flow is the identity."""

    names: tuple[str, ...]

    @property
    def n_states(self) -> int:
        return len(self.names)

    def flow_map(self, dt: float) -> np.ndarray:
        """The state each state flows to in time dt: every state stays put."""
        return np.arange(self.n_states)

    def state_name(self, x: int) -> str:
        return self.names[x]


@dataclass(frozen=True)
class GridFlowStates:
    """Hybrid space: modes with constant drift over a 1-d cell grid.

    The flow shifts the cell index by drift*dt/cell_width, rounds to the
    nearest cell (halves up) and applies the boundary policy ("clamp" or
    "reflect").
    """

    modes: tuple[Mode, ...]
    grid_min: float
    grid_max: float
    cells: int
    boundary: str = "clamp"

    def __post_init__(self):
        if len(self.modes) < 1 or self.cells < 2:
            raise ModelValidationError("grid_flow needs >= 1 mode and >= 2 cells")
        if not self.grid_min < self.grid_max:
            raise ModelValidationError("grid_flow: min < max required")
        if self.boundary not in ("clamp", "reflect"):
            raise ModelValidationError("grid_flow boundary must be 'clamp' or 'reflect'")

    @property
    def n_states(self) -> int:
        return len(self.modes) * self.cells

    @property
    def cell_width(self) -> float:
        return (self.grid_max - self.grid_min) / self.cells

    def fold_cells(self, raw: np.ndarray) -> np.ndarray:
        """The boundary policy applied to every entry of an int array of raw
        cell indices: clamped into the grid, or reflected with period
        2*cells - 2."""
        if self.boundary == "reflect":
            p = 2 * self.cells - 2
            raw = raw % p
            return np.minimum(raw, p - raw)
        return np.clip(raw, 0, self.cells - 1)

    def flow_map(self, dt: float) -> np.ndarray:
        """The state each state flows to in time dt, as one (S,) int array:
        floor(cell + drift*dt/cell_width + 0.5) folded into the grid."""
        drift = np.array([m.drift for m in self.modes])[:, None]
        raw = np.floor(np.arange(self.cells) + drift * dt / self.cell_width + 0.5).astype(int)
        return (np.arange(len(self.modes))[:, None] * self.cells + self.fold_cells(raw)).ravel()

    def state_name(self, x: int) -> str:
        mode, cell = divmod(x, self.cells)
        return f"{self.modes[mode].name}:{cell}"


StateSpace = FiniteStates | GridFlowStates


@dataclass(frozen=True)
class LyapunovData:
    """Drift-condition data: V, V1 >= 1 per state plus growth constants."""

    V: np.ndarray
    V1: np.ndarray
    rho1: float
    b1: float
    M1: float
    M2: float
    kappa: float
    rho2: float
    M3: float
    b2: float

    def validate(self, n_states: int) -> None:
        if self.V.shape != (n_states,) or self.V1.shape != (n_states,):
            raise ModelValidationError("lyapunov: V and V1 must have one entry per state")
        if np.any(self.V < 1.0) or np.any(self.V1 < 1.0):
            raise ModelValidationError("lyapunov: V(x) >= 1 and V1(x) >= 1 required")
        if not self.rho1 > 0.0:
            raise ModelValidationError("lyapunov: rho1 > 0 required")
        if self.b1 < 0.0:
            raise ModelValidationError("lyapunov: b1 >= 0 required")
        if self.M1 < 1.0 or self.M2 < 1.0 or self.M3 < 1.0:
            raise ModelValidationError("lyapunov: M1, M2, M3 >= 1 required")
        if not (self.kappa > 0.0 and self.rho2 > 0.0 and self.b2 > 0.0):
            raise ModelValidationError("lyapunov: kappa, rho2, b2 > 0 required")


class GameModel:
    """Immutable two-player zero-sum jump-game instance.

    Tables are dense per time segment and zero-padded past each state's
    action counts to the widths ``(A, B)``: ``costs`` and ``q_totals`` (total
    off-diagonal rate) have shape (segments, S, A, B) and ``rates`` has shape
    (segments, S, A, B, S), its diagonal completed so every row sums to zero;
    the mask ``cells`` (S, A, B) marks the admissible action pairs.  The
    constructor takes ``rates`` and ``costs`` in these shapes; it ignores
    their padding and the diagonal of ``rates``.
    """

    def __init__(
        self,
        states: StateSpace,
        actions_p1: Sequence[Sequence[int]],
        actions_p2: Sequence[Sequence[int]],
        time_breaks: Sequence[float],
        rates: np.ndarray,
        costs: np.ndarray,
        terminal: np.ndarray,
        lam: float,
        horizon: float,
        lyapunov: Optional[LyapunovData] = None,
    ):
        self.states = states
        self.actions_p1 = tuple(tuple(a) for a in actions_p1)
        self.actions_p2 = tuple(tuple(b) for b in actions_p2)
        self.time_breaks = tuple(float(t) for t in time_breaks)
        self.lam = float(lam)
        self.horizon = float(horizon)
        self.terminal = np.asarray(terminal, dtype=float)
        self.lyapunov = lyapunov

        n = states.n_states
        if len(self.actions_p1) != n or len(self.actions_p2) != n:
            raise ModelValidationError("each player needs one admissible action list per state")
        counts = np.array([(len(a), len(b)) for a, b in zip(self.actions_p1, self.actions_p2)]).reshape(-1, 2)
        A, B = self.widths = tuple(int(w) for w in counts.max(axis=0, initial=0))
        self.cells = (np.arange(A)[:, None] < counts[:, :1, None]) & (np.arange(B) < counts[:, None, 1:])
        shape = (len(self.time_breaks), n, A, B)
        self.rates = np.array(rates, dtype=float)
        self.costs = np.array(costs, dtype=float)
        if self.rates.shape != shape + (n,) or self.costs.shape != shape:
            raise ModelValidationError(
                f"rates and costs: expected shapes {shape + (n,)} and {shape}, "
                f"got {self.rates.shape} and {self.costs.shape}"
            )
        self.rates[:, ~self.cells] = 0.0
        self.costs[:, ~self.cells] = 0.0
        off = _off_diagonal(self.rates)
        negative = np.argwhere(off < 0.0)
        if negative.size:
            seg, x = negative[0][:2]
            raise ModelValidationError(f"rates[seg {seg}][state {x}]: negative off-diagonal rate")
        # a total that overflows is rejected by validate
        with np.errstate(over="ignore"):
            self.q_totals = off.sum(axis=-1)
        # conservativity fixes the diagonal of every admissible row
        diag = np.arange(n)
        self.rates[:, diag, :, :, diag] = np.moveaxis(np.where(self.cells, -self.q_totals, 0.0), 1, 0)
        self.validate()
        self.q_stars = self.q_totals.max(axis=(0, 2, 3))
        for table in (self.costs, self.rates, self.q_totals, self.cells, self.q_stars):
            table.flags.writeable = False

    # -- structure ---------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.states.n_states

    @property
    def n_segments(self) -> int:
        return len(self.time_breaks)

    def state_name(self, x: int) -> str:
        return self.states.state_name(x)

    def q_star_max(self) -> float:
        return float(self.q_stars.max())

    def max_abs_cost(self) -> float:
        return float(np.abs(self.costs).max())

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise ModelValidationError("lambda must lie in (0, 1]")
        if not self.horizon > 0.0:
            raise ModelValidationError("horizon must be positive")
        if self.n_states < 1:
            raise ModelValidationError("state space must contain at least one state")
        if isinstance(self.states, GridFlowStates):
            sp = self.states
            for i, m in enumerate(sp.modes):
                # the cells crossed over the horizon must stay exact as an int
                reach = abs(m.drift) * self.horizon * sp.cells / (sp.grid_max - sp.grid_min)
                if not reach < 2.0**53:
                    raise ModelValidationError(
                        f"grid_flow mode {i} ({m.name}): |drift|*horizon/cell_width = {reach:.4g} "
                        f"must be finite and below 2**53"
                    )
        empty = np.flatnonzero(~self.cells.any(axis=(1, 2)))
        if empty.size:
            raise ModelValidationError(f"state {empty[0]}: admissible action lists must be nonempty")
        if self.time_breaks[0] != 0.0:
            raise ModelValidationError("first time segment must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(self.time_breaks, self.time_breaks[1:])):
            raise ModelValidationError("time segment starts must be strictly increasing")
        if self.terminal.shape != (self.n_states,):
            raise ModelValidationError("terminal must have one entry per state")
        infinite = np.argwhere(~np.isfinite(self.q_totals))
        if infinite.size:
            seg, x = infinite[0][:2]
            raise ModelValidationError(
                f"rates[seg {seg}][state {x}]: total off-diagonal rate is not finite"
            )
        rows = np.abs(self.rates.sum(axis=-1)).max(axis=(2, 3))
        scale = np.maximum(1.0, self.q_totals.max(axis=(2, 3)))
        # written as a negation so that NaN fails too
        unbalanced = np.argwhere(~(rows <= SIMPLEX_TOL * scale))
        if unbalanced.size:
            seg, x = unbalanced[0]
            raise ModelValidationError(f"rates[seg {seg}][state {x}]: row does not sum to zero")
        if self.lyapunov is not None:
            self.lyapunov.validate(self.n_states)


def _off_diagonal(rates: np.ndarray) -> np.ndarray:
    """The entries y != x of every rate row ``rates[seg, x, a, b, :]``, in
    order: shape (segments, S, A, B, S-1)."""
    seg, n, A, B, _ = rates.shape
    square = np.moveaxis(rates, 1, 3).reshape(seg, A, B, n * n)
    # dropping the first entry lines the diagonal up as the last column
    off = square[..., 1:].reshape(seg, A, B, n - 1, n + 1)[..., :-1].reshape(seg, A, B, n, n - 1)
    return np.moveaxis(off, 3, 1)


# ---------------------------------------------------------------------------
# document loading


def _require(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected an object, got {doc!r}")
    if key not in doc:
        raise ModelFormatError(f"{path}: missing required key '{key}'")
    return doc[key]


def _as_index(value, path: str) -> int:
    """An integer field; a boolean, a number with a fractional part and
    anything int() cannot read fail with its path."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ModelFormatError(f"{path}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"{path}: expected an integer, got {value!r}") from None


def _entries(value, path: str) -> list:
    if not isinstance(value, list):
        raise ModelFormatError(f"{path}: expected a list, got {value!r}")
    return value


def _index(doc: dict, key: str, path: str) -> int:
    return _as_index(_require(doc, key, path), f"{path}.{key}")


def _as_float(value, path: str) -> float:
    """A finite float field; null, unreadable and non-finite values fail with the path."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelFormatError(f"{path}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ModelFormatError(f"{path}: expected a finite number, got {value!r}")
    return out


def _number(doc: dict, key: str, path: str) -> float:
    return _as_float(_require(doc, key, path), f"{path}.{key}")


def _parse_states(doc, path: str) -> StateSpace:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ModelFormatError(f"{path}: expected {{'finite': ...}} or {{'grid_flow': ...}}")
    if "finite" in doc:
        names = doc["finite"]
        if not isinstance(names, list) or not names:
            raise ModelFormatError(f"{path}.finite: expected a nonempty list of names")
        return FiniteStates(tuple(str(n) for n in names))
    if "grid_flow" in doc:
        g = doc["grid_flow"]
        modes = []
        mode_docs = _entries(_require(g, "modes", f"{path}.grid_flow"), f"{path}.grid_flow.modes")
        for i, m in enumerate(mode_docs):
            drift = _number(m, "drift", f"{path}.grid_flow.modes[{i}]")
            modes.append(Mode(str(m.get("name", f"mode{i}")), drift))
        grid = _require(g, "grid", f"{path}.grid_flow")
        cells = _index(grid, "cells", f"{path}.grid_flow.grid")
        if cells > sys.maxsize // max(1, len(modes)):
            raise ModelFormatError(
                f"{path}.grid_flow.grid.cells: {cells} cells in {len(modes)} modes "
                f"are more states than an index can count"
            )
        return GridFlowStates(
            modes=tuple(modes),
            grid_min=_number(grid, "min", f"{path}.grid_flow.grid"),
            grid_max=_number(grid, "max", f"{path}.grid_flow.grid"),
            cells=cells,
            boundary=str(g.get("boundary", "clamp")),
        )
    raise ModelFormatError(f"{path}: unknown state space kind {list(doc)}")


def _parse_actions(doc, n_states: int, path: str) -> tuple[list, list]:
    p1 = _require(doc, "p1", path)
    p2 = _require(doc, "p2", path)

    def expand(lists, side):
        if not isinstance(lists, list):
            raise ModelFormatError(f"{path}.{side}: expected per-state lists")
        if len(lists) == 1 and n_states > 1:
            lists = lists * n_states  # broadcast shorthand
        if len(lists) != n_states:
            raise ModelFormatError(
                f"{path}.{side}: expected {n_states} per-state lists, got {len(lists)}"
            )
        for x, row in enumerate(lists):
            if not isinstance(row, list):
                raise ModelFormatError(f"{path}.{side}[{x}]: expected a list of action labels")
        labels = [
            [_as_index(a, f"{path}.{side}[{x}][{j}]") for j, a in enumerate(row)]
            for x, row in enumerate(lists)
        ]
        # rates and costs name an action by its label: a repeated one would
        # be an admissible action that no entry can reach
        for x, row in enumerate(labels):
            for j, a in enumerate(row):
                if a in row[:j]:
                    raise ModelFormatError(f"{path}.{side}[{x}][{j}]: repeated action label {a}")
        return labels

    return expand(p1, "p1"), expand(p2, "p2")


def _fill_rate_entries(entries, table, model_shape, path: str):
    actions_p1, actions_p2, n = model_shape
    seen = set()
    for i, e in enumerate(_entries(entries, path)):
        p = f"{path}[{i}]"
        x = _index(e, "from", p)
        a = _index(e, "a", p)
        b = _index(e, "b", p)
        y = _index(e, "to", p)
        rate = _number(e, "rate", p)
        if not (0 <= x < n and 0 <= y < n):
            raise ModelFormatError(f"{p}: state index out of range")
        if y == x:
            raise ModelFormatError(f"{p}.to: self-rates are implied by conservativity")
        if rate < 0.0:
            raise ModelValidationError(f"{p}.rate: negative off-diagonal rate")
        if a not in actions_p1[x] or b not in actions_p2[x]:
            raise ModelFormatError(f"{p}: action pair ({a},{b}) not admissible at state {x}")
        key = (x, a, b, y)
        if key in seen:
            raise ModelFormatError(f"{p}: duplicate rate entry for {key}")
        seen.add(key)
        table[x, actions_p1[x].index(a), actions_p2[x].index(b), y] = rate


def _fill_cost_entries(entries, table, model_shape, path: str):
    actions_p1, actions_p2, n = model_shape
    for i, e in enumerate(_entries(entries, path)):
        p = f"{path}[{i}]"
        x = _index(e, "state", p)
        a = _index(e, "a", p)
        b = _index(e, "b", p)
        value = _number(e, "value", p)
        if not 0 <= x < n:
            raise ModelFormatError(f"{p}.state: index out of range")
        if a not in actions_p1[x] or b not in actions_p2[x]:
            raise ModelFormatError(f"{p}: action pair ({a},{b}) not admissible at state {x}")
        table[x, actions_p1[x].index(a), actions_p2[x].index(b)] = value


def _parse_lyapunov(doc, path: str) -> LyapunovData:
    def arr(key):
        values = _require(doc, key, path)
        if not isinstance(values, list):
            raise ModelFormatError(f"{path}.{key}: expected a list of numbers")
        return np.asarray([_as_float(v, f"{path}.{key}[{i}]") for i, v in enumerate(values)])

    scalars = ("rho1", "b1", "M1", "M2", "kappa", "rho2", "M3", "b2")
    return LyapunovData(V=arr("V"), V1=arr("V1"), **{k: _number(doc, k, path) for k in scalars})


def model_from_dict(doc: dict) -> GameModel:
    """Build and validate a GameModel from a parsed model document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    lam = _number(doc, "lambda", "$")
    horizon = _number(doc, "horizon", "$")
    states = _parse_states(_require(doc, "states", "$"), "$.states")
    n = states.n_states
    actions_p1, actions_p2 = _parse_actions(_require(doc, "actions", "$"), n, "$.actions")
    for x in range(n):
        if not actions_p1[x] or not actions_p2[x]:
            raise ModelValidationError(f"state {x}: admissible action lists must be nonempty")
    shape = (actions_p1, actions_p2, n)

    # segment 0 holds the base tables; each later segment fully replaces the
    # tables it names (rates and/or costs) from its t_start onward
    seg_specs = [{"t_start": 0.0, "rates": doc.get("rates", []), "costs": doc.get("costs", [])}]
    later = []
    for i, s in enumerate(_entries(doc.get("segments", []), "$.segments")):
        t0 = _number(s, "t_start", f"$.segments[{i}]")
        if not 0.0 < t0 < horizon:
            raise ModelFormatError(f"$.segments[{i}].t_start: must lie strictly inside (0, horizon)")
        later.append({"t_start": t0, "rates": s.get("rates"), "costs": s.get("costs")})
    seg_specs += sorted(later, key=lambda s: s["t_start"])

    dense = (len(seg_specs), n, max(map(len, actions_p1), default=0), max(map(len, actions_p2), default=0))
    rates, costs = np.zeros(dense + (n,)), np.zeros(dense)
    prev_rate_entries, prev_cost_entries = [], []
    for i, s in enumerate(seg_specs):
        rate_entries = s["rates"] if s["rates"] is not None else prev_rate_entries
        cost_entries = s["costs"] if s["costs"] is not None else prev_cost_entries
        _fill_rate_entries(rate_entries, rates[i], shape, f"$.rates(seg {i})")
        _fill_cost_entries(cost_entries, costs[i], shape, f"$.costs(seg {i})")
        prev_rate_entries, prev_cost_entries = rate_entries, cost_entries

    terminal = np.zeros(n)
    for i, e in enumerate(_entries(doc.get("terminal", []), "$.terminal")):
        p = f"$.terminal[{i}]"
        x = _index(e, "state", p)
        if not 0 <= x < n:
            raise ModelFormatError(f"{p}.state: index out of range")
        terminal[x] = _number(e, "value", p)

    lyap = _parse_lyapunov(doc["lyapunov"], "$.lyapunov") if "lyapunov" in doc else None

    return GameModel(
        states=states,
        actions_p1=actions_p1,
        actions_p2=actions_p2,
        time_breaks=[s["t_start"] for s in seg_specs],
        rates=rates,
        costs=costs,
        terminal=terminal,
        lam=lam,
        horizon=horizon,
        lyapunov=lyap,
    )


def load_model(text: str) -> GameModel:
    """Parse a JSON model document and return a validated GameModel."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
