"""Problem instances: state spaces with deterministic flow, admissible
actions, signed transition-rate kernels, running/terminal costs.

A state is an integer index.  Finite spaces index their name list; grid-flow
spaces enumerate (mode, cell) pairs as ``mode * cells + cell``.  Rates and
costs may be piecewise constant in time over declared segments.
"""

from __future__ import annotations

import json
import math
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

    def flow(self, x: int, dt: float) -> int:
        return x

    def state_name(self, x: int) -> str:
        return self.names[x]


def _round_half_up(z: float) -> int:
    return int(math.floor(z + 0.5))


def _reflect_index(i: int, n: int) -> int:
    # fold into [0, n-1] with period 2n-2 (n >= 2 enforced at load)
    p = 2 * n - 2
    i = i % p
    return i if i < n else p - i


@dataclass(frozen=True)
class GridFlowStates:
    """Hybrid space: modes with constant drift over a 1-d cell grid.

    The flow shifts the cell index by drift*dt/cell_width, rounds to the
    nearest cell and applies the boundary policy ("clamp" or "reflect").
    """

    modes: tuple[Mode, ...]
    grid_min: float
    grid_max: float
    cells: int
    boundary: str = "clamp"

    @property
    def n_states(self) -> int:
        return len(self.modes) * self.cells

    @property
    def cell_width(self) -> float:
        return (self.grid_max - self.grid_min) / self.cells

    def split(self, x: int) -> tuple[int, int]:
        return divmod(x, self.cells)

    def join(self, mode: int, cell: int) -> int:
        return mode * self.cells + cell

    def apply_boundary(self, cell: int) -> int:
        if self.boundary == "reflect":
            return _reflect_index(cell, self.cells)
        return min(max(cell, 0), self.cells - 1)

    def fold_cells(self, raw: np.ndarray) -> np.ndarray:
        """``apply_boundary`` of every entry of an int array of raw cell indices."""
        if self.boundary == "reflect":
            p = 2 * self.cells - 2
            raw = raw % p
            return np.minimum(raw, p - raw)
        return np.clip(raw, 0, self.cells - 1)

    def shifted_cells(self, shift: int) -> np.ndarray:
        """``apply_boundary(cell + shift)`` for every cell, as one int array."""
        return self.fold_cells(np.arange(self.cells) + shift)

    def flow(self, x: int, dt: float) -> int:
        mode, cell = self.split(x)
        raw = cell + self.modes[mode].drift * dt / self.cell_width
        return self.join(mode, self.apply_boundary(_round_half_up(raw)))

    def state_name(self, x: int) -> str:
        mode, cell = self.split(x)
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
    the mask ``cells`` (S, A, B) marks the admissible action pairs.
    ``rate_tensor(seg, x)`` and ``cost_matrix(seg, x)`` are the unpadded
    (|A(x)|, |B(x)|, ...) views of one state.
    """

    def __init__(
        self,
        states: StateSpace,
        actions_p1: Sequence[Sequence[int]],
        actions_p2: Sequence[Sequence[int]],
        time_breaks: Sequence[float],
        rates: Sequence[Sequence[np.ndarray]],
        costs: Sequence[Sequence[np.ndarray]],
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
        A = max((len(a) for a in self.actions_p1), default=0)
        B = max((len(b) for b in self.actions_p2), default=0)
        self.widths = (A, B)
        shape = (len(self.time_breaks), n, A, B)
        self.costs = np.zeros(shape)
        self.rates = np.zeros(shape + (n,))
        self.q_totals = np.zeros(shape)
        self.cells = np.zeros(shape[1:], dtype=bool)  # admissible action pairs per state
        for seg in range(len(self.time_breaks)):
            for x in range(n):
                m, k = len(self.actions_p1[x]), len(self.actions_p2[x])
                r = np.array(rates[seg][x], dtype=float)
                c = np.array(costs[seg][x], dtype=float)
                if r.shape != (m, k, n):
                    raise ModelValidationError(
                        f"rates[seg {seg}][state {x}]: expected shape {(m, k, n)}, got {r.shape}"
                    )
                if c.shape != (m, k):
                    raise ModelValidationError(
                        f"costs[seg {seg}][state {x}]: expected shape {(m, k)}, got {c.shape}"
                    )
                off = np.delete(r, x, axis=2)
                if np.any(off < 0.0):
                    raise ModelValidationError(
                        f"rates[seg {seg}][state {x}]: negative off-diagonal rate"
                    )
                qtot = off.sum(axis=2)
                r[:, :, x] = -qtot  # conservativity fixes the diagonal
                self.rates[seg, x, :m, :k] = r
                self.costs[seg, x, :m, :k] = c
                self.q_totals[seg, x, :m, :k] = qtot
                self.cells[x, :m, :k] = True
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

    def segment_index(self, t: float) -> int:
        """Index of the rightmost time break <= t (piecewise-constant lookup)."""
        idx = 0
        for i, b in enumerate(self.time_breaks):
            if t >= b:
                idx = i
        return idx

    def rate_tensor(self, seg: int, x: int) -> np.ndarray:
        return self.rates[seg, x, : len(self.actions_p1[x]), : len(self.actions_p2[x])]

    def cost_matrix(self, seg: int, x: int) -> np.ndarray:
        return self.costs[seg, x, : len(self.actions_p1[x]), : len(self.actions_p2[x])]

    def q_total(self, seg: int, x: int) -> np.ndarray:
        """Total off-diagonal rate per action pair, shape (|A(x)|, |B(x)|)."""
        return self.q_totals[seg, x, : len(self.actions_p1[x]), : len(self.actions_p2[x])]

    def q_star(self, x: int) -> float:
        return float(self.q_stars[x])

    def q_star_max(self) -> float:
        return float(self.q_stars.max())

    def max_abs_cost(self) -> float:
        return float(np.abs(self.costs).max())

    def flow(self, x: int, dt: float) -> int:
        return self.states.flow(x, dt)

    # -- mixed-action kernels ------------------------------------------------

    def _check_simplex(self, w: np.ndarray, size: int, who: str) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (size,):
            raise ValueError(f"{who}: expected simplex of size {size}, got shape {w.shape}")
        if np.any(w < -SIMPLEX_TOL) or abs(w.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"{who}: not a probability vector (tol {SIMPLEX_TOL})")
        return w

    def mixed_rate(self, t: float, x: int, mu, nu) -> np.ndarray:
        """Bilinear average of rate rows; signed row summing to zero."""
        mu = self._check_simplex(mu, len(self.actions_p1[x]), "mu")
        nu = self._check_simplex(nu, len(self.actions_p2[x]), "nu")
        seg = self.segment_index(t)
        return np.einsum("a,b,abs->s", mu, nu, self.rate_tensor(seg, x))

    def mixed_cost(self, t: float, x: int, mu, nu) -> float:
        mu = self._check_simplex(mu, len(self.actions_p1[x]), "mu")
        nu = self._check_simplex(nu, len(self.actions_p2[x]), "nu")
        seg = self.segment_index(t)
        return float(mu @ self.cost_matrix(seg, x) @ nu)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if not (0.0 < self.lam <= 1.0):
            raise ModelValidationError("lambda must lie in (0, 1]")
        if not self.horizon > 0.0:
            raise ModelValidationError("horizon must be positive")
        if self.n_states < 1:
            raise ModelValidationError("state space must contain at least one state")
        if isinstance(self.states, GridFlowStates):
            if len(self.states.modes) < 1 or self.states.cells < 2:
                raise ModelValidationError("grid_flow needs >= 1 mode and >= 2 cells")
            if not self.states.grid_min < self.states.grid_max:
                raise ModelValidationError("grid_flow: min < max required")
            if self.states.boundary not in ("clamp", "reflect"):
                raise ModelValidationError("grid_flow boundary must be 'clamp' or 'reflect'")
        for x in range(self.n_states):
            if not self.actions_p1[x] or not self.actions_p2[x]:
                raise ModelValidationError(f"state {x}: admissible action lists must be nonempty")
        if self.time_breaks[0] != 0.0:
            raise ModelValidationError("first time segment must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(self.time_breaks, self.time_breaks[1:])):
            raise ModelValidationError("time segment starts must be strictly increasing")
        if self.terminal.shape != (self.n_states,):
            raise ModelValidationError("terminal must have one entry per state")
        for s in range(self.n_segments):
            for x in range(self.n_states):
                rows = self.rate_tensor(s, x).sum(axis=2)
                scale = max(1.0, float(self.q_total(s, x).max()))
                if np.abs(rows).max() > SIMPLEX_TOL * scale:
                    raise ModelValidationError(
                        f"rates[seg {s}][state {x}]: row does not sum to zero"
                    )
        if self.lyapunov is not None:
            self.lyapunov.validate(self.n_states)


# ---------------------------------------------------------------------------
# document loading


def _require(doc: dict, key: str, path: str):
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected an object, got {doc!r}")
    if key not in doc:
        raise ModelFormatError(f"{path}: missing required key '{key}'")
    return doc[key]


def _as_index(value, path: str) -> int:
    """An integer field; anything int() cannot read fails with its path."""
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
        return GridFlowStates(
            modes=tuple(modes),
            grid_min=_number(grid, "min", f"{path}.grid_flow.grid"),
            grid_max=_number(grid, "max", f"{path}.grid_flow.grid"),
            cells=_index(grid, "cells", f"{path}.grid_flow.grid"),
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
        return [
            [_as_index(a, f"{path}.{side}[{x}][{j}]") for j, a in enumerate(row)]
            for x, row in enumerate(lists)
        ]

    return expand(p1, "p1"), expand(p2, "p2")


def _blank_tables(model_shape):
    actions_p1, actions_p2, n = model_shape
    rates = [np.zeros((len(actions_p1[x]), len(actions_p2[x]), n)) for x in range(n)]
    costs = [np.zeros((len(actions_p1[x]), len(actions_p2[x]))) for x in range(n)]
    return rates, costs


def _fill_rate_entries(entries, tables, model_shape, path: str):
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
        tables[x][actions_p1[x].index(a), actions_p2[x].index(b), y] = rate


def _fill_cost_entries(entries, tables, model_shape, path: str):
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
        tables[x][actions_p1[x].index(a), actions_p2[x].index(b)] = value


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

    time_breaks, rates, costs = [], [], []
    prev_rate_entries, prev_cost_entries = [], []
    for i, s in enumerate(seg_specs):
        rate_entries = s["rates"] if s["rates"] is not None else prev_rate_entries
        cost_entries = s["costs"] if s["costs"] is not None else prev_cost_entries
        r, c = _blank_tables(shape)
        _fill_rate_entries(rate_entries, r, shape, f"$.rates(seg {i})")
        _fill_cost_entries(cost_entries, c, shape, f"$.costs(seg {i})")
        time_breaks.append(s["t_start"])
        rates.append(r)
        costs.append(c)
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
        time_breaks=time_breaks,
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
