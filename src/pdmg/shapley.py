"""Backward-in-time solvers for the multiplicative-scale optimality equation.

The value phi(t, x) of the exponential cost functional solves, between the
terminal condition phi(T, x) = exp(lambda*g(T, x)) and time 0,

    -L phi(t, x) = val_{mu, nu} [ lambda*c(t,x,mu,nu)*phi(t,x)
                                  + sum_y phi(t,y) q(y|t,x,mu,nu) ],

where L differentiates along the deterministic flow and val is the zero-sum
matrix-game value (sup-inf = inf-sup).  Two discretisations are provided:

* ``backward_solve`` steps along characteristics with an exponential
  first-jump cell update.  The update agrees with the explicit linear
  semi-Lagrangian step to first order but is exact for action-independent
  cost levels: constant-cost models integrate exactly, and adding a constant
  to all costs multiplies the solution by the exact factor
  exp(lambda*n*(T-t+1)) (terminal shift included), which the truncation
  ladders rely on.
* ``picard_solve`` iterates the integral fixed-point operator with
  right-endpoint Riemann quadrature on the same grid.

Both reduce each cell to an exact finite matrix game.  Picard sweeps and
saddle extraction solve the games of a whole field together by
:func:`pdmg.matrix_game.solve_stack`: pure saddles and certified equalizers
in batch, the rest by the simplex, called here as ``solve_game``.  The
backward stepper marches each cell on the support of its saddle at the
knot above (the saddle moves by O(Delta) from knot to knot, so the support
almost always carries over), certifies whole chunks of knots at once and
re-solves a knot by ``solve_stack`` only where a certificate fails.
Evaluations and best responses run the same backward sweep with the fixed
mixtures contracted into the step tables, so that a knot costs a few small
array operations.  ``backward_solve_batch`` marches several models on one
grid (the levels of a truncation ladder, say) in that one sweep, a member
axis leading every slice, so their knots cost one loop.
``evaluate_and_respond`` marches one model's pair evaluation and both best
responses (the three solves of exploitability) as the members of one
sweep, on one build of the step tables.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .matrix_game import (
    MatrixGameError,
    Supports,
    carried_supports,
    certify_supports,
    count_locked,
    solve as solve_game,
    solve_stack,
    support_values,
)
from .model import GameModel, GridFlowStates

FMT = "%.12g"
# Rows of the solution CSV formatted at a time: bounds the strings held at
# once.
_CSV_BLOCK = 2048
# Cell games of the largest chunk of knots a sweep marches at once (the
# backward stepper on carried supports before certifying them): bounds the
# entries held at once.
_CHUNK_GAMES = 4096
# Coefficients of the largest table a reducer contracts its fixed mixtures
# into for one chunk of knots: bounds the tables held at once.
_CHUNK_COEFFS = 1 << 15
# Largest CFL load Delta*(lambda*max|c| + 2*max q*) a backward solve accepts.
CFL_SAFETY = 0.5
# Picard sweeps run before giving up on the tolerance.
MAX_PICARD_SWEEPS = 200


class SolverError(RuntimeError):
    pass


class SolutionFormatError(ValueError):
    """A solution CSV does not parse; the message names the row."""


class CFLError(SolverError):
    def __init__(self, message: str, required_n: int):
        super().__init__(message)
        self.required_n = required_n


class PositivityError(SolverError):
    pass


class PicardConvergenceError(SolverError):
    def __init__(self, message: str, last_residual: float):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps; knot k sits at k*T/N."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if not math.isfinite(self.n_steps * self.horizon):  # the knots k*T/N form k*T
            raise ValueError(f"N*T = {self.n_steps}*{self.horizon:.4g} is past the float range")

    @property
    def delta(self) -> float:
        return self.horizon / self.n_steps

    def knot(self, k: int) -> float:
        return k * self.horizon / self.n_steps

    def knots(self) -> np.ndarray:
        """Every knot, each rounded as :meth:`knot` rounds it."""
        return np.arange(self.n_steps + 1) * self.horizon / self.n_steps

    def knot_at(self, t: float) -> Optional[int]:
        """Index of the knot within 1e-12*max(1, T) of t, else None."""
        j = round(t / self.delta)
        return j if abs(t - j * self.delta) <= 1e-12 * max(1.0, self.horizon) else None


def probe_knot(grid: TimeGrid, n_states: int, t: float, x: int) -> tuple[int, int]:
    """The (knot, state) that a probe (t, x) of a field on ``grid`` reads:
    the knot nearest to t.  Raises ValueError, naming the probe, unless
    0 <= t <= T and 0 <= x < ``n_states``."""
    if not (0.0 <= t <= grid.horizon) or not (0 <= x < n_states):
        raise ValueError(f"invalid probe ({t}, {x})")
    return round(t / grid.delta), x


@dataclass
class ValueField:
    """phi(t_k, x) on the time x state grid, multiplicative scale (phi > 0)."""

    grid: TimeGrid
    phi: np.ndarray  # (N+1, n_states)


@dataclass
class StrategyField:
    """Randomized Markov strategies, piecewise constant on [t_k, t_{k+1}).

    ``mu`` (N, S, A) and ``nu`` (N, S, B) are float arrays: ``mu[k, x]`` is a
    simplex over the admissible actions of player 1 at state x on slice k,
    padded with exact zeros past the state's action count (likewise ``nu``
    for player 2).
    """

    grid: TimeGrid
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)

    def slices_at(self, grid: "TimeGrid") -> np.ndarray:
        """The slice in force at each knot k*T/m, k < m, of ``grid`` (m steps)."""
        t = grid.knots()[:-1]
        k = np.floor(t / self.grid.delta * (1.0 + 1e-15)).astype(int)
        return np.clip(k, 0, self.grid.n_steps - 1)

    def resample(self, grid: "TimeGrid") -> "StrategyField":
        """Piecewise-constant lookup onto an arbitrary grid over the same horizon."""
        ks = self.slices_at(grid)
        return StrategyField(grid, self.mu[ks], self.nu[ks])


@dataclass(frozen=True)
class SolverConfig:
    """The time grid's step count and the Picard stopping tolerance."""

    n_steps: int
    tol: float = 1e-9

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be finite and positive")


# ---------------------------------------------------------------------------
# primitives


def terminal_field(model: GameModel) -> np.ndarray:
    """Terminal slice exp(lambda * g(T, x)); errors on exponent overflow."""
    expo = model.lam * model.terminal
    if np.any(np.abs(expo) > 700.0):
        raise SolverError("lambda*g exceeds 700; rescale the model before solving")
    return np.exp(expo)


def json_text(doc) -> str:
    """``doc`` as strict JSON (RFC 8259, two-space indent, sorted keys), the
    form of every JSON artifact: a float that is not finite, which JSON
    cannot hold, is written as the string "inf", "-inf" or "nan"."""

    def strict(value):
        if isinstance(value, float) and not math.isfinite(value):
            return str(float(value))
        if isinstance(value, dict):
            return {k: strict(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(v) for v in value]
        return value

    return json.dumps(strict(doc), indent=2, sort_keys=True, allow_nan=False)


def report_numbers(doc):
    """``doc`` with every float, at any depth, rounded to the ``FMT`` digits
    the console prints: the numbers of every JSON report.  Tuples become
    lists; ints, flags and strings stay as given."""
    if isinstance(doc, float):
        return float(FMT % doc)
    if isinstance(doc, dict):
        return {k: report_numbers(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [report_numbers(v) for v in doc]
    return doc


_TINY = np.finfo(float).tiny  # the smallest normal double


def _bad_entries(phi: np.ndarray) -> np.ndarray:
    """(knot, state) of every entry of phi that is not finite and positive,
    or is positive below the smallest normal double: there a step's product
    can round back up to the same subnormal, so the value is silently wrong."""
    return np.argwhere(~(np.isfinite(phi) & (phi >= _TINY)))


def _refuse_bad_phi(phi: np.ndarray, error: type, text: str, last: bool = False):
    """Raise ``error`` naming the first (``last``: the last) of the
    ``_bad_entries`` of phi, if any: ``text`` formatted with its knot and
    state, or for a subnormal entry a message that says so."""
    bad = _bad_entries(phi)
    if bad.size:
        k, x = bad[-1 if last else 0]
        if 0.0 < phi[k, x] < _TINY:
            text = "phi = {2} at knot {0}, state {1} is below the smallest normal double"
        raise error(text.format(k, x, FMT % phi[k, x]))


def to_risk_value(field: ValueField, lam: float) -> np.ndarray:
    """Certainty-equivalent values (1/lambda) * ln phi, entrywise."""
    _refuse_bad_phi(field.phi, SolverError, "nonpositive or non-finite phi at knot {}, state {}")
    return np.log(field.phi) / lam


def knot_segments(model: GameModel, grid: TimeGrid) -> np.ndarray:
    """Time segment of every knot, shape (N+1,).

    A break within 1e-12*max(1, T) of a knot starts its segment at that
    knot (the simulator's tables rely on the same rule); any other break
    starts it at the first knot past the break.
    """
    knots = grid.knots()
    starts = []
    for b in model.time_breaks:
        j = grid.knot_at(b)
        starts.append(int(np.searchsorted(knots, b)) if j is None else j)
    return np.searchsorted(starts, np.arange(grid.n_steps + 1), side="right") - 1


def _cell_entries(D: np.ndarray, JT: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cell-game entries D*v(x) + sum_y J[(x, w), y]*v(y) of every state x and
    free action w.

    ``D`` (S, W) and ``J`` (S*W, S) are step tables, W the actions left free
    (A*B for whole games: ``diag.reshape(S, -1)`` and ``jump.reshape(-1, S)``
    of (S, A, B) and (S, A, B, S) tables), and ``JT`` is ``J.T``; ``v`` is one
    slice (S,) or a stack of slices (K, S).  Returns (..., S, W).
    """
    # np.dot: the BLAS call of v @ JT, with less overhead on small arrays
    return D * v[..., None] + np.dot(v, JT).reshape(v.shape + D.shape[1:])


def _member_entries(D: np.ndarray, JT: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`_cell_entries` of R members at once: ``D`` (R, S, W), ``JT``
    (R, S, S*W) and ``v`` (R, S) give (R, S, W).  One np.matmul over the
    members, bit for bit the np.dot of each member alone."""
    return D * v[..., None] + np.matmul(v[:, None], JT).reshape(D.shape)


def _ediff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(exp(a) - exp(b)) / (a - b), computed stably near a == b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (a - b)
    small = np.abs(half) < 1e-6
    ratio = np.where(small, 1.0 + half * half / 6.0, np.sinh(np.where(small, 1.0, half)) / np.where(small, 1.0, half))
    return np.exp(mid) * ratio


def check_cfl(model: GameModel, grid: TimeGrid) -> None:
    """Positivity/accuracy guard Delta*(lambda*max|c| + 2*max q*) <= CFL_SAFETY."""
    load = model.lam * model.max_abs_cost() + 2.0 * model.q_star_max()
    if not math.isfinite(load):
        raise SolverError(f"CFL load lambda*max|c| + 2*max q* = {load} is not finite; rescale the model")
    if load <= 0.0:
        return
    if grid.delta * load > CFL_SAFETY * (1.0 + 1e-12):
        # T*load/CFL_SAFETY in exact arithmetic: in floats it may overflow
        required = math.ceil(Fraction(model.horizon) * Fraction(load) / Fraction(CFL_SAFETY))
        shown = required if required < 10**12 else f"{Decimal(required):.4g}"
        raise CFLError(
            f"time step too large: Delta*(lambda*max|c| + 2*max q*) = "
            f"{grid.delta * load:.4g} > {CFL_SAFETY}; use N >= {shown}",
            required,
        )


# ---------------------------------------------------------------------------
# flow lookup tables


class _FlowLags:
    """The tables of a model on one grid that every sweep on it reads, built
    once: the rounded flow lookup maps anchored at the terminal time, the
    time segment of every knot and the operator's terminal slices.

    For grid-flow modes the cell displacement over a lag of l steps is
    round(drift*l*Delta/width); per-step backward lookups use increments of
    this cumulative displacement so that composed steps track the true
    characteristic to within one cell at any refinement.  (Re-rounding the
    one-step displacement independently per step would freeze the flow
    entirely once |drift|*Delta < width/2.)  On a finite state space every
    lookup is the identity.
    """

    def __init__(self, model: GameModel, grid: TimeGrid):
        self.model = model
        self.grid = grid
        self.identity = np.arange(model.n_states)
        self.flows = isinstance(model.states, GridFlowStates)
        if self.flows:
            sp = model.states
            lags = np.arange(grid.n_steps + 1)
            self._disp = np.stack(
                [
                    np.floor(m.drift * lags * grid.delta / sp.cell_width + 0.5).astype(int)
                    for m in sp.modes
                ]
            )  # (modes, N+1)
        else:
            self._disp = None

    def _lookups(self, disp: np.ndarray) -> np.ndarray:
        """Row j: the state lookup moving every cell of mode m by disp[m, j]
        cells, (J, S) from per-mode displacements (modes, J)."""
        sp = self.model.states
        cells = sp.fold_cells(np.arange(sp.cells) + disp[:, :, None])  # (modes, J, cells)
        cells += (np.arange(len(sp.modes)) * sp.cells)[:, None, None]
        return cells.transpose(1, 0, 2).reshape(disp.shape[1], -1)

    @cached_property
    def lag_table(self) -> np.ndarray:
        """Row k: the state lookup for a displacement of N-k steps along the
        flow, from knot k to the terminal time, (N+1, S)."""
        n = self.grid.n_steps
        if self._disp is None:
            return np.tile(self.identity, (n + 1, 1))
        return self._lookups(self._disp[:, ::-1])

    @cached_property
    def step_table(self) -> np.ndarray:
        """Row k: the lookup from knot k into slice k+1 (increment of the
        anchored path), (N, S)."""
        n = self.grid.n_steps
        if self._disp is None:
            return np.tile(self.identity, (n, 1))
        return self._lookups(self._disp[:, n:0:-1] - self._disp[:, n - 1 :: -1])

    @cached_property
    def segments(self) -> np.ndarray:
        """Time segment of every knot, (N+1,): :func:`knot_segments`."""
        return knot_segments(self.model, self.grid)

    @cached_property
    def bracket_tables(self) -> list:
        """:func:`_bracket_tables` of every knot."""
        return _bracket_tables(self.model, self.segments)

    @cached_property
    def terminal(self) -> np.ndarray:
        """Row k: the terminal slice looked up along the flow from knot k,
        (N+1, S), read-only; errors as :func:`terminal_field` on exponent
        overflow."""
        table = terminal_field(self.model)[self.lag_table]
        table.flags.writeable = False
        return table


# ---------------------------------------------------------------------------
# the exponential first-jump cell update


def _step_coefficients(model: GameModel, grid: TimeGrid) -> tuple[list, list]:
    """Per segment, the dense coefficients of the exponential first-jump update.

    With c0(x) the value of the instantaneous cost game at x, chat = c - c0
    and qtot the total off-diagonal rate, the cell update reads

        entry(a,b) = exp(lam*c0*D) * [ exp(-qtot*D)*(1 + lam*chat*D)*psi(x)
                      + D*sum_y q(y|a,b)*ediff((lam*chat-qtot)*D, dlt(y))*psi(y) ]

    with dlt(y) = lam*(c0(y)-c0(x))*D and psi the next slice composed with
    the one-step flow.  This is the linear semi-Lagrangian bracket plus
    O(D^2) corrections that integrate the action-independent cost level and
    the first jump exactly.  Returns the psi(x) coefficients (S, A, B) and
    the psi(y) coefficients (S, A, B, S), zero past each state's actions.
    """
    d, lam, n = grid.delta, model.lam, model.n_states
    diags, jumps = [], []
    for seg in range(model.n_segments):
        c0 = solve_stack(model.costs[seg], model.cells, fallback=solve_game)[0]
        # math.exp per state: np.exp may differ in the last bit
        outer = np.array([math.exp(lam * c * d) for c in c0])[:, None, None]
        chat = model.costs[seg] - c0[:, None, None]
        qt = model.q_totals[seg]
        diag = np.where(model.cells, outer * np.exp(-qt * d) * (1.0 + lam * chat * d), 0.0)
        lost = np.argwhere(model.cells & (diag <= 0.0))
        if lost.size:
            raise PositivityError(
                f"cell update loses positivity at state {lost[0][0]} (segment {seg}); increase N"
            )
        R = model.rates[seg].copy()
        R[np.arange(n), :, :, np.arange(n)] = 0.0
        theta = (lam * chat - qt) * d  # (S, A, B)
        dlt = lam * (c0[None, :] - c0[:, None]) * d  # [x, y]
        diags.append(diag)
        jumps.append(outer[..., None] * d * R * _ediff(theta[..., None], dlt[:, None, None, :]))
    return diags, jumps


def _member_coefficients(models: list, grid: TimeGrid) -> tuple[list, list]:
    """:func:`_step_coefficients` of every member, stacked per segment on a
    leading member axis; a single member's tables as they are."""
    per = [_step_coefficients(m, grid) for m in models]
    if len(per) == 1:
        return per[0]
    diags, jumps = zip(*per)
    return [np.stack(d) for d in zip(*diags)], [np.stack(j) for j in zip(*jumps)]


# ---------------------------------------------------------------------------
# solvers: one backward sweep, pluggable cell reducers


def _contract(table: np.ndarray, mu: Optional[np.ndarray], nu: Optional[np.ndarray]) -> np.ndarray:
    """Fixed mixtures summed into the action axes of a coefficient table.

    ``table`` is (S, A, B, C); ``mu`` (K, S, A) and ``nu`` (K, S, B) hold a
    mixture per knot and state, or are None for an axis left free.  Returns
    (K, S, W, C), W the product of the free axes: one batched matmul per
    mixture, with no (K, S, A, B, C) copy of the table.
    """
    S, A, B, C = table.shape
    if mu is not None:
        table = (mu[:, :, None, :] @ table.reshape(S, A, B * C)).reshape(len(mu), S, 1, B, C)
    if nu is not None:
        table = nu[:, :, None, None, :] @ table
    return table.reshape(table.shape[0], S, -1, C)


class _Reducer:
    """A cell reducer of :func:`_sweep`: the step tables the sweep marches on
    and the fold of each knot's entries into the S values of its slice.

    ``mu`` (n, S, A) and ``nu`` (n, S, B) are mixtures a player is held to,
    slice ``slices[k]`` at knot k; None leaves the player free.  The entries
    of a knot are (S, W), W the product of the free axes.  A fixed mixture
    over an axis wider than 1 is contracted into the segments' step
    coefficients a chunk of knots at a time; a one-action axis needs no
    contraction (its simplex is [1]), so a reducer that fixes no wider axis
    marches on the segment tables themselves.  A reducer with W = 1 needs
    no ``fold``: :func:`_sweep` values each of its knots by the entry, as
    with both players held to a pair.

    ``signs`` holds one sign per slice a model marches: a slice signed -1
    is marched as -phi.  ``entries``, when set, replaces the sweep's entry
    builder for a reducer whose tables are not one (S, W) pair per knot.
    """

    certify = None
    entries = None
    signs = (1.0,)

    def __init__(self, model: GameModel, slices=None, mu=None, nu=None):
        A, B = model.widths
        self.width = (A if mu is None else 1) * (B if nu is None else 1)
        self.slices = slices
        self.held_mu = mu if A > 1 else None
        self.held_nu = nu if B > 1 else None
        self.contracts = self.held_mu is not None or self.held_nu is not None

    def tables(self, diags: list, jumps: list, segs: np.ndarray, k_lo: int):
        """Step tables (D, JT, rows) of the knots k_lo, k_lo+1, .. lying in
        segments ``segs``: knot k_lo+i marches on D[rows[i]] (S, W) and
        JT[rows[i]], the transpose of its (S*W, S) jump table, each with a
        leading member axis in a batch (which contracts no mixtures)."""
        S, W = diags[0].shape[-3], self.width
        if not self.contracts:
            return (
                [d.reshape(d.shape[:-3] + (S, W)) for d in diags],
                [j.reshape(j.shape[:-4] + (S * W, S)).swapaxes(-1, -2) for j in jumps],
                segs.tolist(),
            )
        K = len(segs)
        D, J = np.empty((K, S, W)), np.empty((K, S, W, S))
        ks = self.slices[k_lo : k_lo + K]
        for seg in set(segs.tolist()):
            on = segs == seg
            mu = None if self.held_mu is None else self.held_mu[ks[on]]
            nu = None if self.held_nu is None else self.held_nu[ks[on]]
            D[on] = _contract(diags[seg][..., None], mu, nu)[..., 0]
            J[on] = _contract(jumps[seg], mu, nu)
        return D, J.reshape(K, S * W, S).transpose(0, 2, 1), range(K)


class _BestResponse(_Reducer):
    """One player held to its half of ``fixed``, the other free: the value is
    the best admissible pure action, a max for player 1 and a min for
    player 2, with the padding masked by an additive -inf pad.  Player 2's
    side marches on -phi, so that its min is the max of the negated
    entries; negation is exact, so the bits are those of the min."""

    def __init__(self, model: GameModel, fixed: StrategyField, slices: np.ndarray, side: str):
        if side == "maximize":
            super().__init__(model, slices, nu=fixed.nu)
            self.pad = np.where(model.cells[:, :, 0], 0.0, -np.inf)
        else:
            super().__init__(model, slices, mu=fixed.mu)
            self.pad = np.where(model.cells[:, 0, :], 0.0, -np.inf)
            self.signs = (-1.0,)

    def fold(self, k: int, entries: np.ndarray) -> np.ndarray:
        return np.maximum.reduce(entries + self.pad, axis=-1)


class _PairAndResponses(_Reducer):
    """The pair evaluation of ``fixed`` and the best response of each side
    with more than one action, marched as the members of one sweep: the
    pair, then player 1's side, then player 2's (on -phi).

    A knot's entries are one flat row, each member's (S, W) entries in turn
    (W = 1 for the pair), and its slices are one ``np.maximum.reduceat``
    over the padded row: the pair's runs are one entry long.  The members
    are grouped by the width of their step tables, so that each keeps the
    BLAS call of its own sweep (the bits of a matrix product depend on its
    column count): the pair's np.dot, one np.matmul for both sides when
    A == B, else each side's np.dot, each written into its part of the row.
    A knot's tables are the row of diagonal coefficients and a tuple with
    each group's JT.
    """

    def __init__(self, model: GameModel, fixed: StrategyField, slices: np.ndarray):
        S = model.n_states
        A, B = model.widths
        sides = [_BestResponse(model, fixed, slices, side) for side, w in (("maximize", A), ("minimize", B)) if w > 1]
        members = [_Reducer(model, slices, fixed.mu, fixed.nu)] + sides
        self.signs = tuple(m.signs[0] for m in members)
        self.contracts = True  # the pair holds an axis wider than 1
        widths = [m.width for m in members]
        ends = np.cumsum([S * w for w in widths]).tolist()
        starts = [0] + ends[:-1]
        self.row = np.empty(ends[-1])
        self.width = ends[-1]  # a knot's entries: the whole row
        # entry -> the member slice psi it multiplies, and the runs folded into one value
        self.spread = np.repeat(np.arange(len(members) * S), np.repeat(widths, S))
        self.runs = np.concatenate([[0], np.cumsum(np.repeat(widths, S))[:-1]])
        self.pad = np.concatenate([np.zeros(S)] + [side.pad.ravel() for side in sides])
        self.groups, self.calls = [], []
        for g in [[0], [1, 2]] if A == B else [[m] for m in range(len(members))]:
            out = self.row[starts[g[0]] : ends[g[-1]]]
            if len(g) > 1:
                self.calls.append((np.matmul, (slice(g[0], g[-1] + 1), None), out.reshape(len(g), 1, -1)))
            else:
                self.calls.append((np.dot, g[0], out))
            self.groups.append([members[m] for m in g])

    def tables(self, diags: list, jumps: list, segs: np.ndarray, k_lo: int):
        Ds, JTs = [], []
        for group in self.groups:
            parts = [member.tables(diags, jumps, segs, k_lo) for member in group]
            Ds += [np.asarray(D)[rows].reshape(len(segs), -1) for D, _, rows in parts]
            JT, rows = parts[0][1:]
            if len(parts) > 1:
                # both sides contract, so rows is range(K); each member's JT
                # stays the transposed view of its (S*W, S) table
                JT = np.stack([p[1].swapaxes(-1, -2) for p in parts], axis=1).swapaxes(-1, -2)
            JTs.append([JT[i] for i in rows])
        return np.concatenate(Ds, axis=1), list(zip(*JTs)), range(len(segs))

    def entries(self, D: np.ndarray, JT: tuple, psi: np.ndarray) -> np.ndarray:
        for (product, at, out), jt in zip(self.calls, JT):
            product(psi[at], jt, out=out)
        return D * psi.take(self.spread) + self.row

    def fold(self, k: int, entries: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(entries + self.pad, self.runs).reshape(len(self.signs), -1)


# overflowing entries, and a carried 2x2 support whose entries come to
# a + d = b + c, give non-finite values: a failed certificate or the final
# check of phi names them, so numpy's warnings would only repeat it
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _sweep(models: list, grid: TimeGrid, reducer: _Reducer) -> list[ValueField]:
    """Backward recursion from the terminal slices on the reducer's step tables.

    ``models`` are the R members of a batch, which share states, action sets
    and time breaks; with R = 1 no array has a member axis.  The knots run
    in chunks from the top, each on the step tables ``reducer.tables`` gives
    it.  With psi the next slice composed with the one-step flow (phi[k+1]
    itself on a finite state space), knot k's entries are
    ``D*psi[:, None] + (psi @ J.T).reshape(S, W)`` and
    ``reducer.fold(k, entries)`` is slice k.  The sweep alone values a knot
    where the reducer's W is 1: no player has a choice there, each entry is
    the value of its 1x1 game, and there is no certificate to run.  In a
    batch, slice k is (R, S), the tables (R, S, W) and (R, S, S*W), and the
    entries (R, S, W) of all members come from one np.matmul
    (:func:`_member_entries`), bit for bit the np.dot each member's own
    sweep makes.  A reducer with several ``signs`` marches that many slices
    of one model on its own tables and builds their entries with
    ``reducer.entries``; a slice signed -1 holds -phi from the terminal
    slice down and is negated back at the end.  A chunk holds at most
    ``_CHUNK_GAMES`` games, and at most ``_CHUNK_COEFFS`` coefficients where
    the reducer contracts mixtures (one model only).  With
    ``reducer.certify``, ``certify(k_lo, chunk, phi)`` sees the entries
    (K, [R,] S, W) of knots k_lo..k_lo+K-1 once the chunk is done and
    returns None to accept it, or a knot to resume from: every slice from
    that knot down is computed again.  After a rejection the next chunk is
    one knot long, after an accepted chunk twice as long.  Returns each
    member's field; raises PositivityError, for the first member in order
    whose phi is not finite and positive or is subnormal.
    """
    model = models[0]
    lags = _FlowLags(model, grid)
    knot_seg = lags.segments
    diags, jumps = _member_coefficients(models, grid)
    signs = reducer.signs * len(models)
    lead = (len(signs),) if len(signs) > 1 else ()
    N, S = grid.n_steps, model.n_states
    phi = np.empty((N + 1,) + lead + (S,))
    phi[N] = np.reshape([sign * terminal_field(m) for m in models for sign in reducer.signs], lead + (S,))
    cap = max(1, _CHUNK_GAMES // (len(models) * S))
    if reducer.contracts:
        # no table a contraction makes is larger than (K, S, A, B, S)
        A, B = model.widths
        cap = max(1, min(cap, _CHUNK_COEFFS // (S * A * B * S)))
    if reducer.width == 1:
        certify, fold = None, lambda k, entries: entries[..., 0]
    else:
        certify, fold = reducer.certify, reducer.fold
    flows = lags.flows
    steps = lags.step_table if flows else None
    entries_of = reducer.entries or (_member_entries if lead else _cell_entries)
    k_hi, length = N, (1 if certify else cap)
    while k_hi > 0:
        k_lo = max(k_hi - length, 0)
        D, JT, rows = reducer.tables(diags, jumps, knot_seg[k_lo:k_hi], k_lo)
        chunk = np.empty((k_hi - k_lo,) + lead + (S, reducer.width)) if certify else None
        for k in range(k_hi - 1, k_lo - 1, -1):
            if not flows:
                psi = phi[k + 1]
            elif lead:  # along the state axis of (R, S)
                psi = phi[k + 1].take(steps[k], axis=-1)
            else:  # plain indexing: cheaper than take on (S,)
                psi = phi[k + 1][steps[k]]
            i = rows[k - k_lo]
            entries = entries_of(D[i], JT[i], psi)
            if certify:
                chunk[k - k_lo] = entries
            phi[k] = fold(k, entries)
        resume = certify(k_lo, chunk, phi) if certify else None
        k_hi, length = (k_lo, min(2 * length, cap)) if resume is None else (resume + 1, 1)
    fields = [
        ValueField(grid, np.ascontiguousarray(p if sign > 0 else -p))
        for p, sign in zip(np.moveaxis(phi, 1, 0) if lead else [phi], signs)
    ]
    for field in fields:
        _refuse_bad_phi(field.phi, PositivityError, "phi is not finite and positive at knot {}, state {}", last=True)
    return fields


class _CarriedSaddles(_Reducer):
    """Cell reducer of ``backward_solve_batch``: each cell keeps the support
    of its saddle at the knot above.

    Both players are free, so the sweep marches on the segment tables with
    W = A*B.  Every cell starts on the first-action pair, the saddle of a
    1x1 game: where no player has a choice (W = 1), the sweep values each
    knot by its entry and the cells keep that pair.  The cells of a batch
    of R members are the (R, S) pairs; each member holds its own supports
    and its own record of the knots settled afresh.  A member's knot is
    solved afresh by ``solve_stack`` at the start, after its failed
    certificate and while some cell's support is neither 1x1 nor 2x2; every
    other knot takes each cell's value on its carried support, and
    :meth:`certify` builds and certifies the mixtures of a chunk's carried
    knots at once.  Knots solved afresh are certified by ``solve_stack``,
    and within a chunk a member carries one set of supports from its last
    knot solved afresh down.
    """

    def __init__(self, model: GameModel, n_steps: int, members: int = 1):
        super().__init__(model)
        self.cells = model.cells
        S, A, B = model.cells.shape
        R = members
        self.games = (R, S, A, B)
        # (member, knot, ...): each member's mixtures are one contiguous block
        self.mu, self.nu = np.zeros((R, n_steps, S, A)), np.zeros((R, n_steps, S, B))
        self.mu[..., 0] = self.nu[..., 0] = 1.0
        lead = (R,) if R > 1 else ()
        self.flags = np.zeros((n_steps, R), dtype=bool)  # (knot, member) settled by solve_stack
        self.mask = np.concatenate([model.cells] * R)  # (R*S, A, B)
        # the supports of every cell, flat indices into a knot's (R, S, A, B)
        # entries; a member solved afresh holds the (0, 0) corner, a 1x1
        # support that values and certifies every game without dividing
        self.idle = np.arange(R * S).reshape(R, S) * (A * B)
        self.take = np.repeat(self.idle[None], 4, axis=0)
        self.unpaired = np.ones((R, S))
        self.supports = Supports(self.take.reshape((4,) + lead + (S,)), self.unpaired.reshape(lead + (S,)))
        self.flat = Supports(self.take.reshape(4, R * S), self.unpaired.reshape(R * S))
        self.held = np.zeros(R, dtype=bool)  # members marching on carried supports
        self.all_held = False
        self.phi = None  # the sweep's slices, once a certificate has failed

    def _hold(self, r: int, sup: Optional[Supports]) -> None:
        """Carry member r on ``sup`` from the next knot down, or solve it afresh (None)."""
        if sup is None:
            self.take[:, r], self.unpaired[r] = self.idle[r], 1.0
        else:
            self.take[:, r], self.unpaired[r] = sup.take + self.idle[r, 0], sup.unpaired
        self.held[r] = sup is not None
        self.all_held = bool(self.held.all())

    def fold(self, k: int, entries: np.ndarray) -> np.ndarray:
        v = support_values(entries, self.supports)
        if self.all_held:
            self.flags[k] = False
            return v
        idle = ~self.held
        values = v.reshape(self.held.size, -1)
        # a member settled afresh at k in a pass that a failed certificate
        # threw away settles the same way again, and its slice k of that
        # pass is still in phi (see certify)
        again = idle & self.flags[k]
        if again.any():
            values[again] = self.phi[k].reshape(values.shape)[again]
        new = idle & ~self.flags[k]
        if new.any():
            games = entries.reshape(self.games)[new]
            values[new], self.mu[new, k], self.nu[new, k] = solve_stack(games, self.cells, fallback=solve_game)
        self.flags[k] = idle
        for r in np.flatnonzero(idle).tolist():
            self._hold(r, carried_supports(self.mu[r, k], self.nu[r, k]))
        return v

    def certify(self, k_lo: int, chunk: np.ndarray, phi: np.ndarray):
        K = len(chunk)
        carried = ~self.flags[k_lo : k_lo + K]  # (K, R)
        R, S, A, B = self.games
        games = S * int(np.count_nonzero(carried))
        if not games:
            return None
        ok, mu, nu = certify_supports(
            chunk.reshape(K, R * S, A, B), self.mask, phi[k_lo : k_lo + K].reshape(K, R * S), self.flat
        )
        self.mu[:, k_lo : k_lo + K].swapaxes(0, 1)[carried] = mu.reshape(K, R, S, A)[carried]
        self.nu[:, k_lo : k_lo + K].swapaxes(0, 1)[carried] = nu.reshape(K, R, S, B)[carried]
        failed = carried & ~ok.reshape(K, R, S).all(axis=2)
        if not np.count_nonzero(failed):
            count_locked(games, 0)
            return None
        # the highest failing knot over all members is marched again, and
        # everything below it rests on its uncertified values
        top = int(np.flatnonzero(failed.any(axis=1))[-1])
        kept = S * int(np.count_nonzero(carried[top + 1 :]))
        count_locked(kept, games - kept)
        # the members failing there are solved afresh, and those settled
        # afresh there settle again; every other member carries its supports
        # on and gets the same bits as before
        for r in np.flatnonzero(failed[top] | ~carried[top]).tolist():
            self._hold(r, None)
        self.phi = phi
        return k_lo + top

    def strategies(self, grid: TimeGrid) -> list[StrategyField]:
        """Every member's saddle mixtures."""
        return [StrategyField(grid, self.mu[r], self.nu[r]) for r in range(self.games[0])]


def backward_solve_batch(models, config: SolverConfig) -> list[tuple[ValueField, StrategyField]]:
    """:func:`backward_solve` of each model, all marched in one backward sweep.

    The models must share states, action sets, time breaks and horizon
    (else ValueError); their costs, rates, terminal costs and lambda may
    differ.  Each member's value field and mixtures are bit for bit those
    of its own solve.  Each check runs per member: the CFL load, the
    terminal overflow, the positivity of the step coefficients, every cell
    game and the final positivity of phi.  If any fails, the members are
    solved one at a time in order, so that the batch raises the error, type
    and message, that the first failing member raises alone.

    The ``COUNTS`` of a batch are the sums over its members' own solves,
    except ``discarded``: the members share one chunk schedule, so a member
    whose certificate fails makes the others march the knots below it
    again.
    """
    models = list(models)
    if not models:
        raise ValueError("a batch needs at least one model")
    model = models[0]
    shape = operator.attrgetter("states", "actions_p1", "actions_p2", "time_breaks", "horizon")
    for r, m in enumerate(models[1:], 1):
        if shape(m) != shape(model):
            raise ValueError(
                f"batch member {r} does not share the states, action sets, time breaks and horizon of member 0"
            )
    grid = TimeGrid(config.n_steps, model.horizon)
    try:
        for m in models:
            check_cfl(m, grid)
        saddles = _CarriedSaddles(model, grid.n_steps, len(models))
        fields = _sweep(models, grid, saddles)
        return list(zip(fields, saddles.strategies(grid)))
    except (SolverError, MatrixGameError):
        if len(models) == 1:
            raise
        # the members alone, in order: the first to fail raises its own error
        for m in models:
            backward_solve(m, config)
        raise


def backward_solve(model: GameModel, config: SolverConfig) -> tuple[ValueField, StrategyField]:
    """Solve the optimality equation backward in time.

    Returns the value field (phi > 0 everywhere, terminal slice bit-exact)
    and the per-cell saddle mixtures.  Every cell game is settled with a
    certified duality gap <= ``GAME_TOL``: on the support carried
    from the knot above, or by ``solve_stack`` (see :class:`_CarriedSaddles`).
    When no player has a choice every game is 1x1, valued by its entry
    with no certificate (see :func:`_sweep`).  This is the one-member case
    of :func:`backward_solve_batch`.
    """
    return backward_solve_batch([model], config)[0]


def policy_evaluate(model: GameModel, strategies: StrategyField) -> ValueField:
    """Value of a fixed Markov strategy pair (linear backward equation).

    Uses the same cell update as ``backward_solve`` with the inner game
    replaced by the bilinear mixture of the entry matrix, contracted into
    the step tables, so evaluating the computed saddle reproduces the saddle
    field to rounding.
    """
    grid = strategies.grid
    return _sweep([model], grid, _Reducer(model, np.arange(grid.n_steps), strategies.mu, strategies.nu))[0]


def best_response_solve(
    model: GameModel,
    fixed: StrategyField,
    side: str,
    config: SolverConfig,
) -> ValueField:
    """One-sided backward solve against a frozen opponent half.

    side="maximize": player 1 optimises against the nu half of ``fixed``;
    side="minimize": player 2 optimises against the mu half.  The inner
    problem is linear over the free simplex, attained at a pure action.
    The solve may run on a finer grid than ``fixed`` (time lookup).
    """
    if side not in ("maximize", "minimize"):
        raise ValueError("side must be 'maximize' or 'minimize'")
    grid = TimeGrid(config.n_steps, model.horizon)
    check_cfl(model, grid)
    return _sweep([model], grid, _BestResponse(model, fixed, fixed.slices_at(grid), side))[0]


def evaluate_and_respond(
    model: GameModel,
    fixed: StrategyField,
    config: SolverConfig,
) -> tuple[ValueField, ValueField, ValueField]:
    """The pair evaluation of ``fixed`` and both sides' best responses to it,
    on the grid of ``config``, in one sweep on one build of the step tables.

    Returns (pair, player 1's best response, player 2's best response), each
    bit for bit the field of :func:`policy_evaluate` of ``fixed`` resampled
    to the grid, and of :func:`best_response_solve` of that side.  A side
    with one action everywhere is the pair itself (the same field object),
    so a model without choices marches the pair alone.  Checks the CFL load
    first; the error raised may differ from the one the three solves raise
    one after another.
    """
    grid = TimeGrid(config.n_steps, model.horizon)
    check_cfl(model, grid)
    slices = fixed.slices_at(grid)
    if model.widths == (1, 1):
        # the pair alone, as a plain sweep: through _PairAndResponses its
        # one-entry runs would still cost a reduceat per knot
        pair = _sweep([model], grid, _Reducer(model, slices, fixed.mu, fixed.nu))[0]
        return pair, pair, pair
    pair, *rest = _sweep([model], grid, _PairAndResponses(model, fixed, slices))
    A, B = model.widths
    return pair, rest[0] if A > 1 else pair, rest[-1] if B > 1 else pair


def _bracket_tables(model: GameModel, knot_seg: np.ndarray) -> list:
    """(rows, D, J.T) of every time segment: ``rows`` masks its knots among
    ``knot_seg``, and D (S, A*B) and J (S*A*B, S) are the step tables of its
    bracket games lambda*c*u(x) + sum_y q(y|x,a,b)*u(y)."""
    S = model.n_states
    tables = []
    for seg in range(model.n_segments):
        D, J = model.lam * model.costs[seg].reshape(S, -1), model.rates[seg].reshape(-1, S)
        tables.append((knot_seg == seg, D, J.T))
    return tables


def _bracket_entries(model: GameModel, u: np.ndarray, tables: list) -> np.ndarray:
    """Cell games at every row of u, (K, S, A, B), on the :func:`_bracket_tables` of its knots."""
    E = np.empty(u.shape + model.widths)
    for rows, D, JT in tables:
        E[rows] = _cell_entries(D, JT, u[rows]).reshape((-1, model.n_states) + model.widths)
    return E


def gamma_apply(
    model: GameModel,
    u: np.ndarray,
    grid: TimeGrid,
    lags: Optional[_FlowLags] = None,
) -> np.ndarray:
    """One application of the discretised fixed-point operator.

    Gamma u(t_k, x) = exp(lam*g(T, flow(x, T-t_k)))
                      + Delta * sum_{j>k} val[...](t_j, flow(x, t_j - t_k)),

    right-endpoint Riemann quadrature on the grid, which values the cell
    games of knots 1..N only.  ``lags`` holds the grid's tables; a caller
    applying the operator more than once passes the same one each time.
    """
    if lags is None:
        lags = _FlowLags(model, grid)
    # every knot's entries (a segment's one-row np.dot would round apart from
    # its many-row one), but the games of knots 1..N only: w[0] is never read
    E = _bracket_entries(model, u, lags.bracket_tables)[1:]
    g = grid.delta * solve_stack(E, model.cells, fallback=solve_game)[0]
    # suffix accumulation along the terminal-anchored characteristic paths
    # (the same rounded paths the backward stepper composes), so the two
    # solvers sample identical flow positions and differ only in quadrature:
    # G(k, x) = Delta * sum_{j>k} w(j, path position), via
    # G(k) = (Delta*w[k+1] + G(k+1)) looked up through the one-step map.
    if not lags.flows:
        # the lookups are the identity: add.accumulate adds in the loop's order
        G = np.cumsum(g[::-1], axis=0)[::-1]
    else:
        # characteristics that a clamp or a reflection merges are summed in
        # this order, which any other association would round differently
        steps, G = lags.step_table, np.empty_like(g)
        suffix = np.zeros(model.n_states)
        for k in range(grid.n_steps - 1, -1, -1):
            suffix = G[k] = (g[k] + suffix)[steps[k]]
    out = lags.terminal.copy()
    out[:-1] += G
    return out


def picard_solve(
    model: GameModel,
    config: SolverConfig,
    collect_info: bool = False,
):
    """Fixed point of the integral operator by Picard iteration.

    Sweeps until the sup-norm change is <= config.tol; raises after
    ``MAX_PICARD_SWEEPS`` sweeps, reporting the last residual, and at the
    first residual that is not finite.  With ``collect_info=True`` also
    returns residuals and the cumulative contraction ratios
    residual_l / residual_0 together with the factorial bound
    ((2*||q|| + ||c||)*T)^l / l!.
    """
    grid = TimeGrid(config.n_steps, model.horizon)
    lags = _FlowLags(model, grid)
    u = lags.terminal
    rate = 2.0 * model.q_star_max() + model.max_abs_cost()
    residuals = []
    for sweep in range(MAX_PICARD_SWEEPS):
        # an overflow surfaces as the residual that is not finite, named below
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = gamma_apply(model, u, grid, lags)
            res = float(np.max(np.abs(nxt - u)))
        if not math.isfinite(res):
            raise SolverError(f"Picard sweep {sweep + 1} has residual {res}; rescale the model")
        residuals.append(res)
        u = nxt
        if res <= config.tol:
            break
    else:
        raise PicardConvergenceError(
            f"Picard iteration did not reach tol {config.tol:g} in "
            f"{MAX_PICARD_SWEEPS} sweeps (last residual {residuals[-1]:.3e})",
            residuals[-1],
        )

    field = ValueField(grid, u)
    if not collect_info:
        return field
    r0 = residuals[0] if residuals else 0.0
    ratios, bounds = [], []
    for l, r in enumerate(residuals):
        if l == 0 or r0 == 0.0:
            continue
        ratios.append(r / r0)
        bounds.append((rate * model.horizon) ** l / math.factorial(l))
    return field, {"residuals": residuals, "contraction_ratios": ratios, "contraction_bounds": bounds}


def saddle_from_field(model: GameModel, field: ValueField) -> StrategyField:
    """Extract per-cell saddle mixtures from a solved value field."""
    grid = field.grid
    N = grid.n_steps
    E = _bracket_entries(model, field.phi[:N], _bracket_tables(model, knot_segments(model, grid)[:N]))
    return StrategyField(grid, *solve_stack(E, model.cells, fallback=solve_game)[1:])


# ---------------------------------------------------------------------------
# CSV export / import (combined value + strategy table)


def _csv_layout(model: GameModel) -> tuple[list[str], np.ndarray]:
    """Column names of the solution CSV, and for each state which of the
    mixture columns (mu_0.., nu_0..) hold its admissible actions; the others
    are padding and stay empty."""
    wa, wb = model.widths
    names = ["t", "state", "phi", "risk_value"]
    names += [f"mu_{i}" for i in range(wa)] + [f"nu_{i}" for i in range(wb)]
    return names, np.concatenate([model.cells.any(axis=2), model.cells.any(axis=1)], axis=1)


def _fmt_all(values: list) -> list[str]:
    """FMT of every value of a flat list, in one % call."""
    return (",".join([FMT] * len(values)) % tuple(values)).split(",")


def export_solution_csv(model: GameModel, field: ValueField, strategies: StrategyField) -> str:
    """Combined CSV: t, state, phi, risk_value, mu_0.., nu_0..

    12 significant digits; strategies are piecewise constant on
    [t_k, t_{k+1}) and the final row repeats the last slice.  Rows are
    formatted in blocks of whole knots, each block by one % call.
    """
    grid = field.grid
    n, N = model.n_states, grid.n_steps
    _refuse_bad_phi(field.phi, SolverError, "cannot export a field with nonpositive or non-finite phi")
    names, shown = _csv_layout(model)
    # one knot's rows: t, the state, phi, risk, a %s per admissible action
    knot_rows = "".join(
        ",".join(["%s", str(x), "%s", "%s"] + ["%s" if s else "" for s in shown[x]]) + "\n" for x in range(n)
    )
    printed = np.concatenate([np.ones((n, 3), bool), shown], axis=1)
    times = grid.knots()
    per_block = max(1, _CSV_BLOCK // n)
    out = [",".join(names) + "\n"]
    for k0 in range(0, N + 1, per_block):
        k1 = min(k0 + per_block, N + 1)
        cells = np.empty((k1 - k0, n, printed.shape[1]), dtype=object)
        cells[:, :, 0] = np.array(_fmt_all(times[k0:k1].tolist()), dtype=object)[:, None]
        phi = _fmt_all(field.phi[k0:k1].ravel().tolist())
        # risk value derived from the printed (quantized) phi so that
        # export -> import -> export is byte-identical; math.log, since the
        # vectorised np.log may differ in the last ulp
        risk = np.fromiter(map(math.log, map(float, phi)), float, len(phi)) / model.lam
        cells[:, :, 1] = np.array(phi, dtype=object).reshape(k1 - k0, n)
        cells[:, :, 2] = np.array(_fmt_all(risk.tolist()), dtype=object).reshape(k1 - k0, n)
        ks = np.minimum(np.arange(k0, k1), N - 1)
        mix = np.concatenate([strategies.mu[ks], strategies.nu[ks]], axis=2)
        # each distinct value printed once; unique bit patterns keep -0.0 apart from 0.0
        bits, inv = np.unique(mix.view(np.int64), return_inverse=True)
        cells[:, :, 3:] = np.array(_fmt_all(bits.view(float).tolist()), dtype=object)[inv.reshape(mix.shape)]
        out.append((knot_rows * (k1 - k0)) % tuple(cells[:, printed].ravel().tolist()))
    return "".join(out)


def _empty_field(text: str) -> float:
    """Converter of a padded mixture column: only the empty field, read as 0."""
    if text:
        raise ValueError("padded field is not empty")
    return 0.0


def _parse_rows(rows: list[str], shown: np.ndarray, t, phi, entries) -> bool:
    """Read the rows of a solution CSV into t, phi and entries with numpy's
    tokenizer, one ``np.loadtxt`` call per padding pattern of the states'
    mixture columns; False if any row is malformed."""
    n, width = shown.shape
    patterns: dict[bytes, list[int]] = {}
    for x in range(n):
        patterns.setdefault(shown[x].tobytes(), []).append(x)
    dtype = np.dtype(
        [("t", float), ("state", np.int64), ("phi", float), ("risk_value", float), ("mix", float, width)]
    )
    for states in patterns.values():
        if len(states) == n:
            idx, lines = slice(None), rows
        else:
            idx = (np.arange(0, len(rows), n)[:, None] + states).ravel()
            lines = list(map(rows.__getitem__, idx.tolist()))
        padded = np.flatnonzero(~shown[states[0]]) + 4
        try:
            with warnings.catch_warnings():
                # older numpy reads an integer field written as a float
                # ("1.0") with only a DeprecationWarning; int() refuses it
                warnings.simplefilter("error", DeprecationWarning)
                rec = np.loadtxt(
                    lines, dtype, delimiter=",", comments=None, ndmin=1,
                    converters=dict.fromkeys(padded.tolist(), _empty_field) or None,
                )
        except ValueError:
            return False
        if not (rec["state"].reshape(-1, len(states)) == states).all():
            return False
        t[idx], phi[idx], entries[idx] = rec["t"], rec["phi"], rec["mix"]
    return True


def _raise_first_bad_row(rows: list[str], names: list[str], shown: np.ndarray) -> None:
    """Name the first malformed row of the rows :func:`_parse_rows` refused."""
    n = shown.shape[0]
    for i, line in enumerate(rows):
        row, x = i + 1, i % n
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
            # int() and float() read these, numpy's tokenizer does not
            if "_" in value or not value.strip().isascii():
                raise SolutionFormatError(
                    f"solution CSV row {row}: {name} {value!r} has an underscore or a non-ASCII digit"
                )
        if int(parts[1]) != x:
            raise SolutionFormatError(f"solution CSV: unexpected state index at row {row}")
    raise AssertionError("no malformed row in rows that failed to parse")


def import_solution_csv(model: GameModel, text: str) -> tuple[ValueField, StrategyField]:
    """Inverse of :func:`export_solution_csv` (byte-identical round trip).

    Every field is read by numpy's tokenizer (``np.loadtxt``, no comment
    character).  The header must be the one export writes for the model; t,
    state, phi, risk_value and each admissible mixture entry must parse, on
    the final knot's rows too (numbers as ``float``/``int`` read them, less
    digit-group underscores and non-ASCII digits), and padded fields must be
    empty (else :class:`SolutionFormatError` naming the row).  Each t must
    lie within 1e-11*max(1, T) of its knot k*T/N of the model's grid, each
    phi must be finite and positive and each mixture a simplex (else
    :class:`SolverError` naming the row).
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
    t, phi, entries = np.empty(rows), np.empty(rows), np.empty((rows, shown.shape[1]))
    if not _parse_rows(lines[1:], shown, t, phi, entries):
        _raise_first_bad_row(lines[1:], names, shown)
    knots = np.repeat(grid.knots(), n)
    off = np.flatnonzero(~(np.abs(t - knots) <= 1e-11 * max(1.0, grid.horizon)))
    if off.size:
        r = int(off[0])
        raise SolverError(
            f"solution CSV row {r + 1}: t = {FMT % t[r]} is not knot {r // n} of the model's grid "
            f"(t = {FMT % knots[r]})"
        )
    phi = phi.reshape(N + 1, n)
    _refuse_bad_phi(phi, SolverError, "solution CSV: nonpositive or non-finite phi at knot {}, state {}")
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
