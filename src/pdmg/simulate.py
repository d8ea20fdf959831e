"""Trajectory simulation and Monte Carlo estimation of the exponential
cost functional J = E[exp(lambda*int c + lambda*g(T, xi_T))].

Jump times are drawn by thinning against a per-segment intensity bound;
costs and transitions use strategy-averaged rates (actions are never
sampled).  The running cost is integrated exactly over the piecewise
structure: grid knots, model time segments, and grid-flow cell crossings.

Paths use a counter-based PRNG (numpy Philox) keyed by (seed, path index),
so estimates are reproducible bit-for-bit and paths are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import FiniteStates, GameModel, GridFlowStates
from .shapley import SolverError, StrategyField, knot_segments


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    rng_seed: int
    rate_bound_factor: float = 1.25

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.rate_bound_factor < 1.0:
            raise ValueError("rate_bound_factor must be >= 1")


@dataclass
class Trajectory:
    t0: float
    x0: int
    jumps: list  # [(jump time, post-jump state)]
    jump_exponents: list  # accumulated exponent just after each jump
    exponent: float  # lambda*int c + lambda*g(T, xi_T)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_paths: int
    min_exponent: float
    max_exponent: float


def _path_rng(seed: int, path_idx: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(path_idx)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _constant_pieces(model: GameModel, t_anchor: float, x_anchor: int, w0: float, w1: float):
    """Yield (v0, v1, state) with the flowed state constant on [v0, v1)."""
    sp = model.states
    if isinstance(sp, FiniteStates) or w1 <= w0:
        yield (w0, w1, x_anchor)
        return
    mode, cell0 = sp.split(x_anchor)
    drift = sp.modes[mode].drift
    if drift == 0.0:
        yield (w0, w1, x_anchor)
        return
    width = sp.cell_width
    period = width / abs(drift)
    tol = 1e-12 * max(1.0, period)
    v = w0
    guard = int((w1 - w0) / period) + 3
    for _ in range(guard):
        raw = cell0 + drift * (v - t_anchor) / width
        m = int(math.floor(raw + 0.5))
        if drift > 0.0:
            nxt = t_anchor + ((m + 0.5) - cell0) * width / drift
        else:
            nxt = t_anchor + ((m - 0.5) - cell0) * width / drift
        if nxt <= v + tol:
            nxt = nxt + period  # v sits (up to rounding) on a crossing
        end = min(nxt, w1)
        # the cell is read off the piece midpoint: it is interior, so the
        # rounded index is immune to boundary-landing float noise
        mid_raw = cell0 + drift * (0.5 * (v + end) - t_anchor) / width
        state = sp.join(mode, sp.apply_boundary(int(math.floor(mid_raw + 0.5))))
        yield (v, end, state)
        if nxt >= w1:
            return
        v = nxt
    raise SolverError("cell-crossing enumeration failed to terminate")


def _rate_bounds(model: GameModel, factor: float) -> np.ndarray:
    """Per state, an intensity bound valid along the flow from it until the next jump.

    The flow keeps a grid-flow state in its mode, so the bound there is the
    mode's largest q*.
    """
    q = model.q_stars
    sp = model.states
    if isinstance(sp, GridFlowStates):
        q = np.repeat(q.reshape(len(sp.modes), sp.cells).max(axis=1), sp.cells)
    return factor * q


def _mixed_at(model: GameModel, strategies: StrategyField, t: float, x: int):
    k = strategies.slice_at_time(t)
    seg = model.segment_index(t)
    mu, nu = strategies.mu[k, x], strategies.nu[k, x]
    lam_total = float(mu @ model.q_totals[seg, x] @ nu)
    return seg, mu, nu, lam_total


def simulate_path(
    model: GameModel,
    strategies: StrategyField,
    t0: float,
    x0: int,
    rng: np.random.Generator,
    rate_bound_factor: float = 1.25,
) -> Trajectory:
    """One trajectory under the given Markov strategies via thinning.

    Between jumps the state follows the flow; the cost integral is exact
    over knots, model segments and cell crossings; the terminal term
    lambda*g(T, xi_T) is added at the horizon.
    """
    T = model.horizon
    if not 0.0 <= t0 < T:
        raise ValueError("t0 must lie in [0, T)")
    grid = strategies.grid
    # singleton action sets make the strategy knots irrelevant to the
    # dynamics, so the walk only needs the model's own time segments
    knots = (
        set()
        if model.widths == (1, 1)
        else {grid.knot(k) for k in range(grid.n_steps + 1) if t0 < grid.knot(k) < T}
    )
    breaks = sorted({t0, T} | knots | {b for b in model.time_breaks if t0 < b < T})

    lam = model.lam
    bounds = _rate_bounds(model, rate_bound_factor)
    t_anchor, x_anchor = t0, x0
    exponent = 0.0
    jumps: list = []
    jump_exponents: list = []
    state_T: Optional[int] = None

    i = 0
    while i < len(breaks) - 1:
        u0, u1 = breaks[i], breaks[i + 1]
        qbar = bounds[x_anchor]
        jumped = False
        for v0, v1, state in _constant_pieces(model, t_anchor, x_anchor, u0, u1):
            seg, mu, nu, lam_total = _mixed_at(model, strategies, v0, state)
            cbar = float(mu @ model.costs[seg, state] @ nu)
            # thinning on [v0, v1): actual intensity is constant here
            if lam_total > qbar * (1.0 + 1e-9):
                raise SolverError(
                    f"thinning bound violated at t={v0:.6g}, state {state}: "
                    f"intensity {lam_total:.6g} > bound {qbar:.6g}"
                )
            tau = v0
            while qbar > 0.0:
                tau = tau + rng.exponential(1.0 / qbar)
                if tau >= v1:
                    break
                if rng.random() < lam_total / qbar:
                    # accept: jump at tau
                    exponent += lam * cbar * (tau - v0)
                    row = np.einsum("a,b,abs->s", mu, nu, model.rates[seg, state])
                    row[state] = 0.0
                    row = np.clip(row, 0.0, None)
                    cdf = np.cumsum(row)
                    target = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
                    target = min(target, model.n_states - 1)
                    jumps.append((tau, target))
                    jump_exponents.append(exponent)
                    t_anchor, x_anchor = tau, target
                    jumped = True
                    break
            if jumped:
                break
            exponent += lam * cbar * (v1 - v0)
            if v1 >= T:
                state_T = state
        if not jumped:
            i += 1
        # after a jump the same window is re-entered with the new anchor:
        # shrink the current break interval to [tau, u1)
        if jumped:
            breaks[i] = t_anchor

    if state_T is None:
        state_T = model.flow(x_anchor, T - t_anchor)
    exponent += lam * model.terminal[state_T]
    return Trajectory(t0, x0, jumps, jump_exponents, exponent)


# ---------------------------------------------------------------------------
# fast path for finite spaces: precomputed per-knot mixed tables


class _FiniteTables:
    """Mixed intensities, costs and jump CDFs per (knot, state).

    Valid only when every model time break lies on a grid knot, so the
    per-knot tables capture the full piecewise structure exactly.
    """

    def __init__(self, model: GameModel, strategies: StrategyField):
        grid = strategies.grid
        N, S = grid.n_steps, model.n_states
        self.grid = grid
        self.lam_tot = np.empty((N, S))
        self.cbar = np.empty((N, S))
        self.cdf = np.empty((N, S, S))
        knot_seg = knot_segments(model, grid)
        for k in range(N):
            seg = knot_seg[k]
            for x in range(S):
                mu, nu = strategies.mu[k, x], strategies.nu[k, x]
                self.cbar[k, x] = float(mu @ model.costs[seg, x] @ nu)
                row = np.einsum("a,b,abs->s", mu, nu, model.rates[seg, x])
                row[x] = 0.0
                row = np.clip(row, 0.0, None)
                self.lam_tot[k, x] = row.sum()
                self.cdf[k, x] = np.cumsum(row)
        # prefix[k, x] = int_0^{t_k} cbar(s, x) ds
        self.prefix = np.zeros((N + 1, S))
        np.cumsum(self.cbar * grid.delta, axis=0, out=self.prefix[1:])
        self.q_star = model.q_stars

    def cost_integral(self, t0: float, t1: float, x: int) -> float:
        d = self.grid.delta
        N = self.grid.n_steps
        k0 = min(int(math.floor(t0 / d * (1.0 + 1e-15))), N - 1)
        k1 = min(int(math.floor(t1 / d * (1.0 + 1e-15))), N - 1)
        if k0 == k1:
            return float(self.cbar[k0, x] * (t1 - t0))
        out = self.cbar[k0, x] * ((k0 + 1) * d - t0)
        out += self.prefix[k1, x] - self.prefix[k0 + 1, x]
        out += self.cbar[k1, x] * (t1 - k1 * d)
        return float(out)

    def knot_of(self, t: float) -> int:
        return min(int(math.floor(t / self.grid.delta * (1.0 + 1e-15))), self.grid.n_steps - 1)


def _breaks_on_knots(model: GameModel, grid) -> bool:
    return all(grid.knot_at(b) is not None for b in model.time_breaks[1:])


def _simulate_exponent_finite(
    model: GameModel,
    tables: _FiniteTables,
    t0: float,
    x0: int,
    rng: np.random.Generator,
    factor: float,
) -> float:
    T = model.horizon
    lam = model.lam
    t, x = t0, x0
    exponent = 0.0
    while True:
        qbar = factor * tables.q_star[x]
        if qbar <= 0.0:
            exponent += lam * tables.cost_integral(t, T, x)
            break
        tau = t + rng.exponential(1.0 / qbar)
        if tau >= T:
            exponent += lam * tables.cost_integral(t, T, x)
            break
        k = tables.knot_of(tau)
        lam_tot = tables.lam_tot[k, x]
        if lam_tot > qbar * (1.0 + 1e-9):
            raise SolverError(
                f"thinning bound violated at t={tau:.6g}, state {x}: "
                f"intensity {lam_tot:.6g} > bound {qbar:.6g}"
            )
        exponent += lam * tables.cost_integral(t, tau, x)
        t = tau
        if rng.random() < lam_tot / qbar:
            cdf = tables.cdf[k, x]
            target = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
            x = min(target, model.n_states - 1)
    return exponent + lam * model.terminal[x]


def estimate_J(
    model: GameModel,
    strategies: StrategyField,
    t0: float,
    x0: int,
    config: SimConfig,
) -> MCEstimate:
    """Monte Carlo mean/stderr of exp(exponent) over config.n_paths paths.

    Bit-reproducible for a fixed seed: path i uses the Philox stream keyed
    (seed, i) and the reduction runs in path order.
    """
    fast = isinstance(model.states, FiniteStates) and _breaks_on_knots(model, strategies.grid)
    tables = _FiniteTables(model, strategies) if fast else None

    exps = np.empty(config.n_paths)
    for i in range(config.n_paths):
        rng = _path_rng(config.rng_seed, i)
        if fast:
            exps[i] = _simulate_exponent_finite(
                model, tables, t0, x0, rng, config.rate_bound_factor
            )
        else:
            exps[i] = simulate_path(
                model, strategies, t0, x0, rng, config.rate_bound_factor
            ).exponent

    if np.any(np.abs(exps) > 700.0):
        raise SolverError(
            f"exponent overflow in exp(): max |exponent| = {np.abs(exps).max():.4g}; "
            "rescale the model"
        )
    samples = np.exp(exps)
    mean = float(samples.mean())
    if config.n_paths > 1 and exps.min() < exps.max():
        stderr = float(samples.std(ddof=1) / math.sqrt(config.n_paths))
    else:
        stderr = 0.0  # deterministic paths: exactly zero spread
    return MCEstimate(
        mean=mean,
        stderr=stderr,
        n_paths=config.n_paths,
        min_exponent=float(exps.min()),
        max_exponent=float(exps.max()),
    )
