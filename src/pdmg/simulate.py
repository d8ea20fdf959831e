"""Trajectory simulation and Monte Carlo estimation of the exponential
cost functional J = E[exp(lambda*int c + lambda*g(T, xi_T))].

One walker advances a batch of paths in lockstep over numpy arrays.  Each
iteration moves every unfinished path to its next event: a candidate jump
point, a grid-flow cell crossing, or the horizon.

* Jump times come from thinning.  Candidate points arrive at the rate
  q_bar of the path's state, which bounds the intensity along the flow until
  the next jump.  Gaps are inverse-CDF exponentials -log1p(-u)/q_bar.  A
  candidate is accepted with probability (mixed intensity)/q_bar, and the
  post-jump state is found by a search over the mixed jump row's CDF.
  Actions are never sampled: costs and rates are strategy-averaged.
* The running cost is integrated exactly with prefix sums.  The mixed cost
  and intensity are tabulated per (interval, state) over the merged
  partition of strategy knots and model time breaks, so the integral of c
  from s to t in state x is F_x(t) - F_x(s).
* Grid-flow paths change cell at half-cell crossings: the raw cell index
  steps by one at anchor + (m +- 1/2 - cell0)*width/drift and is folded
  into the grid by the clamp or reflect rule.

Randomness is counter-based: path i reads the Philox4x64-10 stream keyed
(seed, i) with the counter starting at 1, the stream of
``np.random.Philox(key=[seed, i])``.  Its k-th candidate uses block k, whose
first three words become the uniforms of the gap, the acceptance test and
the jump target.  A path's walk therefore does not depend on the batch it
runs in, estimates are reproducible bit for bit, and the trajectories the
CLI dumps are the walks the estimate averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import GameModel, GridFlowStates
from .shapley import SolverError, StrategyField, knot_segments

_BATCH = 1 << 14  # paths walked together; results do not depend on it
# the thinning bound of a state is this factor times its largest total rate:
# any factor >= 1 bounds every intensity, a larger one draws more candidates
_RATE_BOUND_FACTOR = 1.25


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    rng_seed: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")


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
    candidates: int = 0  # thinning candidate points before the horizon
    jumps: int = 0  # accepted candidates
    rejections: int = 0  # rejected candidates
    trajectories: tuple = ()  # the walks of paths 0..record-1


# ---------------------------------------------------------------------------
# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3")

_U64 = (1 << 64) - 1
_LO32, _SHIFT32, _SHIFT11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
# the round multipliers and key increments as columns: lane 0 multiplies
# counter word 0 and carries key word 0, lane 1 multiplies word 2 and carries
# key word 1 (the path index)
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_MUL_LO, _MUL_HI = _MUL & _LO32, _MUL >> _SHIFT32
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def philox_raw(seed: int, paths, counters) -> np.ndarray:
    """Philox4x64-10 blocks keyed (seed, path) at the given counters.

    ``paths`` and ``counters`` broadcast against each other; the result has
    their shape plus a trailing axis of the block's four words.  Block c of
    key (seed, i) holds words 4(c-1) .. 4c-1 of
    ``np.random.Philox(key=[seed, i]).random_raw()``.
    """
    path, counter = np.broadcast_arrays(np.asarray(paths, dtype=np.uint64),
                                        np.asarray(counters, dtype=np.uint64))
    even = np.zeros((2, counter.size), dtype=np.uint64)  # counter words 0 and 2
    even[0] = counter.ravel()
    odd = np.zeros_like(even)  # counter words 1 and 3
    key = np.empty_like(even)
    key[0], key[1] = seed & _U64, path.ravel()
    with np.errstate(over="ignore"):  # words wrap modulo 2**64 by design
        for r in range(10):
            if r:
                key += _WEYL
            # the 128-bit products even*_MUL from 32-bit halves
            lo, hi = even & _LO32, even >> _SHIFT32
            ll, hl = lo * _MUL_LO, lo * _MUL_HI
            mid = (ll >> _SHIFT32) + (hl & _LO32) + hi * _MUL_LO
            high = hi * _MUL_HI + (hl >> _SHIFT32) + (mid >> _SHIFT32)
            even, odd = high[::-1] ^ odd ^ key, (even * _MUL)[::-1]
    return np.stack((even[0], odd[0], even[1], odd[1]), axis=-1).reshape(counter.shape + (4,))


def philox_uniforms(raw: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw words, as ``Generator.random`` makes them."""
    return (raw >> _SHIFT11) * (1.0 / 9007199254740992.0)


# ---------------------------------------------------------------------------
# tables and flow arithmetic


def _rate_bounds(model: GameModel) -> np.ndarray:
    """Per state, an intensity bound valid along the flow from it until the next jump.

    The flow keeps a grid-flow state in its mode, so the bound there is the
    mode's largest q*.
    """
    q = model.q_stars
    sp = model.states
    if isinstance(sp, GridFlowStates):
        q = np.repeat(q.reshape(len(sp.modes), sp.cells).max(axis=1), sp.cells)
    return _RATE_BOUND_FACTOR * q


class _Tables:
    """Mixed cost and intensity per (interval, state) of the time partition.

    The partition merges the strategy knots with the model time breaks
    that do not sit on a knot (``knot_segments`` and ``TimeGrid.knot_at``
    decide which do), so strategies and tables are constant on each
    interval.  ``prefix[i, x]`` is the integral of the mixed cost of state
    x from 0 to ``starts[i]``.
    """

    def __init__(self, model: GameModel, strategies: StrategyField):
        grid = strategies.grid
        N = grid.n_steps
        knots = grid.knots()[:N]
        off = [(b, s) for s, b in enumerate(model.time_breaks) if grid.knot_at(b) is None]
        off_t = np.array([b for b, _ in off])
        starts = np.concatenate([knots, off_t])
        slices = np.concatenate([np.arange(N), np.searchsorted(knots, off_t, side="right") - 1])
        segs = np.concatenate([knot_segments(model, grid)[:N], [s for _, s in off]]).astype(int)
        order = np.argsort(starts, kind="stable")
        self.starts, self.slices, self.segs = starts[order], slices[order], segs[order]
        self.mu, self.nu, self.rates = strategies.mu, strategies.nu, model.rates
        mu, nu = self.mu[self.slices], self.nu[self.slices]
        self.cost = np.einsum("psa,psab,psb->ps", mu, model.costs[self.segs], nu)
        self.intensity = np.einsum("psa,psab,psb->ps", mu, model.q_totals[self.segs], nu)
        self.prefix = np.zeros_like(self.cost)
        np.cumsum(self.cost[:-1] * np.diff(self.starts)[:, None], axis=0, out=self.prefix[1:])

    def interval(self, t: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.starts, t, side="right") - 1

    def integral(self, i: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        """F_x(t) = int_0^t of the mixed cost of state x; i is the interval of t."""
        return self.prefix[i, x] + self.cost[i, x] * (t - self.starts[i])

    def targets(self, i: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Post-jump states: u-quantiles of the mixed jump rows of (i, x)."""
        k, s = self.slices[i], self.segs[i]
        row = np.einsum("na,nb,nabs->ns", self.mu[k, x], self.nu[k, x], self.rates[s, x])
        row[np.arange(len(x)), x] = 0.0
        cdf = np.cumsum(np.clip(row, 0.0, None), axis=1)
        y = (cdf <= (u * cdf[:, -1])[:, None]).sum(axis=1)
        return np.minimum(y, row.shape[1] - 1)


class _Flow:
    """Cell crossings of grid-flow paths.

    A path anchored at time ``ta`` in cell ``c0`` of a mode with drift d sits
    on raw cell index m between the crossings of m -+ 1/2; the crossing out
    of m in the flow's direction is at ta + (m +- 1/2 - c0)*width/d.  The
    cell is m folded into the grid (``GridFlowStates.fold_cells``); under
    the clamp rule a path at an edge cell moving outward never crosses.
    """

    def __init__(self, sp: GridFlowStates):
        drift = np.array([m.drift for m in sp.modes])
        self.space = sp
        self.step = np.sign(drift).astype(int)  # raw-index change at a crossing
        moving = drift != 0.0
        self.period = np.where(moving, sp.cell_width / np.where(moving, drift, 1.0), 0.0)

    def crossing(self, ta, c0, m, mode) -> np.ndarray:
        """Time of the crossing out of raw index m (inf if the cell never changes)."""
        step = self.step[mode]
        t = ta + ((m - c0) + 0.5 * step) * self.period[mode]
        stuck = step == 0
        if self.space.boundary == "clamp":
            stuck = stuck | ((step > 0) & (m >= self.space.cells - 1)) | ((step < 0) & (m <= 0))
        return np.where(stuck, np.inf, t)


# ---------------------------------------------------------------------------
# the walker

_CROSSINGS = 32  # most cell crossings a path takes in one iteration


class _Paths:
    """Per-path state of the unfinished paths of a batch (one array per field)."""

    FIELDS = ("out", "pid", "t", "x", "interval", "integral", "qbar", "tau", "u_accept",
              "u_target", "counter", "mode", "anchor", "cell0", "raw")

    def keep(self, mask: np.ndarray) -> None:
        for name in self.FIELDS:
            value = getattr(self, name, None)
            if value is not None:
                setattr(self, name, value[mask])


class _Walker:
    def __init__(self, model: GameModel, strategies: StrategyField, t0: float, x0: int, seed: int):
        T = model.horizon
        if not 0.0 <= t0 < T:
            raise ValueError("t0 must lie in [0, T)")
        if not 0 <= x0 < model.n_states:
            raise ValueError(f"x0 must be a state index in [0, {model.n_states})")
        self.model, self.t0, self.x0, self.seed = model, float(t0), int(x0), seed & _U64
        self.tables = _Tables(model, strategies)
        self.bounds = _rate_bounds(model)
        sp = model.states
        moving = isinstance(sp, GridFlowStates) and any(m.drift != 0.0 for m in sp.modes)
        self.flow = _Flow(sp) if moving else None

    def run(self, ids: np.ndarray, record: int):
        """Walk paths ``ids``; returns their exponents, the counts (candidates,
        jumps, rejections) and the jumps of paths with id < record as arrays
        (path, time, state, exponent so far) in walk order."""
        model, T, lam = self.model, self.model.horizon, self.model.lam
        n = len(ids)
        exponents = np.empty(n)
        counts = np.zeros(3, dtype=np.int64)
        log: list = []

        p = _Paths()
        p.out, p.pid = np.arange(n), np.asarray(ids, dtype=np.uint64)
        p.t = np.full(n, self.t0)
        p.interval = self.tables.interval(p.t)
        p.integral = np.zeros(n)
        p.x, p.qbar = np.empty(n, dtype=int), np.empty(n)
        p.tau, p.u_accept, p.u_target = np.empty(n), np.empty(n), np.empty(n)
        p.counter = np.ones(n, dtype=np.uint64)
        if self.flow is not None:
            p.mode, p.cell0, p.raw = (np.empty(n, dtype=int) for _ in range(3))
            p.anchor = np.empty(n)
        self._enter(p, np.arange(n), np.full(n, self.x0))
        self._draw(p, np.arange(n))

        while p.t.size:
            reach = np.minimum(p.tau, T)
            if self.flow is None:
                self._integrate(p, reach)
            else:
                self._follow(p, reach)
            cand = np.flatnonzero((p.tau == p.t) & (p.t < T))
            if cand.size:
                self._thin(p, cand, counts, log, record)
            done = p.t >= T
            if done.any():
                exponents[p.out[done]] = lam * p.integral[done] + lam * model.terminal[p.x[done]]
                p.keep(~done)
        return exponents, counts, log

    def _integrate(self, p: _Paths, until: np.ndarray) -> None:
        """Advance the paths to ``until`` in their current states."""
        tab = self.tables
        i = tab.interval(until)
        p.integral += tab.integral(i, until, p.x) - tab.integral(p.interval, p.t, p.x)
        p.t, p.interval = until, i

    def _follow(self, p: _Paths, reach: np.ndarray) -> None:
        """Advance grid-flow paths toward ``reach`` across their cell crossings.

        Up to ``_CROSSINGS`` crossings per path are taken at once; a path with
        more stops on its last one.  The pieces between crossings are added
        one after another, so a path's integral does not depend on how its
        crossings are chunked.
        """
        flow, tab, sp = self.flow, self.tables, self.model.states
        first = flow.crossing(p.anchor, p.cell0, p.raw, p.mode)
        ahead = np.flatnonzero(first < reach)
        if not ahead.size:
            self._integrate(p, reach)
            return
        span = (reach[ahead] - first[ahead]) / np.abs(flow.period[p.mode[ahead]])
        K = int(min(_CROSSINGS, np.ceil(span.max()) + 1))
        step = flow.step[p.mode][:, None]
        raw = p.raw[:, None] + step * np.arange(K + 1)  # raw index of each piece
        cross = flow.crossing(p.anchor[:, None], p.cell0[:, None], raw[:, :K], p.mode[:, None])
        event = np.minimum(reach, cross[:, -1])
        taken = (cross < reach[:, None]) & (cross <= event[:, None])
        ends = np.concatenate([np.where(taken, cross, event[:, None]), event[:, None]], axis=1)
        starts = np.concatenate([p.t[:, None], ends[:, :-1]], axis=1)
        states = p.mode[:, None] * sp.cells + sp.fold_cells(raw)
        i_end = tab.interval(ends)
        i_start = np.concatenate([p.interval[:, None], i_end[:, :-1]], axis=1)
        pieces = tab.integral(i_end, ends, states) - tab.integral(i_start, starts, states)
        p.integral = np.cumsum(np.concatenate([p.integral[:, None], pieces], axis=1), axis=1)[:, -1]
        crossed = taken.sum(axis=1)
        p.raw = raw[np.arange(len(crossed)), crossed]
        p.x = states[np.arange(len(crossed)), crossed]
        p.t, p.interval = event, i_end[:, -1]

    def _draw(self, p: _Paths, sub: np.ndarray) -> None:
        """The next candidate of paths ``sub``: its time and uniforms (none
        while q_bar = 0)."""
        sub = sub[p.qbar[sub] > 0.0]
        if not sub.size:
            return
        u = philox_uniforms(philox_raw(self.seed, p.pid[sub], p.counter[sub]))
        p.counter[sub] += np.uint64(1)
        p.tau[sub] = p.t[sub] - np.log1p(-u[:, 0]) / p.qbar[sub]
        p.u_accept[sub] = u[:, 1]
        p.u_target[sub] = u[:, 2]

    def _enter(self, p: _Paths, sub: np.ndarray, y: np.ndarray) -> None:
        """Paths ``sub`` start afresh in states y at their current time, with
        no candidate drawn yet."""
        p.x[sub] = y
        p.qbar[sub] = self.bounds[y]
        p.tau[sub] = np.inf
        if self.flow is not None:
            p.mode[sub], p.cell0[sub] = np.divmod(y, self.model.states.cells)
            p.raw[sub] = p.cell0[sub]
            p.anchor[sub] = p.t[sub]

    def _thin(self, p: _Paths, sub: np.ndarray, counts, log, record: int) -> None:
        """Accept or reject the candidate points of paths ``sub``."""
        x, i, qbar = p.x[sub], p.interval[sub], p.qbar[sub]
        intensity = self.tables.intensity[i, x]
        bad = np.flatnonzero(intensity > qbar * (1.0 + 1e-9))
        if bad.size:
            b = bad[0]
            raise SolverError(
                f"thinning bound violated at t={p.t[sub[b]]:.6g}, state {x[b]}: "
                f"intensity {intensity[b]:.6g} > bound {qbar[b]:.6g}"
            )
        accept = p.u_accept[sub] < intensity / qbar
        jumped = sub[accept]
        counts += (sub.size, jumped.size, sub.size - jumped.size)
        if jumped.size:
            y = self.tables.targets(i[accept], x[accept], p.u_target[jumped])
            kept = p.pid[jumped] < np.uint64(record)
            if kept.any():
                w = jumped[kept]
                log.append((p.pid[w].astype(np.int64), p.t[w], y[kept], self.model.lam * p.integral[w]))
            self._enter(p, jumped, y)
        self._draw(p, sub)


def _trajectories(t0: float, x0: int, log: list, first: int, exponents: np.ndarray) -> tuple:
    """Trajectories of paths first, first+1, ... (one per exponent) from the walker's jump log."""
    cols = [np.concatenate(c) for c in zip(*log)] if log else [np.zeros(0, dtype=int)] * 4
    order = np.argsort(cols[0], kind="stable")
    pid, times, states, expo = (c[order] for c in cols)
    cuts = np.searchsorted(pid, np.arange(first, first + len(exponents) + 1))
    times, states, expo = times.tolist(), states.tolist(), expo.tolist()
    return tuple(
        Trajectory(t0, x0, list(zip(times[a:b], states[a:b])), expo[a:b], float(exponents[i]))
        for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))
    )


def _walk_paths(model, strategies, t0, x0, seed, n_paths, record, first=0):
    """Exponents, counts and trajectories of paths first..first+n_paths-1."""
    walker = _Walker(model, strategies, t0, x0, seed)
    exponents = np.empty(n_paths)
    counts = np.zeros(3, dtype=np.int64)
    log: list = []
    for lo in range(0, n_paths, _BATCH):
        hi = min(n_paths, lo + _BATCH)
        exponents[lo:hi], c, batch_log = walker.run(np.arange(first + lo, first + hi), record)
        counts += c
        log += batch_log
    return exponents, counts, log


def simulate_path(
    model: GameModel,
    strategies: StrategyField,
    t0: float,
    x0: int,
    seed: int,
    path: int = 0,
) -> Trajectory:
    """Path ``path`` of the walk keyed by ``seed``: the same trajectory that
    :func:`estimate_J` averages as its path of that index."""
    exponents, _, log = _walk_paths(model, strategies, t0, x0, seed, 1, path + 1, first=path)
    return _trajectories(t0, x0, log, path, exponents)[0]


def estimate_J(
    model: GameModel,
    strategies: StrategyField,
    t0: float,
    x0: int,
    config: SimConfig,
    record: int = 0,
) -> MCEstimate:
    """Monte Carlo mean/stderr of exp(exponent) over config.n_paths paths.

    Bit-reproducible for a fixed seed: path i uses the Philox stream keyed
    (seed, i) and the reduction runs in path order.  The walks of the first
    ``record`` paths are returned as ``trajectories``.
    """
    n = config.n_paths
    record = max(0, min(record, n))
    exps, counts, log = _walk_paths(model, strategies, t0, x0, config.rng_seed, n, record)
    if np.any(np.abs(exps) > 700.0):
        raise SolverError(
            f"exponent overflow in exp(): max |exponent| = {np.abs(exps).max():.4g}; "
            "rescale the model"
        )
    samples = np.exp(exps)
    mean = float(samples.mean())
    if n > 1 and exps.min() < exps.max():
        stderr = float(samples.std(ddof=1) / math.sqrt(n))
    else:
        stderr = 0.0  # deterministic paths: exactly zero spread
    return MCEstimate(
        mean=mean,
        stderr=stderr,
        n_paths=n,
        min_exponent=float(exps.min()),
        max_exponent=float(exps.max()),
        candidates=int(counts[0]),
        jumps=int(counts[1]),
        rejections=int(counts[2]),
        trajectories=_trajectories(t0, x0, log, 0, exps[:record]),
    )
