"""Exact solver for finite two-person zero-sum matrix games.

The row player maximises, the column player minimises.  ``solve`` reduces
one game to a pair of primal/dual linear programs (shift entries positive,
maximise the column player's scaled mixture) and solves it by a dense
tableau simplex with Bland's rule: one pass per number type through one
pivot loop, first in floats under a pivot cap of the game's size.  Bland's
rule ends only in exact arithmetic, so the duality certificate decides.
When it misses the requested tolerance (near-duplicate rows can make the
optimal basis arbitrarily ill-conditioned), or the float pass reaches its
cap or a singular basis, the exactly shifted game is solved in Fractions.

``solve_stack`` solves a whole stack of small padded games at once.  A
masked maximin == minimax test settles the games with a pure saddle; the
square games left get their equalizing strategies from one batched linear
solve (Shapley and Snow, *Basic solutions of discrete games*, 1950: an
extreme optimal pair comes from a square nonsingular submatrix, here the
full one); a game is accepted only when both mixtures are nonnegative and
``certified`` holds on it.  Every other game goes through ``solve`` one at
a time, scaled by a power of two to a largest |entry| in [1, 2).

``certified`` is the one test of a settled game: the duality gap of a
mixture pair at a value is at most ``GAME_TOL`` times the game's largest
|entry|, so that the test keeps its meaning for entries of any scale.  The
equalizers of ``solve_stack`` and the carried saddles of the backward
stepper pass it; ``solve`` alone compares the gap with an absolute ``tol``
of its own, for a game a user hands it.

``COUNTS`` tallies the route that settled each game since the last
``reset_counts()``: pure saddles and equalizers of ``solve_stack``, float
simplex runs and exact-rational re-solves of ``solve``.  Once a solver has
carried supports it also holds ``locked`` (games accepted on a carried
support) and ``discarded`` (games valued on one and then thrown away below
a failed certificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Largest duality gap a settled game may carry, relative to its largest
# |entry|: the certificate of every cell game the solvers settle, and the
# default absolute tolerance of ``solve``.
GAME_TOL = 1e-9
_PIVOT_EPS = 1e-11
# Pivots a float pass may take per row and column of its game: the most
# pivot-hungry of 16,000 random and ill-conditioned games took 3.5
_FLOAT_PIVOTS = 10

_FRACTIONS = np.frompyfunc(Fraction, 1, 1)  # an array's entries as Fractions, exactly

_ROUTES = ("pure_saddle", "equalizer", "simplex", "exact")
COUNTS = dict.fromkeys(_ROUTES, 0)


def reset_counts() -> None:
    COUNTS.clear()
    COUNTS.update(dict.fromkeys(_ROUTES, 0))


def count_locked(accepted: int, discarded: int) -> None:
    """Tally games accepted on a carried support, and games valued on one and then thrown away."""
    COUNTS["locked"] = COUNTS.get("locked", 0) + accepted
    COUNTS["discarded"] = COUNTS.get("discarded", 0) + discarded


class MatrixGameError(RuntimeError):
    pass


@dataclass(frozen=True)
class MatrixGame:
    payoffs: np.ndarray  # shape (m, n); row maximises

    def __post_init__(self):
        p = np.asarray(self.payoffs, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise MatrixGameError("payoff matrix must be 2-d with m, n >= 1")
        if not np.all(np.isfinite(p)):
            raise MatrixGameError("payoff matrix contains non-finite entries")
        object.__setattr__(self, "payoffs", p)


@dataclass(frozen=True)
class GameSolution:
    value: float
    row_mix: np.ndarray
    col_mix: np.ndarray
    gap: float  # certified duality gap >= 0


def _pivot_loop(tab: np.ndarray, basis: list, m: int, n_total: int, cap: int, eps) -> int:
    """Bland-rule pivots in place until no cost entry is above ``eps``;
    returns their count, and raises ``MatrixGameError`` rather than pivot
    more than ``cap`` times.  Only entries above ``eps`` pivot:
    ``_PIVOT_EPS`` on floats, 0 on Fractions."""
    pivots = 0
    while True:
        cost = tab[m, :-1]
        enter = -1
        for j in range(n_total):  # Bland: lowest improving index
            if cost[j] > eps:
                enter = j
                break
        if enter < 0:
            return pivots
        if pivots == cap:
            raise MatrixGameError(f"simplex reached its cap of {cap} pivots")
        col = tab[:m, enter]
        best, leave = None, -1
        for i in range(m):
            if col[i] > eps:
                ratio = tab[i, -1] / col[i]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            raise MatrixGameError("LP unbounded (shifted game should be bounded)")
        piv = tab[leave, enter]
        tab[leave] /= piv
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter
        pivots += 1


def _initial_tableau(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The tableau [A I b; c 0 0] of max c.x s.t. A x <= b, x >= 0, and its
    slack basis; an object tableau when A holds Fractions."""
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1), dtype=np.result_type(A, b, c))
    tab[:m, :n] = A
    tab[:m, n:-1] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = c
    return tab, list(range(n, n + m))


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Maximise c.x subject to A x <= b, x >= 0 with b >= 0, in one float pass.

    Returns (x, duals, objective): Bland-rule pivots from the slack basis,
    at most ``_FLOAT_PIVOTS`` per row and column, then the vertex of the
    final basis solved against the original data (``_polished_vertex``).
    Bland's rule ends at the optimum only in exact arithmetic, so nothing
    here claims one: ``solve``'s duality certificate decides.  Raises
    ``MatrixGameError`` at the cap, ``np.linalg.LinAlgError`` at a singular
    final basis.
    """
    m, n = A.shape
    tab, basis = _initial_tableau(A, b, c)
    A_full, c_full = tab[:m, :-1].copy(), tab[m, :-1].copy()
    _pivot_loop(tab, basis, m, n + m, _FLOAT_PIVOTS * (m + n), _PIVOT_EPS)
    x_b, duals = _polished_vertex(A_full, b, c_full, basis)
    x = np.zeros(n + m)
    x[basis] = x_b
    return x[:n], duals, float(c_full[basis] @ x_b)


def _polished_vertex(A_full: np.ndarray, b: np.ndarray, c_full: np.ndarray, basis: list):
    """Primal/dual vertex at a basis, with one extended-precision
    refinement step: near-duplicate active constraints make the basis
    ill-conditioned enough (cond ~ 1e7) that plain double solves leave
    ~1e-8 residue in the mixtures."""
    B = A_full[:, basis]
    cb = c_full[basis]
    x = np.linalg.solve(B, b)
    r = np.asarray(b, dtype=np.longdouble) - B.astype(np.longdouble) @ x.astype(np.longdouble)
    x = x + np.linalg.solve(B, r.astype(np.float64))
    y = np.linalg.solve(B.T, cb)
    r2 = cb.astype(np.longdouble) - B.T.astype(np.longdouble) @ y.astype(np.longdouble)
    y = y + np.linalg.solve(B.T, r2.astype(np.float64))
    return x, y


def _certificate(payoffs: np.ndarray, value, row_mix, col_mix, mask=None):
    """Duality gap of a mixture pair at ``value``: of one game, or of each game of a stack.

    With ``mask`` (broadcastable to the payoffs) only the admissible rows and
    columns of zero-padded games count.
    """
    lo = (row_mix[..., None, :] @ payoffs)[..., 0, :]
    hi = (payoffs @ col_mix[..., None])[..., 0]
    if mask is not None:
        lo = np.where(mask[..., 0, :], lo, np.inf)
        hi = np.where(mask[..., :, 0], hi, -np.inf)
    return np.maximum(np.maximum(value - lo.min(axis=-1), hi.max(axis=-1) - value), 0.0)


def certified(payoffs: np.ndarray, value, row_mix, col_mix, mask=None):
    """Whether the duality gap of ``_certificate`` is at most ``GAME_TOL``
    times the game's largest |entry| (padded entries are 0): of one game, or
    of each game of a stack.  False for a non-finite value or gap."""
    gap = _certificate(payoffs, value, row_mix, col_mix, mask)
    # an infinite entry makes the tolerance infinite, and inf <= inf
    return (gap <= GAME_TOL * np.abs(payoffs).max(axis=(-2, -1))) & (gap < np.inf)


def _exact_simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The same LP in exact rational arithmetic: the tableau's entries as
    Fractions (every float is a dyadic rational; A may hold Fractions)
    through the same Bland pivot loop, which cannot cycle there and ends at
    the exact optimum.  Returns (x, duals, objective) as Fractions."""
    m, n = A.shape
    tab, basis = _initial_tableau(A, b, c)
    tab = _FRACTIONS(tab)
    _pivot_loop(tab, basis, m, n + m, 1_000_000, 0)
    x = [Fraction(0)] * (n + m)
    for i, bi in enumerate(basis):
        x[bi] = tab[i, -1]
    return x[:n], list(-tab[m, n:-1]), -tab[m, -1]


def _settled(p: np.ndarray, shift, w, duals, obj) -> GameSolution:
    """The solution of game ``p`` read from the LP optimum (w, duals, obj) of
    ``p + shift``, in floats or in Fractions, with its duality gap."""
    # a float vertex can carry O(1e-14) negative dust
    w, duals = np.clip(w, 0, None), np.clip(duals, 0, None)
    if not (obj > 0 and w.sum() > 0 and duals.sum() > 0):
        raise MatrixGameError("degenerate game after the simplex")
    col_mix = (w / w.sum()).astype(float)
    row_mix = (duals / duals.sum()).astype(float)
    value = float(1 / obj - shift)
    return GameSolution(value, row_mix, col_mix, _certificate(p, value, row_mix, col_mix))


def solve(game: MatrixGame, tol: float = GAME_TOL) -> GameSolution:
    """Value and mixed saddle strategies with a certified duality gap <= tol."""
    if not tol >= 0.0:  # a NaN tolerance would certify any gap
        raise ValueError(f"tol must be >= 0, got {tol}")
    p = game.payoffs
    m, n = p.shape

    if m == 1:
        j = int(np.argmin(p[0]))
        value = float(p[0, j])
        col = np.zeros(n)
        col[j] = 1.0
        return GameSolution(value, np.ones(1), col, _certificate(p, value, np.ones(1), col))
    if n == 1:
        i = int(np.argmax(p[:, 0]))
        value = float(p[i, 0])
        row = np.zeros(m)
        row[i] = 1.0
        return GameSolution(value, row, np.ones(1), _certificate(p, value, row, np.ones(1)))

    # column player: maximise 1.w subject to (p + shift).w <= 1, w >= 0 with
    # every entry of p + shift >= 1; the game value is 1/max - shift.  One
    # float pass first (none when p + shift overflows) and, unless its
    # certificate holds, the exactly shifted game in Fractions.  Non-finite
    # float arithmetic fails the certificate, so it warns of nothing.
    ones = np.ones(m), np.ones(n)
    shift = 1.0 - float(p.min())
    with np.errstate(all="ignore"):
        shifted = p + shift
        if np.isfinite(shifted).all():
            COUNTS["simplex"] += 1
            try:
                sol = _settled(p, shift, *_simplex_max(shifted, *ones))
                if sol.gap <= tol:
                    return sol
            except (MatrixGameError, np.linalg.LinAlgError):
                pass
        COUNTS["exact"] += 1
        shift = 1 - Fraction(p.min())
        sol = _settled(p, shift, *_exact_simplex_max(_FRACTIONS(p) + shift, *ones))
    if not sol.gap <= tol:
        raise MatrixGameError(f"duality gap {sol.gap:.3e} exceeds tolerance {tol:.3e}")
    return sol


def _equalizers(Q: np.ndarray):
    """Certified full-support equalizing strategies of square games Q (L, s, s).

    Solves [Q -1; 1^T 0] [y; v] = [0; 1] and the same system for Q^T in
    one batched call, each game scaled by its largest entry (the bordered
    form needs no shift, so value-0 games such as matching pennies stay
    nonsingular).  Returns (ok, value, row_mix, col_mix): ``ok`` marks the
    games whose mixtures are nonnegative and ``certified``.
    """
    L, s = Q.shape[:2]
    scale = np.abs(Q).max(axis=(1, 2))  # > 0: an all-zero game is a pure saddle
    M = np.zeros((2, L, s + 1, s + 1))
    M[0, :, :s, :s] = Q / scale[:, None, None]
    M[1, :, :s, :s] = np.swapaxes(M[0, :, :s, :s], 1, 2)
    M[:, :, :s, s] = -1.0
    M[:, :, s, :s] = 1.0
    rhs = np.zeros((s + 1, 1))
    rhs[s] = 1.0
    try:
        sol = np.linalg.solve(M, rhs)[..., 0]
    except np.linalg.LinAlgError:  # some system is exactly singular
        sol = np.full((2, L, s + 1), np.nan)
        usable = np.all(np.linalg.det(M) != 0.0, axis=0)
        sol[:, usable] = np.linalg.solve(M[:, usable], rhs)[..., 0]
    mixes = sol[:, :, :s] / sol[:, :, :s].sum(axis=2, keepdims=True)
    col_mix, row_mix = mixes
    value = sol[0, :, s] * scale + 0.0  # + 0.0: no -0.0
    ok = (row_mix >= 0.0).all(axis=1) & (col_mix >= 0.0).all(axis=1)
    ok &= certified(Q, value, row_mix, col_mix)
    return ok, value, row_mix, col_mix


def solve_stack(payoffs, mask, fallback=solve):
    """Values and saddle mixtures of a stack of zero-padded games.

    ``payoffs`` (..., A, B) holds one game per leading index; ``mask``
    (broadcastable to it) marks each game's admissible entries, the leading
    m rows and n columns.  Returns the values (...,) and the row and column
    mixtures (..., A) and (..., B), zero past each game's m and n.  Pure
    saddles (exact) and certified full-support equalizers of square games
    are settled in batch; every other game goes through ``fallback``
    (``solve`` by default), so every answer has a certified gap <= GAME_TOL
    times its largest |entry|.
    A stack of 1x1 games is all pure saddles: each value is its entry.
    """
    P = np.asarray(payoffs, dtype=float)
    lead, (A, B) = P.shape[:-2], P.shape[-2:]
    if A == B == 1:  # a game's one entry is admissible and its value
        value = P.reshape(lead).copy()
        if not np.isfinite(value).all():
            raise MatrixGameError("payoff matrix contains non-finite entries")
        COUNTS["pure_saddle"] += value.size
        return value, np.ones(lead + (1,)), np.ones(lead + (1,))
    mask = np.broadcast_to(mask, P.shape).reshape(-1, A, B)
    P = np.where(mask, P.reshape(-1, A, B), 0.0)
    if not np.isfinite(P).all():
        raise MatrixGameError("payoff matrix contains non-finite entries")
    rows, cols = mask[:, :, 0], mask[:, 0, :]
    m, n = rows.sum(axis=1), cols.sum(axis=1)

    # 1. pure saddles: maximin == minimax, at the lowest maximin row and
    #    the lowest minimax column
    row_min = np.where(mask, P, np.inf).min(axis=2)
    col_max = np.where(mask, P, -np.inf).max(axis=1)
    i = np.where(rows, row_min, -np.inf).argmax(axis=1)
    j = np.where(cols, col_max, np.inf).argmin(axis=1)
    k = np.arange(len(P))
    value = row_min[k, i]
    pure = value == col_max[k, j]
    row_mix = np.zeros((len(P), A))
    col_mix = np.zeros((len(P), B))
    row_mix[k, i] = col_mix[k, j] = pure
    COUNTS["pure_saddle"] += int(pure.sum())

    # 2.-3. square games left: certified full-support equalizers
    left = ~pure
    square = left & (m == n)
    with np.errstate(all="ignore"):
        for s in set(m[square].tolist()):
            idx = np.flatnonzero(square & (m == s))
            ok, v, x, y = _equalizers(P[idx, :s, :s])
            idx = idx[ok]
            value[idx], row_mix[idx, :s], col_mix[idx, :s] = v[ok], x[ok], y[ok]
            left[idx] = False
            COUNTS["equalizer"] += len(idx)

    # 4. the rest, one at a time, each divided by the power of two 2^e at
    #    or below its largest |entry| (exact but for entries below 2^-1022
    #    of it), so that the fallback's absolute tolerance is relative to
    #    the game's scale; the value is multiplied back
    for c in np.flatnonzero(left).tolist():
        e = int(np.frexp(np.abs(P[c]).max())[1]) - 1
        sol = fallback(MatrixGame(np.ldexp(P[c, : m[c], : n[c]], -e)))
        value[c] = np.ldexp(sol.value, e)
        row_mix[c, : m[c]] = sol.row_mix
        col_mix[c, : n[c]] = sol.col_mix
    return value.reshape(lead), row_mix.reshape(lead + (A,)), col_mix.reshape(lead + (B,))
