"""Exact solver for finite two-person zero-sum matrix games.

The row player maximises, the column player minimises.  ``solve`` reduces
one game to a pair of primal/dual linear programs (shift entries positive,
maximise the column player's scaled mixture) and solves it by a dense
tableau simplex with Bland's rule, one pivot loop over a tableau of floats
or of Fractions.  The fast path runs in floats with periodic basis
reinversion.  The game is re-solved on Fractions, in exact arithmetic, when
the float duality certificate misses the requested tolerance
(near-duplicate rows can make the optimal basis arbitrarily
ill-conditioned) or the float solve gives up: its basis repeats while it
reinverts after every pivot, it meets a singular basis or it passes its
pivot cap.

``solve_stack`` solves a whole stack of small padded games at once.  A
masked maximin == minimax test settles the games with a pure saddle; the
square games left get their equalizing strategies from one batched linear
solve (Shapley and Snow, *Basic solutions of discrete games*, 1950: an
extreme optimal pair comes from a square nonsingular submatrix, here the
full one); a game is accepted only when both mixtures are nonnegative and
the duality certificate of ``solve`` holds on it.  Every other game goes
through ``solve`` one at a time.

A saddle whose support is 1x1 or 2x2 can be carried to a nearby game:
``carried_supports`` records the supports of a stack of saddles,
``support_values`` values a stack of games on them (the entry, or the
closed-form 2x2 equalizer), and ``certify_supports`` builds the mixtures of
a whole chunk of such stacks and certifies them in one masked call.

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
from typing import NamedTuple, Optional

import numpy as np

# Largest duality gap a settled game may carry: the certificate of every
# cell game the solvers settle.
GAME_TOL = 1e-9
_PIVOT_EPS = 1e-11
_MAX_PIVOTS = 50_000

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
    """Bland-rule pivots in place, at most ``cap``; returns the count.  Only
    entries above ``eps`` pivot: ``_PIVOT_EPS`` on floats, 0 on Fractions."""
    pivots = 0
    for _ in range(cap):
        cost = tab[m, :-1]
        enter = -1
        for j in range(n_total):  # Bland: lowest improving index
            if cost[j] > eps:
                enter = j
                break
        if enter < 0:
            return pivots
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
    return pivots


def _initial_tableau(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The tableau [A I b; c 0 0] of max c.x s.t. A x <= b, x >= 0, and its slack basis."""
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n:-1] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = c
    return tab, list(range(n, n + m))


def _refreshed_tableau(A_full: np.ndarray, b: np.ndarray, c_full: np.ndarray, basis: list):
    """Rebuild the tableau at a basis from the original data.

    Recomputing B^-1 against the inputs discards the arithmetic drift that
    accumulates over degenerate pivot sequences.
    """
    m = A_full.shape[0]
    B = A_full[:, basis]
    try:
        inv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise MatrixGameError("singular basis during refresh") from exc
    tab = np.zeros((m + 1, A_full.shape[1] + 1))
    tab[:m, :-1] = inv @ A_full
    tab[:m, -1] = inv @ b
    y = c_full[basis] @ inv
    tab[m, :-1] = c_full - y @ A_full
    tab[m, -1] = -float(c_full[basis] @ tab[:m, -1])
    return tab


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Maximise c.x subject to A x <= b, x >= 0 with b >= 0.

    Returns (x, duals, objective).  The final basis is reinverted against
    the original data (repeating if that uncovers further improving
    columns) so the returned vertex is clean to rounding.
    """
    m, n = A.shape
    tab, basis = _initial_tableau(A, b, c)
    A_full, c_full = tab[:m, :-1].copy(), tab[m, :-1].copy()

    # Refresh the tableau from the original data every few dozen pivots:
    # pivot decisions then always see near-exact entries, so degenerate
    # sequences can neither drift nor walk into a singular basis.  If a
    # basis repeats across refresh cycles, a drifted comparison inside the
    # window flipped a choice (near-duplicate rows with tiny splits do
    # this); fall back to refreshing after every single pivot, where the
    # Bland argument applies verbatim.  There each basis, in its order,
    # fixes the next one, so a basis that repeats there cycles for good:
    # the float solve gives up at once and ``solve`` re-solves exactly.
    window = max(50, 2 * (m + n))
    total = 0
    seen = set()
    while True:
        total += _pivot_loop(tab, basis, m, n + m, window, _PIVOT_EPS)
        if total > _MAX_PIVOTS:
            raise MatrixGameError("simplex iteration cap exceeded (rescale the game)")
        tab = _refreshed_tableau(A_full, b, c_full, basis)
        if not np.any(tab[m, :-1] > _PIVOT_EPS):
            break
        key = tuple(sorted(basis)) if window > 1 else tuple(basis)
        if key in seen:
            if window == 1:
                raise MatrixGameError("simplex cycles under per-pivot refresh")
            window, seen = 1, set()
        seen.add(key)

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


def _exact_simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The same LP in exact rational arithmetic: the float tableau's entries
    as Fractions (every float is a dyadic rational) through the same Bland
    pivot loop, which cannot cycle there and ends at the exact optimum.
    Fallback path for conditioning-pathological games."""
    m, n = A.shape
    tab, basis = _initial_tableau(A, b, c)
    tab = np.array([[Fraction(v) for v in row] for row in tab.tolist()], dtype=object)
    if _pivot_loop(tab, basis, m, n + m, 1_000_000, 0) == 1_000_000:
        raise MatrixGameError("exact simplex failed to terminate")
    x = [Fraction(0)] * (n + m)
    for i, bi in enumerate(basis):
        x[bi] = tab[i, -1]
    return x[:n], list(-tab[m, n:-1]), -tab[m, -1]


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

    shift = 1.0 - float(p.min())
    shifted = p + shift  # all entries >= 1 so the game value is positive

    # column player: maximise 1.w subject to shifted.w <= 1, w >= 0
    COUNTS["simplex"] += 1
    try:
        w, duals, obj = _simplex_max(shifted, np.ones(m), np.ones(n))
        if obj > 0.0 and duals.sum() > 0.0:
            # reinverted bases can leave O(1e-14) negative dust on a vertex
            col_mix = np.clip(w, 0.0, None)
            col_mix = col_mix / col_mix.sum()
            row_mix = np.clip(duals, 0.0, None)
            row_mix = row_mix / row_mix.sum()
            value = 1.0 / obj - shift
            gap = _certificate(p, value, row_mix, col_mix)
            if gap <= tol:
                return GameSolution(value, row_mix, col_mix, gap)
    except MatrixGameError:
        pass

    # conditioning-pathological game: re-solve exactly in rationals
    COUNTS["exact"] += 1
    w, duals, obj = _exact_simplex_max(shifted, np.ones(m), np.ones(n))
    wsum = sum(w, Fraction(0))
    dsum = sum(duals, Fraction(0))
    if wsum <= 0 or dsum <= 0 or obj <= 0:
        raise MatrixGameError("degenerate game after exact solve")
    col_mix = np.array([float(v / wsum) for v in w])
    row_mix = np.array([float(v / dsum) for v in duals])
    value = float(1 / obj - Fraction(shift))
    gap = _certificate(p, value, row_mix, col_mix)
    if gap > tol:
        raise MatrixGameError(f"duality gap {gap:.3e} exceeds tolerance {tol:.3e}")
    return GameSolution(value, row_mix, col_mix, gap)


def _equalizers(Q: np.ndarray):
    """Certified full-support equalizing strategies of square games Q (L, s, s).

    Solves [Q -1; 1^T 0] [y; v] = [0; 1] and the same system for Q^T in
    one batched call, each game scaled by its largest entry (the bordered
    form needs no shift, so value-0 games such as matching pennies stay
    nonsingular).  Returns (ok, value, row_mix, col_mix): ``ok`` marks the
    games whose mixtures are nonnegative with the duality gap of
    ``_certificate`` <= ``GAME_TOL`` (which fails for a non-finite value).
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
    ok &= _certificate(Q, value, row_mix, col_mix) <= GAME_TOL
    return ok, value, row_mix, col_mix


def solve_stack(payoffs, mask, fallback=solve):
    """Values and saddle mixtures of a stack of zero-padded games.

    ``payoffs`` (..., A, B) holds one game per leading index; ``mask``
    (broadcastable to it) marks each game's admissible entries, the leading
    m rows and n columns.  Returns the values (...,) and the row and column
    mixtures (..., A) and (..., B), zero past each game's m and n.  Pure
    saddles (exact) and certified full-support equalizers of square games
    are settled in batch; every other game goes through ``fallback``
    (``solve`` by default), so every answer has a certified gap <= GAME_TOL.
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

    # 4. the rest, one at a time
    for c in np.flatnonzero(left).tolist():
        sol = fallback(MatrixGame(P[c, : m[c], : n[c]]))
        value[c] = sol.value
        row_mix[c, : m[c]] = sol.row_mix
        col_mix[c, : n[c]] = sol.col_mix
    return value.reshape(lead), row_mix.reshape(lead + (A,)), col_mix.reshape(lead + (B,))


class Supports(NamedTuple):
    """1x1 and 2x2 supports of a stack of G zero-padded (A, B) games.

    ``take`` (4, G) holds the flat indices into the stack of each game's
    support corners (i0, j0), (i0, j1), (i1, j0), (i1, j1), with i0 == i1
    and j0 == j1 on a 1x1 support; ``unpaired`` (G,) is 1.0 on those and
    0.0 on the 2x2 supports.
    """

    take: np.ndarray
    unpaired: np.ndarray


def carried_supports(row_mix: np.ndarray, col_mix: np.ndarray) -> Optional[Supports]:
    """Supports of a stack of saddles (G, A), (G, B); None unless each is 1x1 or 2x2."""
    rows, cols = row_mix > 0.0, col_mix > 0.0
    r, c = rows.sum(axis=1), cols.sum(axis=1)
    paired = (r == 2) & (c == 2)
    if not np.all(paired | ((r == 1) & (c == 1))):
        return None
    (G, A), B = rows.shape, cols.shape[1]
    i0, i1 = rows.argmax(axis=1), A - 1 - rows[:, ::-1].argmax(axis=1)
    j0, j1 = cols.argmax(axis=1), B - 1 - cols[:, ::-1].argmax(axis=1)
    corners = np.stack([i0 * B + j0, i0 * B + j1, i1 * B + j0, i1 * B + j1])
    return Supports(np.arange(G) * (A * B) + corners, (~paired).astype(float))


def support_values(payoffs: np.ndarray, sup: Supports) -> np.ndarray:
    """Values of a stack of games (G, A, B) on carried supports.

    A 1x1 support takes its entry a; a 2x2 support [[a, b], [c, d]] the
    equalizer value a - b'c'/(d' - b' - c') on the entries shifted by a
    (b' = b - a, ...).  Unshifted, a + d - b - c is small against the
    entries and the subtraction cancels digits.
    """
    a, b, c, d = payoffs.reshape(-1)[sup.take]
    b, c, d = b - a, c - a, d - a
    return a - b * c / (d - b - c + sup.unpaired)


def certify_supports(payoffs: np.ndarray, mask, value: np.ndarray, sup: Supports):
    """Mixtures of a chunk of game stacks (K, G, A, B) on carried supports, certified at once.

    ``value`` (K, G) are the games' values from :func:`support_values`.  The
    row player puts p = (d' - c')/(d' - b' - c') on row i0 and 1 - p on
    row i1, the column player q = (d' - b')/(d' - b' - c') on column j0
    (1 on the corner of a 1x1 support).  Returns (ok, row_mix, col_mix):
    ``ok`` (K, G) marks the games whose mixtures are nonnegative with a
    duality gap <= ``GAME_TOL`` over their admissible entries (``mask``),
    which fails for a non-finite value.
    """
    K, G, A, B = payoffs.shape
    a, b, c, d = np.moveaxis(payoffs.reshape(K, -1)[:, sup.take], 1, 0)
    b, c, d = b - a, c - a, d - a
    paired = sup.unpaired == 0.0
    den = d - b - c + sup.unpaired
    p = np.where(paired, (d - c) / den, 1.0)
    q = np.where(paired, (d - b) / den, 1.0)
    corner = sup.take % (A * B)
    i0, i1, j0, j1 = corner[0] // B, corner[2] // B, corner[0] % B, corner[1] % B
    g = np.arange(G)
    row_mix, col_mix = np.zeros((K, G, A)), np.zeros((K, G, B))
    row_mix[:, g, i1] = 1.0 - p
    row_mix[:, g, i0] = p  # after i1: the two are one row on a 1x1 support
    col_mix[:, g, j1] = 1.0 - q
    col_mix[:, g, j0] = q
    ok = (p >= 0.0) & (p <= 1.0) & (q >= 0.0) & (q <= 1.0)
    ok &= _certificate(payoffs, value, row_mix, col_mix, mask) <= GAME_TOL
    return ok, row_mix, col_mix
