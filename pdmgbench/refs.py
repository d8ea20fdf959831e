"""Independent references and output checkers for the pdmg benchmark.

Nothing here imports pdmg: the references are computed from the model
documents (plain JSON) with closed forms and a small integrator of the
Shapley ODE, and the checkers read the CSV/JSON artifacts the CLI writes.
Every checker returns a list of failure messages (empty when the output
passes), so one run can report every fault it sees.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

CSV_REL = 1e-11  # the solution CSV carries 12 significant digits
# Richardson budget: the extrapolant 2*phi_2N - phi_N of a first-order
# scheme must be within RICH_RHO times max|phi_N - phi_2N| of the truth.
# Its error is a fraction O(Delta) of that difference; the largest fraction
# on the workloads' models and step counts is 0.017 (Picard on
# nonneg_ladder at N=100), and 0.1 leaves a margin of six.
RICH_RHO = 0.1
EXACT_REL = 1e-9  # floor for schemes that are exact on a model


# ---------------------------------------------------------------------------
# model documents


def finite_tables(doc: dict):
    """(lam, T, terminal g, costs[x] (m,n), rates[x] (m,n,S) with diagonal).

    Only finite, time-homogeneous documents are supported: those are the
    models the references below cover.
    """
    if "finite" not in doc["states"] or doc.get("segments"):
        raise ValueError("reference tables need a finite, single-segment model")
    S = len(doc["states"]["finite"])
    p1, p2 = doc["actions"]["p1"], doc["actions"]["p2"]
    p1 = p1 * S if len(p1) == 1 else p1
    p2 = p2 * S if len(p2) == 1 else p2
    costs = [np.zeros((len(p1[x]), len(p2[x]))) for x in range(S)]
    rates = [np.zeros((len(p1[x]), len(p2[x]), S)) for x in range(S)]
    for e in doc.get("costs", []):
        x = e["state"]
        costs[x][p1[x].index(e["a"]), p2[x].index(e["b"])] = e["value"]
    for e in doc.get("rates", []):
        x = e["from"]
        rates[x][p1[x].index(e["a"]), p2[x].index(e["b"]), e["to"]] = e["rate"]
    for x in range(S):
        rates[x][:, :, x] = -(rates[x].sum(axis=2) - rates[x][:, :, x])
    g = np.zeros(S)
    for e in doc.get("terminal", []):
        g[e["state"]] = e["value"]
    return float(doc["lambda"]), float(doc["horizon"]), g, costs, rates


# ---------------------------------------------------------------------------
# games and the Shapley ODE


def game_value(A: np.ndarray) -> float:
    """Value of a zero-sum game (row maximises) with one side of size <= 2.

    1 x n and m x 1 games are pure; 2 x 2 games use the closed form
    (ad - bc)/(a + d - b - c) when no pure saddle exists.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if m == 1:
        return float(A[0].min())
    if n == 1:
        return float(A[:, 0].max())
    if (m, n) != (2, 2):
        raise ValueError("closed-form value needs a 1 x n, m x 1 or 2 x 2 game")
    lower = max(A[0].min(), A[1].min())
    upper = min(A[:, 0].max(), A[:, 1].max())
    if upper - lower <= 1e-15 * max(1.0, abs(upper)):
        return float(lower)
    a, b, c, d = A[0, 0], A[0, 1], A[1, 0], A[1, 1]
    return float((a * d - b * c) / (a + d - b - c))


def shapley_ode(doc: dict, steps: int = 8000):
    """phi(t, x) on a uniform grid of `steps` intervals by classical RK4.

    Integrates -dphi/dt(x) = val[lam*c(x)*phi(x) + sum_y q(y|x)*phi(y)]
    backward from phi(T) = exp(lam*g).  Returns (times, phi) with phi of
    shape (steps + 1, S).
    """
    lam, T, g, costs, rates = finite_tables(doc)
    S = len(costs)

    def rhs(phi):
        return np.array(
            [game_value(lam * costs[x] * phi[x] + rates[x] @ phi) for x in range(S)]
        )

    h = T / steps
    phi = np.empty((steps + 1, S))
    phi[steps] = np.exp(lam * g)
    for k in range(steps, 0, -1):
        y = phi[k]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        phi[k - 1] = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.linspace(0.0, T, steps + 1), phi


def at_times(ref, times: np.ndarray) -> np.ndarray:
    """Reference values at arbitrary times (linear interpolation per state)."""
    t_ref, phi_ref = ref
    return np.stack([np.interp(times, t_ref, phi_ref[:, x]) for x in range(phi_ref.shape[1])], 1)


# closed forms of the demo models (t may be an array)


def two_state_phi(t, T: float = 1.0):
    """two_state: unit cost until an Exp(1) jump to a free absorbing state."""
    t = np.asarray(t, dtype=float)
    return np.stack([1.0 + (T - t), np.ones_like(t)], 1)


def const_cost_phi(t, lam: float = 0.5, c: float = 2.0, T: float = 1.0):
    t = np.asarray(t, dtype=float)
    return np.exp(lam * c * (T - t))[:, None]


# ---------------------------------------------------------------------------
# artifacts


def read_solution_csv(text: str):
    """(t, state, phi, risk, mu rows, nu rows) from a pdmg solution CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    body = rows[1:]
    n_mu = sum(1 for h in rows[0] if h.startswith("mu_"))
    t = np.array([float(r[0]) for r in body])
    state = np.array([int(r[1]) for r in body])
    phi = np.array([float(r[2]) for r in body])
    risk = np.array([float(r[3]) for r in body])
    mu = [[float(v) for v in r[4 : 4 + n_mu] if v != ""] for r in body]
    nu = [[float(v) for v in r[4 + n_mu :] if v != ""] for r in body]
    return {"t": t, "state": state, "phi": phi, "risk": risk, "mu": mu, "nu": nu}


def phi_grid(sol: dict) -> tuple[np.ndarray, np.ndarray]:
    """(knot times, phi of shape (N+1, S)) from a parsed solution CSV."""
    S = int(sol["state"].max()) + 1
    return sol["t"][::S], sol["phi"].reshape(-1, S)


# ---------------------------------------------------------------------------
# checkers (each returns a list of failure messages)


def check_solution_shape(sol: dict, lam: float, g: np.ndarray) -> list:
    """phi > 0 and finite, risk = ln(phi)/lam, simplices, exact terminal slice."""
    out = []
    phi = sol["phi"]
    if not np.all(np.isfinite(phi)) or np.any(phi <= 0.0):
        return ["phi is not finite and positive"]
    if np.any(np.abs(sol["risk"] - np.log(phi) / lam) > 1e-9 * np.maximum(1.0, np.abs(sol["risk"]))):
        out.append("risk_value differs from ln(phi)/lambda")
    out += check_simplices(sol["mu"], "mu") + check_simplices(sol["nu"], "nu")
    _, grid = phi_grid(sol)
    term = np.exp(lam * g)
    if np.any(np.abs(grid[-1] - term) > CSV_REL * term):
        out.append("terminal slice differs from exp(lambda*g)")
    return out


def check_simplices(rows, who: str, tol: float = 1e-9) -> list:
    for i, w in enumerate(rows):
        w = np.asarray(w)
        if w.size == 0 or np.any(w < -1e-12) or abs(w.sum() - 1.0) > tol:
            return [f"{who} at row {i + 1} is not a probability vector: {w.tolist()}"]
    return []


def check_close(got: np.ndarray, want: np.ndarray, tol, what: str) -> list:
    """|got - want| <= tol entrywise (tol scalar or array)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if want.ndim == 0:
        want = np.full(got.shape, float(want))
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    bad = ~(err <= tol)
    if np.any(bad):
        i = int(np.argmax(np.where(bad, err, -1.0)))
        return [f"{what}: |{got.flat[i]!r} - {want.flat[i]!r}| = {err.flat[i]:.3e} exceeds {np.max(tol):.3e}"]
    return []


def check_richardson(v_n, v_2n, want, what: str, want_err: float = 0.0) -> list:
    """First-order convergence to the truth, tight enough to see 1e-3.

    v_n is the output under test at N steps; v_2n the same scheme at 2N
    (a separate solve, sampled at v_n's knots); want the truth at those
    knots, known to within want_err.  For phi_N = phi + C*Delta + O(Delta^2)
    the extrapolant 2*v_2n - v_n is phi + O(Delta^2), so it must lie within
    RICH_RHO * max|v_n - v_2n| (+ want_err + EXACT_REL*|want|) of want.  A
    bias in v_n moves the extrapolant by the whole bias and the budget by a
    tenth of it.
    """
    v_n, v_2n, want = (np.asarray(v, dtype=float) for v in (v_n, v_2n, want))
    if not (v_n.shape == v_2n.shape == want.shape):
        return [f"{what}: shapes {v_n.shape}, {v_2n.shape}, {want.shape} differ"]
    diff = float(np.max(np.abs(v_n - v_2n), initial=0.0))
    tol = RICH_RHO * diff + want_err + EXACT_REL * np.abs(want)
    return check_close(2.0 * v_2n - v_n, want, tol, f"{what} (Richardson extrapolant, N-to-2N difference {diff:.3e})")


def check_rel(got, want, rel: float, what: str) -> list:
    want = np.asarray(want, dtype=float)
    return check_close(got, want, rel * np.abs(want), what)


def check_sandwich(lo, mid, hi, what: str, rel: float = CSV_REL) -> list:
    """lo <= mid <= hi entrywise, up to CSV rounding."""
    lo, mid, hi = (np.asarray(v, dtype=float) for v in (lo, mid, hi))
    slack = rel * np.abs(mid)
    if np.any(lo > mid + slack) or np.any(hi < mid - slack):
        return [f"{what}: best responses do not sandwich the pair value"]
    return []


def check_monotone(seq, direction: str, slack: float = 1e-10) -> list:
    seq = np.asarray(seq, dtype=float)
    d = np.diff(seq, axis=0)
    ok = np.all(d >= -slack) if direction == "nondecreasing" else np.all(d <= slack)
    return [] if ok else [f"ladder is not {direction}: {seq.tolist()}"]


def check_mc(mean: float, stderr: float, ref: float, disc: float, k: float = 4.0) -> list:
    """|mean - ref| <= k*stderr + 3*disc, disc = |phi_N - phi_2N| at the start.

    The factor 3 on the refinement difference covers the first-order bias
    of phi_N (about twice the difference) plus the spatial rounding of
    grid flows; k = 4 keeps a false alarm below 1e-4 per check.
    """
    if not (math.isfinite(mean) and stderr >= 0.0):
        return [f"MC estimate is not finite: mean {mean}, stderr {stderr}"]
    budget = k * stderr + 3.0 * disc + 1e-9
    if abs(mean - ref) > budget:
        return [f"MC mean {mean:.9g} is {abs(mean - ref):.3e} from phi {ref:.9g} (budget {budget:.3e})"]
    return []


def check_trajectories(text: str, T: float, n_states: int, x0: int, finite_two: bool) -> list:
    """Jump times increase inside (0, T], states are valid, and in a
    two-state space every jump switches state."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["path_id", "jump_index", "time", "state", "exponent_so_far"]:
        return ["trajectory header mismatch"]
    last: dict = {}
    for r in rows[1:]:
        pid, j, t, x, e = int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4])
        pt, px, pj = last.get(pid, (0.0, x0, -1))
        if j != pj + 1 or not (pt < t <= T) or not 0 <= x < n_states or not math.isfinite(e):
            return [f"trajectory row {r} is inconsistent"]
        if finite_two and x == px:
            return [f"trajectory row {r}: a jump must switch state"]
        last[pid] = (t, x, j)
    return []
