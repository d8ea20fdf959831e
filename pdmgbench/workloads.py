"""The three benchmark workloads: their models, operations and checks.

A workload is a set-up (write and load the model documents, solve the
saddles its simulations use at N and 2N) and a round: a fixed list of CLI
operations, each with a checker.  Every round runs the same operations, so
the share of failed operations is the same in every run.  Each workload
runs the operations that define it; because every run reports every
end-to-end metric, it also runs one small operation of each other kind
(the companions), on models that keep its stressed layer apart:

* game_certify: 2x2 game models, where most of the time is in the cell LPs;
* monte_carlo: simulations under saddles solved during set-up; the
  companions run on the singleton `two_state`, so no 2x2 LP runs timed;
* singleton_sweep: singleton-action models at large N: stepper, flow lags,
  per-cell strategy objects and CSV I/O, and no 2x2 LP at all.

Checks run once, after the timed rounds, on the last round's outputs;
every round must reproduce the first round's artifacts byte for byte.
Solutions are checked by Richardson extrapolation against a truth (a
closed form, the Shapley ODE, or for grid flows the extrapolated backward
solve), using reference solves at 2N that the run makes after its rounds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import refs

SHIFT_N = 20.0  # the shifted-cost solve that fails today (see CHANGES.md)
SHIFT_FAULT = "exceeds tolerance"  # MatrixGameError: duality gap ... exceeds tolerance
ODE_STEPS = 2000  # RK4 steps of the Shapley ODE (converged to 1e-8)
CLOSED_FORMS = {"two_state": refs.two_state_phi, "const_cost": refs.const_cost_phi,
                "matching_pennies": lambda t: np.ones((len(t), 1))}


@dataclass
class Op:
    name: str  # unique in the round; also the name of its output directory
    kind: str  # the metric family it feeds
    argv: list
    cells: int = 0  # N * S of a solve
    paths: int = 0  # Monte Carlo paths of a simulate
    expect_fault: str = ""  # stderr text of a known, every-run failure
    check: Optional[Callable] = None  # check(ctx, result) -> [messages]


@dataclass
class Result:
    op: Op
    rc: int
    out: str  # the operation's output directory


@dataclass
class Workload:
    docs: dict  # model name -> document
    mc_saddles: list  # [(model, N)] solved at N and 2N during set-up
    ops: list = field(default_factory=list)
    ref_solves: set = field(default_factory=set)  # {(model, scheme, N)} solved after the rounds


# ---------------------------------------------------------------------------
# model documents


def demo_doc(root: str, name: str) -> dict:
    with open(os.path.join(root, "models", name + ".json")) as fh:
        return json.load(fh)


def controlled_grid_doc(seed: int, cells: int = 8) -> dict:
    """Two modes, 2x2 actions in every cell, costs drawn from the seed."""
    rng = np.random.default_rng([seed, 1])
    hi0, slope0, lo0 = rng.uniform(0.4, 0.8), rng.uniform(0.1, 0.4), rng.uniform(0.1, 0.3)
    mid1, hi1, slope1 = rng.uniform(0.3, 0.7), rng.uniform(0.7, 1.0), rng.uniform(0.1, 0.4)
    rates, costs = [], []
    for cell in range(cells):
        pos = (cell + 0.5) / cells
        for a in (0, 1):
            for b in (0, 1):
                if a == b:
                    rates.append({"from": cell, "a": a, "b": b, "to": cells + cell, "rate": 0.8})
                else:
                    rates.append({"from": cells + cell, "a": a, "b": b, "to": cell, "rate": 0.5})
        costs.append({"state": cell, "a": 0, "b": 0, "value": hi0 + slope0 * pos})
        costs.append({"state": cell, "a": 1, "b": 1, "value": lo0})
        costs.append({"state": cells + cell, "a": 0, "b": 1, "value": mid1})
        costs.append({"state": cells + cell, "a": 1, "b": 0, "value": hi1 - slope1 * pos})
    return {
        "lambda": 0.5,
        "horizon": 1.0,
        "states": {
            "grid_flow": {
                "modes": [{"name": "up", "drift": 0.6}, {"name": "down", "drift": -0.4}],
                "grid": {"min": 0.0, "max": 1.0, "cells": cells},
                "boundary": "clamp",
            }
        },
        "actions": {"p1": [[0, 1]], "p2": [[0, 1]]},
        "rates": rates,
        "costs": costs,
    }


def shifted_doc(doc: dict, n: float) -> dict:
    """Every cost entry (zeros included) and the terminal cost raised by n."""
    out = json.loads(json.dumps(doc))
    S = len(out["states"]["finite"])
    p1, p2 = out["actions"]["p1"], out["actions"]["p2"]
    p1 = p1 * S if len(p1) == 1 else p1
    p2 = p2 * S if len(p2) == 1 else p2
    have = {(e["state"], e["a"], e["b"]): e for e in out.get("costs", [])}
    out["costs"] = []
    for x in range(S):
        for a in p1[x]:
            for b in p2[x]:
                old = have.get((x, a, b), {"value": 0.0})["value"]
                out["costs"].append({"state": x, "a": a, "b": b, "value": old + n})
    g = {e["state"]: e["value"] for e in out.get("terminal", [])}
    out["terminal"] = [{"state": x, "value": g.get(x, 0.0) + n} for x in range(S)]
    out.pop("lyapunov", None)  # the shift breaks the demo's growth constants
    return out


def n_states(doc: dict) -> int:
    st = doc["states"]
    if "finite" in st:
        return len(st["finite"])
    return len(st["grid_flow"]["modes"]) * st["grid_flow"]["grid"]["cells"]


# ---------------------------------------------------------------------------
# the run context handed to checkers


class Context:
    def __init__(self, work: str, pdmg_io):
        self.work = work
        self.w: Optional[Workload] = None
        self.pdmg_io = pdmg_io  # (load_model, import_solution_csv, export_solution_csv)
        self._ode: dict = {}  # model -> (times, phi) of the Shapley ODE
        self._cache: dict = {}

    def model_path(self, name: str) -> str:
        return os.path.join(self.work, "models", name + ".json")

    def out(self, op_name: str) -> str:
        return os.path.join(self.work, "ops", op_name)

    def solution(self, name: str, scheme: str, n: int) -> str:
        """solution.csv of a set-up saddle or reference solve."""
        return os.path.join(self.work, "solves", f"{name}-{scheme}-{n}", "solution.csv")

    def saddle(self, name: str, n: int) -> str:
        return self.solution(name, "backward", n)

    def text(self, path: str) -> str:
        if path not in self._cache:
            with open(path) as fh:
                self._cache[path] = fh.read()
        return self._cache[path]

    def json(self, op_name: str, file: str) -> dict:
        return json.loads(self.text(os.path.join(self.out(op_name), file)))

    def sol(self, path: str) -> dict:
        key = ("sol", path)
        if key not in self._cache:
            self._cache[key] = refs.read_solution_csv(self.text(path))
        return self._cache[key]

    def phi(self, path: str) -> np.ndarray:
        return refs.phi_grid(self.sol(path))[1]

    def truth(self, model: str, n: int) -> tuple[np.ndarray, float]:
        """(phi at the N+1 knots of an N-step grid, its error bound).

        Closed forms and the RK4 Shapley ODE (error 0); grid flows have
        neither, so their truth is the Richardson extrapolant of the
        reference backward solves at N and 2N, known to RICH_RHO times
        their difference.
        """
        doc = self.w.docs[model]
        times = np.linspace(0.0, float(doc["horizon"]), n + 1)
        if model in CLOSED_FORMS:
            return CLOSED_FORMS[model](times), 0.0
        if "finite" in doc["states"]:
            if model not in self._ode:
                self._ode[model] = refs.shapley_ode(doc, ODE_STEPS)
            return refs.at_times(self._ode[model], times), 0.0
        b_n = self.phi(self.solution(model, "backward", n))
        b_2n = self.phi(self.solution(model, "backward", 2 * n))[::2]
        return 2.0 * b_2n - b_n, refs.RICH_RHO * float(np.max(np.abs(b_n - b_2n)))


def truth_solves(doc: dict, model: str, n: int) -> set:
    """Reference solves that Context.truth(model, n) reads."""
    if model in CLOSED_FORMS or "finite" in doc["states"]:
        return set()
    return {(model, "backward", n), (model, "backward", 2 * n)}


def digest(out_dir: str) -> dict:
    """sha256 of every artifact except the manifest (it carries wall times)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            h = hashlib.sha256()
            with open(os.path.join(out_dir, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 16), b""):
                    h.update(block)
            out[name] = h.hexdigest()
    return out


# ---------------------------------------------------------------------------
# checkers


def against_truth(ctx: Context, model: str, scheme: str, n: int, phi_n: np.ndarray) -> list:
    """phi of an N-step solve extrapolates, with the reference 2N solve of
    the same scheme, to the model's truth."""
    want, err = ctx.truth(model, n)
    phi_2n = ctx.phi(ctx.solution(model, scheme, 2 * n))[::2]
    return refs.check_richardson(phi_n, phi_2n, want, f"{model} {scheme} N={n} phi vs truth", err)


def chk_solution(model: str, n_steps: int, scheme: str = "backward", truth: bool = True):
    """Shape of a solution CSV, its round trip and (truth=True) its
    convergence to the model's truth."""

    def check(ctx: Context, res: Result) -> list:
        doc = ctx.w.docs[model]
        path = os.path.join(res.out, "solution.csv")
        sol = ctx.sol(path)
        g = np.zeros(n_states(doc))
        for e in doc.get("terminal", []):
            g[e["state"]] = e["value"]
        msgs = refs.check_solution_shape(sol, float(doc["lambda"]), g)
        times, phi = refs.phi_grid(sol)
        if len(times) != n_steps + 1:
            return msgs + [f"{model}: expected {n_steps + 1} knots, got {len(times)}"]
        if truth:
            msgs += against_truth(ctx, model, scheme, n_steps, phi)
        if model == "matching_pennies":  # the unique saddle mixes evenly
            msgs += refs.check_close(np.array(sol["mu"]), 0.5, 1e-9, "pennies mu")
            msgs += refs.check_close(np.array(sol["nu"]), 0.5, 1e-9, "pennies nu")
        return msgs + chk_round_trip(ctx, model, path)

    return check


def chk_round_trip(ctx: Context, model: str, path: str) -> list:
    if ctx.pdmg_io is None:  # the checker tests run without pdmg
        return []
    load_model, import_csv, export_csv = ctx.pdmg_io
    text = ctx.text(path)
    m = load_model(ctx.text(ctx.model_path(model)))
    field_, strategies = import_csv(m, text)
    if export_csv(m, field_, strategies) != text:
        return [f"{model}: export -> import -> export is not byte-identical"]
    return []


def chk_replay(model: str, solution_csv: str):
    """evaluate replays the solved value (to CSV precision)."""

    def check(ctx: Context, res: Result) -> list:
        ev = ctx.sol(os.path.join(res.out, "evaluation.csv"))
        so = ctx.sol(solution_csv)
        return refs.check_rel(ev["phi"], so["phi"], refs.CSV_REL, f"{model} evaluate vs solve")

    return check


def chk_best_response(model: str, solution_csv: str, max_op: str):
    """The minimising response (this op) and the maximising one sandwich
    the value of the solved pair (its phi, which evaluate replays) at
    every knot."""

    def check(ctx: Context, res: Result) -> list:
        lo = ctx.sol(os.path.join(res.out, "best_response.csv"))["phi"]
        hi = ctx.sol(os.path.join(ctx.out(max_op), "best_response.csv"))["phi"]
        mid = ctx.sol(solution_csv)["phi"]
        if not (lo.shape == mid.shape == hi.shape):
            return [f"{model}: best-response grids differ from the pair's"]
        return refs.check_sandwich(lo, mid, hi, f"{model} best responses")

    return check


def chk_verify(model: str):
    def check(ctx: Context, res: Result) -> list:
        rep = ctx.json(res.op.name, "report.json")
        ex = rep.get("exploitability", {})
        gap, tol = ex.get("gap", math.nan), ex.get("tolerance", math.nan)
        if not (rep.get("passed") is True and 0.0 <= gap <= tol):
            return [f"{model}: verify did not pass (gap {gap}, tolerance {tol}, rc {res.rc})"]
        return []

    return check


def chk_oracle(model: str, n_steps: int, refine: int):
    """Every value the oracle reports at t = 0 (coarse backward, fine
    backward, fine Picard) converges to the truth, so Picard and backward
    agree; the reported deviations cover the probes' own."""

    def check(ctx: Context, res: Result) -> list:
        rep = ctx.json(res.op.name, "oracle.json")
        rows = rep["probe_values"]
        if not rows or any(r["t"] != 0.0 for r in rows):
            return [f"{model}: oracle reported no probes at t = 0"]
        xs = [r["state"] for r in rows]
        msgs = []
        for key, scheme, n in (("coarse", "backward", n_steps), ("fine_backward", "backward", n_steps * refine),
                               ("fine_picard", "picard", n_steps * refine)):
            want, err = ctx.truth(model, n)
            v_2n = ctx.phi(ctx.solution(model, scheme, 2 * n))[0, xs]
            msgs += refs.check_richardson([r[key] for r in rows], v_2n, want[0, xs],
                                          f"{model} oracle {key} vs truth", err)
        rounding = 2.0 * refs.CSV_REL * max(abs(r[k]) for r in rows for k in ("coarse", "fine_backward", "fine_picard"))
        for key, dev in (("fine_backward", "max_dev_backward"), ("fine_picard", "max_dev_picard")):
            seen = max(abs(r["coarse"] - r[key]) for r in rows)
            if not seen <= rep[dev] + rounding:  # the report rounds to 12 digits
                msgs.append(f"{model}: oracle {dev} {rep[dev]} is below a probe's deviation {seen}")
        return msgs

    return check


def chk_ladder(model: str):
    def check(ctx: Context, res: Result) -> list:
        rep = ctx.json(res.op.name, "ladder.json")
        man = ctx.json(res.op.name, "manifest.json")
        msgs = [] if rep["monotone_ok"] and res.rc == 0 else [f"{model}: ladder reports a violation"]
        msgs += refs.check_monotone(rep["phi_at_probe"], rep["direction"])
        err = man.get("shift_identity_rel_err", math.nan)
        if not err <= 1e-12:
            msgs.append(f"{model}: shift identity error {err} exceeds 1e-12")
        return msgs

    return check


def chk_mc(model: str, n_steps: int, x0: int):
    """The estimate lies within 4 stderr plus the refinement budget of phi_N."""

    def check(ctx: Context, res: Result) -> list:
        est = ctx.json(res.op.name, "estimate.json")
        phi = ctx.phi(ctx.saddle(model, n_steps))
        fine = ctx.phi(ctx.saddle(model, 2 * n_steps))
        msgs = [] if est["n_paths"] == res.op.paths else [f"{model}: estimate has {est['n_paths']} paths"]
        lam = float(ctx.w.docs[model]["lambda"])
        if abs(est["risk_value"] - math.log(est["mean"]) / lam) > 1e-9 * max(1.0, abs(est["risk_value"])):
            msgs.append(f"{model}: risk_value differs from ln(mean)/lambda")
        disc = abs(phi[0, x0] - fine[0, x0])
        return msgs + refs.check_mc(est["mean"], est["stderr"], float(phi[0, x0]), disc)

    return check


def chk_dump(model: str, x0: int, n_paths: int):
    def check(ctx: Context, res: Result) -> list:
        doc = ctx.w.docs[model]
        text = ctx.text(os.path.join(res.out, "trajectories.csv"))
        S = n_states(doc)
        two_states = "finite" in doc["states"] and S == 2
        msgs = refs.check_trajectories(text, float(doc["horizon"]), S, x0, two_states)
        ids = {line.split(",", 1)[0] for line in text.splitlines()[1:]}
        if len(ids) > n_paths:
            msgs.append(f"{model}: {len(ids)} dumped paths, asked for {n_paths}")
        return msgs

    return check


def chk_shifted(model: str, base_op: str, n: float):
    """If the shifted solve succeeds: phi(0) = phi_base(0)*exp(lam*(T+1)*n)."""

    def check(ctx: Context, res: Result) -> list:
        doc = ctx.w.docs[model]
        phi = ctx.phi(os.path.join(res.out, "solution.csv"))
        base = ctx.phi(os.path.join(ctx.out(base_op), "solution.csv"))
        fac = math.exp(float(doc["lambda"]) * (float(doc["horizon"]) + 1.0) * n)
        return refs.check_rel(phi[0], base[0] * fac, 1e-10, f"{model} shift identity at t=0")

    return check


# ---------------------------------------------------------------------------
# operation builders


class Builder:
    def __init__(self, ctx_paths, seed: int, docs: dict):
        self.p = ctx_paths
        self.seed = seed
        self.docs = docs
        self.ops: list = []
        self.ref_solves: set = set()
        self._mc = 0

    def add(self, op: Op) -> str:
        if any(o.name == op.name for o in self.ops):
            raise ValueError(f"operation {op.name} would share an output directory")
        self.ops.append(op)
        return op.name

    def need_truth(self, m, scheme, n):
        """Reference solves for a Richardson check of (m, scheme, n)."""
        self.ref_solves |= {(m, scheme, 2 * n)} | truth_solves(self.docs[m], m, n)

    def csv(self, op_name):
        return os.path.join(self.p.out(op_name), "solution.csv")

    def solve(self, m, n, truth=True):
        if truth:
            self.need_truth(m, "backward", n)
        return self.add(Op(f"solve-{m}", "solve", ["solve", "--model", self.p.model_path(m), "--steps", str(n)],
                           cells=n * n_states(self.docs[m]), check=chk_solution(m, n, "backward", truth)))

    def evaluate(self, m, csv):
        return self.add(Op(f"evaluate-{m}", "evaluate",
                           ["evaluate", "--model", self.p.model_path(m), "--strategies", csv],
                           check=chk_replay(m, csv)))

    def best_responses(self, m, csv):
        hi = self.add(Op(f"br-max-{m}", "best_response", ["best-response", "--model", self.p.model_path(m),
                                                           "--strategies", csv, "--side", "maximize"]))
        self.add(Op(f"br-min-{m}", "best_response", ["best-response", "--model", self.p.model_path(m),
                                                      "--strategies", csv, "--side", "minimize"],
                    check=chk_best_response(m, csv, hi)))

    def verify(self, m, csv, refine):
        return self.add(Op(f"verify-{m}", "verify", ["verify", "--model", self.p.model_path(m), "--strategies",
                                                     csv, "--refine", str(refine)], check=chk_verify(m)))

    def oracle(self, m, n, refine, probes):
        self.need_truth(m, "backward", n)
        self.need_truth(m, "backward", n * refine)
        self.need_truth(m, "picard", n * refine)
        argv = ["oracle", "--model", self.p.model_path(m), "--steps", str(n), "--refine", str(refine)]
        for x in probes:
            argv += ["--probe", f"0,{x}"]
        return self.add(Op(f"oracle-{m}", "oracle", argv, check=chk_oracle(m, n, refine)))

    def picard(self, m, n):
        self.need_truth(m, "picard", n)
        return self.add(Op(f"picard-{m}", "picard", ["solve", "--model", self.p.model_path(m), "--steps", str(n),
                                                     "--scheme", "picard"], check=chk_solution(m, n, "picard")))

    def ladder(self, m, levels, n, probes, shift):
        argv = ["ladder", "--model", self.p.model_path(m), "--n-list", levels, "--steps", str(n),
                "--shift-check-n", str(shift)]
        for x in probes:
            argv += ["--probe", f"0,{x}"]
        return self.add(Op(f"ladder-{m}", "ladder", argv, check=chk_ladder(m)))

    def simulate(self, m, n, paths, x0, kind):
        self._mc += 1
        argv = ["simulate", "--model", self.p.model_path(m), "--strategies", self.p.saddle(m, n),
                "--paths", str(paths), "--x0", str(x0), "--seed", str(self.seed * 100 + self._mc)]
        return self.add(Op(f"simulate-{m}", kind, argv, paths=paths, check=chk_mc(m, n, x0)))

    def dump(self, m, n, paths, x0):
        self._mc += 1
        argv = ["simulate", "--model", self.p.model_path(m), "--strategies", self.p.saddle(m, n),
                "--paths", str(paths), "--x0", str(x0), "--seed", str(self.seed * 100 + self._mc),
                "--dump-trajectories", str(paths)]
        return self.add(Op(f"dump-{m}", "dump", argv, check=chk_dump(m, x0, paths)))

    def workload(self, saddles) -> Workload:
        return Workload(self.docs, saddles, self.ops, self.ref_solves)


def game_certify(root: str, seed: int, paths) -> Workload:
    base = demo_doc(root, "controlled_two_state")
    docs = {
        "controlled_two_state": base,
        "signed_cost": demo_doc(root, "signed_cost"),
        "matching_pennies": demo_doc(root, "matching_pennies"),
        "controlled_grid": controlled_grid_doc(seed),
        "controlled_shifted": shifted_doc(base, SHIFT_N),
        "grid_flow": demo_doc(root, "grid_flow"),
    }
    b = Builder(paths, seed, docs)
    for m, n in (("controlled_two_state", 200), ("signed_cost", 200), ("matching_pennies", 200),
                 ("controlled_grid", 60)):
        grid = m == "controlled_grid"
        s = b.solve(m, n, truth=not grid)
        b.evaluate(m, b.csv(s))
        b.best_responses(m, b.csv(s))
        b.verify(m, b.csv(s), 2)
        if grid:
            b.oracle(m, 6, 2, [0, 3, 8, 13])
        else:
            b.oracle(m, 20, 2, range(n_states(docs[m])))
    b.add(Op("solve-controlled_shifted", "solve",
             ["solve", "--model", paths.model_path("controlled_shifted"), "--steps", "200"],
             cells=200 * n_states(base), expect_fault=SHIFT_FAULT,
             check=chk_shifted("controlled_two_state", "solve-controlled_two_state", SHIFT_N)))
    # companions, one small operation of each other kind
    b.picard("matching_pennies", 40)
    b.ladder("signed_cost", "1,2,4", 50, [0, 1], 2)
    b.simulate("controlled_two_state", 200, 1000, 0, "mc_table")
    # grid_flow, not the 2x2 grid: the 2x2 grid's estimates are skewed enough
    # that a 4-stderr check on under 300 paths raises false alarms
    b.simulate("grid_flow", 200, 100, 5, "mc_walk")
    b.dump("controlled_two_state", 200, 10, 0)
    return b.workload([("controlled_two_state", 200), ("grid_flow", 200)])


def monte_carlo(root: str, seed: int, paths) -> Workload:
    docs = {m: demo_doc(root, m) for m in ("two_state", "controlled_two_state", "grid_flow")}
    docs["controlled_grid"] = controlled_grid_doc(seed)
    b = Builder(paths, seed, docs)
    b.simulate("two_state", 400, 6000, 0, "mc_table")
    b.simulate("controlled_two_state", 200, 6000, 1, "mc_table")
    b.simulate("grid_flow", 200, 300, 5, "mc_walk")
    b.simulate("controlled_grid", 50, 300, 3, "mc_walk")  # fewer paths: skewed, see game_certify
    b.dump("controlled_two_state", 200, 60, 0)
    # companions on the singleton two_state: a 2x2 model would run cell LPs
    csv = paths.saddle("two_state", 400)
    b.solve("two_state", 400)
    b.evaluate("two_state", csv)
    b.best_responses("two_state", csv)
    b.verify("two_state", csv, 2)
    b.oracle("two_state", 100, 2, [0, 1])
    b.picard("two_state", 100)
    b.ladder("two_state", "1,2,4", 100, [0], 1)
    return b.workload([("two_state", 400), ("controlled_two_state", 200), ("grid_flow", 200),
                       ("controlled_grid", 50)])


def singleton_sweep(root: str, seed: int, paths) -> Workload:
    docs = {m: demo_doc(root, m) for m in ("grid_flow", "nonneg_ladder", "two_state", "const_cost")}
    b = Builder(paths, seed, docs)
    for m, n, n_picard, ladder in (("grid_flow", 500, 50, ("1,2,4", 100, [0], 1)),
                                   ("nonneg_ladder", 2000, 100, ("1,3,9,16", 400, [0, 1, 2], 2)),
                                   ("two_state", 2000, 100, ("1,2,4", 200, [0], 1)),
                                   ("const_cost", 2000, 100, ("1,2,4", 200, [0], 1))):
        s = b.solve(m, n, truth=m != "grid_flow")
        b.evaluate(m, b.csv(s))
        b.picard(m, n_picard)
        b.ladder(m, *ladder)
    # companions, one small operation of each other kind, on two_state
    csv = paths.saddle("two_state", 400)
    b.best_responses("two_state", csv)
    b.verify("two_state", csv, 2)
    b.oracle("two_state", 100, 2, [0, 1])
    b.simulate("two_state", 400, 1000, 0, "mc_table")
    b.simulate("grid_flow", 200, 100, 5, "mc_walk")
    b.dump("two_state", 400, 100, 0)
    return b.workload([("grid_flow", 200), ("two_state", 400)])


WORKLOADS = {"game_certify": game_certify, "monte_carlo": monte_carlo, "singleton_sweep": singleton_sweep}
