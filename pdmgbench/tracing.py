"""Spans around pdmg's public functions, installed from outside the package.

pdmg's modules import each other's functions by name, so a wrapper must
replace a function under every name its callers look it up by (for example
``pdmg.shapley.solve_game`` for the solver loops and ``pdmg.cli.backward_solve``
for the front end).  Each wrapped call records a span (name, start, end,
parent) in memory; a layer's self time is its span minus its child spans.
Wrappers are installed for a traced round and removed after it, so the
untraced rounds run the program as shipped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# (span name, [(module, attribute), ...]): every name under which a caller
# in pdmg looks the function up
WRAPPED = [
    ("matrix_game.solve", [("pdmg.shapley", "solve_game"), ("pdmg.cli", "solve_game")]),
    ("shapley.backward_solve", [("pdmg.cli", "backward_solve"), ("pdmg.verify", "backward_solve"),
                                ("pdmg.approx", "backward_solve")]),
    ("shapley.policy_evaluate", [("pdmg.cli", "policy_evaluate"), ("pdmg.verify", "policy_evaluate")]),
    ("shapley.best_response_solve", [("pdmg.cli", "best_response_solve"),
                                     ("pdmg.verify", "best_response_solve")]),
    ("shapley.picard_solve", [("pdmg.cli", "picard_solve"), ("pdmg.verify", "picard_solve")]),
    ("shapley.gamma_apply", [("pdmg.shapley", "gamma_apply"), ("pdmg.verify", "gamma_apply")]),
    ("shapley.saddle_from_field", [("pdmg.cli", "saddle_from_field")]),
    ("shapley.export_solution_csv", [("pdmg.cli", "export_solution_csv")]),
    ("shapley.import_solution_csv", [("pdmg.cli", "import_solution_csv")]),
    ("simulate.estimate_J", [("pdmg.cli", "estimate_J")]),
    ("simulate.simulate_path", [("pdmg.simulate", "simulate_path"), ("pdmg.cli", "simulate_path")]),
    ("verify.exploitability", [("pdmg.cli", "exploitability")]),
    ("verify.oracle_fine_grid", [("pdmg.cli", "oracle_fine_grid")]),
    ("approx.ladder_run", [("pdmg.cli", "ladder_run")]),
    ("approx.shift_identity_check", [("pdmg.cli", "shift_identity_check")]),
    ("model.load_model", [("pdmg.cli", "load_model")]),
]


def _note(name: str, args, kwargs, result):
    """Per-call counters read off arguments and results (O(1) each)."""
    if name == "matrix_game.solve":
        return result.gap
    if name == "shapley.backward_solve":
        return result[1]  # the StrategyField, measured after the round
    if name == "shapley.export_solution_csv":
        return len(result)
    if name == "shapley.import_solution_csv":
        return len(args[1] if len(args) > 1 else kwargs["text"])
    if name == "simulate.estimate_J":
        return result.n_paths
    if name == "simulate.simulate_path":
        return len(result.jumps)
    if name == "approx.ladder_run":
        return len(result.n_values)
    return None


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # "pdmg.cli" -> module object
        self.spans: list = []  # [name, t0, t1, parent, note]
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.process_time()
                stack.pop()
            span[4] = _note(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for name, sites in WRAPPED:
            for mod, attr in sites:
                m = self.modules[mod]
                fn = getattr(m, attr)
                self._saved.append((m, attr, fn))
                setattr(m, attr, self._wrap(name, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._saved):
            setattr(m, attr, fn)
        self._saved.clear()

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span opened from the benchmark itself."""
        return self._wrap(name, fn)(*args)

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path: str):
        with open(path, "w") as fh:
            for name, t0, t1, parent, note in self.spans:
                rec = {"name": name, "start": t0, "end": t1, "parent": parent}
                if isinstance(note, (int, float)):
                    rec["note"] = note
                fh.write(json.dumps(rec) + "\n")


def support_repeat_ratio(strategies) -> tuple[int, int]:
    """(cells whose mixture supports equal those at the next knot, cells compared)."""
    same = total = 0
    prev = None
    for k in range(len(strategies.mu) - 1, -1, -1):
        cur = [(tuple(m > 0.0), tuple(n > 0.0)) for m, n in zip(strategies.mu[k], strategies.nu[k])]
        if prev is not None:
            same += sum(a == b for a, b in zip(cur, prev))
            total += len(cur)
        prev = cur
    return same, total


def layer_metrics(spans: list, start: int, end: int) -> dict:
    """Per-layer figures of spans[start:end] (one traced round)."""
    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(list)
    child = defaultdict(float)
    for i in range(start, end):
        name, t0, t1, parent, note = spans[i]
        if parent >= start:
            child[parent] += t1 - t0
    for i in range(start, end):
        name, t0, t1, parent, note = spans[i]
        dur[name] += t1 - t0
        self_t[name] += t1 - t0 - child[i]
        calls[name] += 1
        if note is not None:
            notes[name].append(note)

    cells = same = compared = 0
    for field in notes["shapley.backward_solve"]:
        cells += field.grid.n_steps * len(field.mu[0])
        s, c = support_repeat_ratio(field)
        same += s
        compared += c

    def per(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    mg = "matrix_game.solve"
    sp = "simulate.simulate_path"
    return {
        f"{mg}.calls": calls[mg],
        f"{mg}.s": dur[mg],
        f"{mg}.us_per_call": per(dur[mg], calls[mg], 1e6),
        f"{mg}.max_gap": max(notes[mg], default=0.0),
        f"{mg}.share": per(dur[mg], dur["cli"]),
        "shapley.backward_solve.self_s": self_t["shapley.backward_solve"],
        "shapley.backward_solve.us_per_cell": per(self_t["shapley.backward_solve"], cells, 1e6),
        "shapley.backward_solve.support_repeat_ratio": per(same, compared),
        "shapley.policy_evaluate.s": dur["shapley.policy_evaluate"],
        "shapley.best_response_solve.s": dur["shapley.best_response_solve"],
        "shapley.picard_solve.s": dur["shapley.picard_solve"],
        "shapley.gamma_apply.calls": calls["shapley.gamma_apply"],
        "shapley.gamma_apply.self_s": self_t["shapley.gamma_apply"],
        "shapley.saddle_from_field.s": dur["shapley.saddle_from_field"],
        "shapley.export_solution_csv.s": dur["shapley.export_solution_csv"],
        "shapley.export_solution_csv.bytes": sum(notes["shapley.export_solution_csv"]),
        "shapley.import_solution_csv.s": dur["shapley.import_solution_csv"],
        "shapley.import_solution_csv.bytes": sum(notes["shapley.import_solution_csv"]),
        "simulate.estimate_J.s": dur["simulate.estimate_J"],
        "simulate.estimate_J.paths": sum(notes["simulate.estimate_J"]),
        f"{sp}.calls": calls[sp],
        f"{sp}.us_per_call": per(dur[sp], calls[sp], 1e6),
        f"{sp}.jumps_per_path": per(sum(notes[sp]), calls[sp]),
        "verify.exploitability.s": dur["verify.exploitability"],
        "verify.oracle_fine_grid.s": dur["verify.oracle_fine_grid"],
        "approx.ladder_run.s": dur["approx.ladder_run"],
        "approx.ladder_run.levels": sum(notes["approx.ladder_run"]),
        "approx.shift_identity_check.s": dur["approx.shift_identity_check"],
        "model.load_model.s": dur["model.load_model"],
        "cli.self_s": self_t["cli"],
    }


def median_metrics(rounds: list) -> dict:
    """Median over traced rounds of each per-layer figure."""
    return {k: float(np.median([r[k] for r in rounds])) for k in rounds[0]}
