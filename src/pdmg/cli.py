"""Batch command line front end.

Subcommands: validate, solve, evaluate, best-response, simulate, verify,
ladder, game (debug matrix solve), oracle.  Every run writes one manifest
next to its artifacts; its ``cell_games`` entry counts how the run's cell
games were settled (pure saddles, equalizers, float simplex and exact
re-solves; after a backward solve of games with choices also the games
accepted on a support carried from the knot above, ``locked``, and those
valued on one and thrown away below a failed certificate, ``discarded``),
and a simulate run's ``simulation`` entry counts the walker's thinning
candidates, accepted jumps and rejections.  Exit codes: 0 success,
1 validation/check failure, 2 I/O or parse error.  The output directory may
be overridden with the PDMG_OUT environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .approx import ladder_run
# shift_identity_check is not called here (ladder_run solves the shift pair),
# but it is part of this module's namespace: pdmgbench/tracing.py wraps it
# under this name
from .approx import shift_identity_check  # noqa: F401
from .matrix_game import COUNTS, GAME_TOL, MatrixGame, MatrixGameError, reset_counts, solve as solve_game
from .model import GameModel, ModelFormatError, ModelValidationError, load_model
from .shapley import (
    FMT,
    SolutionFormatError,
    SolverConfig,
    SolverError,
    backward_solve,
    best_response_solve,
    export_solution_csv,
    import_solution_csv,
    json_text,
    picard_solve,
    policy_evaluate,
    report_numbers,
    saddle_from_field,
    to_risk_value,
)
# simulate_path is not called here, but it is part of this module's namespace:
# pdmgbench/tracing.py wraps it under this name
from .simulate import SimConfig, estimate_J, simulate_path  # noqa: F401
from .verify import check_assumptions, check_bounds, exploitability, oracle_fine_grid

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2


def _read_model(path: str) -> GameModel:
    with open(path) as fh:
        return load_model(fh.read())


def _read_solution(model: GameModel, path: str):
    """The (field, strategies) of a solution CSV of ``model``."""
    with open(path) as fh:
        return import_solution_csv(model, fh.read())


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _run(cmd):
    """The frame of a command that writes artifacts.

    It zeroes the cell-game counts, starts the clock, reads ``--model`` and
    picks the output directory (``--out``, else ``PDMG_OUT``, else ``.``).
    ``cmd(args, model, out)`` returns its exit code, its artifacts as
    (file name, text) pairs, its manifest extras and its summary line.  The
    frame writes the artifacts, then ``manifest.json``, then prints the
    summary: a failed write leaves no manifest and prints no summary.
    """

    @functools.wraps(cmd)
    def run(args) -> int:
        reset_counts()
        t_start = time.time()
        model = _read_model(args.model)
        out = args.out or os.environ.get("PDMG_OUT") or "."
        os.makedirs(out, exist_ok=True)
        code, artifacts, extra, summary = cmd(args, model, out)
        paths = [_write(os.path.join(out, name), text) for name, text in artifacts]
        config = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command") and v is not None}
        doc = {
            "command": args.command,
            "model": args.model,
            "config": config,
            "seed": getattr(args, "seed", None),
            "artifacts": paths,
            "cell_games": dict(COUNTS),
            "wall_clock_s": round(time.time() - t_start, 6),
            "version": __version__,
        }
        doc.update(report_numbers(extra))  # the config echoes the flags as given
        _write(os.path.join(out, "manifest.json"), json_text(doc) + "\n")
        print(summary)
        return code

    return run


def cmd_validate(args) -> int:
    model = _read_model(args.model)
    print(f"model ok: {model.n_states} states, lambda={model.lam:g}, horizon={model.horizon:g}")
    if model.lyapunov is None:
        print("assumptions: skipped (no lyapunov data)")
        return EXIT_OK
    report = check_assumptions(model)
    for c in report.checks:
        print(f"  {c.name}: {'pass' if c.passed else 'FAIL'} (margin {c.margin:.4g} at {c.location})")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


@_run
def cmd_solve(args, model, out):
    config = SolverConfig(n_steps=args.steps, tol=args.tol)
    if args.scheme == "picard":
        field = picard_solve(model, config)
        strategies = saddle_from_field(model, field)
    else:
        field, strategies = backward_solve(model, config)
    csv = export_solution_csv(model, field, strategies)
    risk = to_risk_value(field, model.lam)
    summary = "\n".join(
        f"phi(0, {model.state_name(x)}) = {FMT % field.phi[0, x]}   risk value {FMT % risk[0, x]}"
        for x in range(model.n_states)
    )
    return EXIT_OK, [("solution.csv", csv)], {}, summary


@_run
def cmd_evaluate(args, model, out):
    _, strategies = _read_solution(model, args.strategies)
    field = policy_evaluate(model, strategies)
    csv = export_solution_csv(model, field, strategies)
    return EXIT_OK, [("evaluation.csv", csv)], {}, f"phi(0, .) = {report_numbers(field.phi[0].tolist())}"


@_run
def cmd_best_response(args, model, out):
    _, strategies = _read_solution(model, args.strategies)
    config = SolverConfig(n_steps=args.steps or strategies.grid.n_steps)
    field = best_response_solve(model, strategies, args.side, config)
    csv = export_solution_csv(model, field, strategies.resample(field.grid))
    summary = f"best-response phi(0, .) = {report_numbers(field.phi[0].tolist())}"
    return EXIT_OK, [("best_response.csv", csv)], {}, summary


@_run
def cmd_simulate(args, model, out):
    _, strategies = _read_solution(model, args.strategies)
    config = SimConfig(n_paths=args.paths, rng_seed=args.seed)
    est = estimate_J(model, strategies, args.t0, args.x0, config, record=args.dump_trajectories)
    doc = {
        "mean": est.mean,
        "stderr": est.stderr,
        "n_paths": est.n_paths,
        "min_exponent": est.min_exponent,
        "max_exponent": est.max_exponent,
        "risk_value": np.log(est.mean) / model.lam,
        "seed": args.seed,
        "t0": args.t0,
        "x0": args.x0,
    }
    artifacts = [("estimate.json", json_text(report_numbers(doc)) + "\n")]
    if args.dump_trajectories:
        # the walks of the first paths, exactly as the estimate averaged them
        lines = ["path_id,jump_index,time,state,exponent_so_far"]
        for i, tr in enumerate(est.trajectories):
            for j, ((t, x), e) in enumerate(zip(tr.jumps, tr.jump_exponents)):
                lines.append(f"{i},{j},{FMT % t},{x},{FMT % e}")
        artifacts.append(("trajectories.csv", "\n".join(lines) + "\n"))
    simulation = {
        "candidates": est.candidates,
        "jumps": est.jumps,
        "rejections": est.rejections,
        "acceptance_rate": est.jumps / est.candidates if est.candidates else None,
        "jumps_per_path": est.jumps / est.n_paths,
    }
    summary = f"mean {FMT % est.mean}  stderr {FMT % est.stderr}  ({est.n_paths} paths)"
    return EXIT_OK, artifacts, {"simulation": simulation}, summary


@_run
def cmd_verify(args, model, out):
    sections = {}
    ok = True

    if model.lyapunov is not None:
        rep = check_assumptions(model)
        sections["assumptions"] = rep.doc()
        ok = ok and rep.passed
    else:
        sections["assumptions"] = "skipped (no lyapunov data)"

    strategies = None
    if args.field:
        field, strategies = _read_solution(model, args.field)
        if model.lyapunov is not None:
            rep = check_bounds(field, model)
            sections["bounds"] = rep.doc()
            ok = ok and rep.passed
    if args.strategies:
        _, strategies = _read_solution(model, args.strategies)
    if strategies is not None:
        config = SolverConfig(n_steps=strategies.grid.n_steps)
        gap = exploitability(model, strategies, config, refine=args.refine)
        sections["exploitability"] = {"gap": gap, "tolerance": args.gap_tol}
        ok = ok and gap <= args.gap_tol

    sections["passed"] = ok
    report = json_text(report_numbers(sections)) + "\n"
    summary = f"verify: {'pass' if ok else 'FAIL'} (report at {os.path.join(out, 'report.json')})"
    return EXIT_OK if ok else EXIT_CHECK_FAILED, [("report.json", report)], {}, summary


@_run
def cmd_ladder(args, model, out):
    probes = [_probe(p) for p in args.probe] if args.probe else [(0.0, 0)]
    config = SolverConfig(n_steps=args.steps)
    # the levels and the shift pair march as one batch
    report = ladder_run(model, _levels(args.n_list), probes, config, args.shift_check_n)
    extra = {} if report.shift_rel_err is None else {"shift_identity_rel_err": report.shift_rel_err}
    gap = FMT % report.converged_gap
    summary = f"ladder {report.direction}: monotone_ok={report.monotone_ok} converged_gap={gap}"
    code = EXIT_OK if report.monotone_ok else EXIT_CHECK_FAILED
    return code, [("ladder.json", report.to_json() + "\n")], extra, summary


class MatrixFormatError(ValueError):
    """A payoff matrix CSV does not parse; the message names the row."""


def _read_matrix(path: str) -> np.ndarray:
    """The payoff matrix of a CSV file: one game row per non-blank line."""
    with open(path) as fh:
        lines = list(filter(None, map(str.strip, fh)))
    if not lines:
        raise MatrixFormatError("empty payoff matrix")
    rows = []
    for r, line in enumerate(lines, 1):
        row = []
        for c, value in enumerate(line.split(","), 1):
            try:
                row.append(float(value))
            except ValueError as exc:
                raise MatrixFormatError(f"payoff matrix row {r}, column {c}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise MatrixFormatError(f"payoff matrix row {r}: expected {len(rows[0])} columns, got {len(row)}")
        rows.append(row)
    return np.array(rows)


def cmd_game(args) -> int:
    sol = solve_game(MatrixGame(_read_matrix(args.matrix)), args.tol)
    print(f"value {FMT % sol.value}  gap {FMT % sol.gap}")
    print("row mix:", ",".join(FMT % v for v in sol.row_mix))
    print("col mix:", ",".join(FMT % v for v in sol.col_mix))
    return EXIT_OK


@_run
def cmd_oracle(args, model, out):
    probes = [_probe(p) for p in args.probe] if args.probe else None
    config = SolverConfig(n_steps=args.steps, tol=args.tol)
    report = oracle_fine_grid(model, args.refine, config, probes)
    summary = f"max deviation: backward {FMT % report.max_dev_backward}, picard {FMT % report.max_dev_picard}"
    return EXIT_OK, [("oracle.json", report.to_json() + "\n")], {}, summary


def _finite(text: str) -> float:
    """A number flag that must be finite (argparse type)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(low: int, below: int | None = None):
    """argparse type: an integer >= ``low``, and < ``below`` if given."""
    bound = f">= {low}" if below is None else f"in [{low}, {below})"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (below is not None and value >= below):
            raise argparse.ArgumentTypeError(f"expected an integer {bound}, got {text!r}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """A finite number >= 0 (argparse type)."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _positive(text: str) -> float:
    """A finite number > 0 (argparse type)."""
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _levels(text: str) -> list:
    """The levels of ``--n-list``: comma-separated finite numbers, integral ones as int."""
    levels = [_finite(v) for v in text.split(",")]
    return [int(v) if v.is_integer() else v for v in levels]


def _probe(text: str) -> tuple[float, int]:
    """A ``--probe`` ``t,x``: a finite time and a state index."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected t,x, got {text!r}")
    try:
        x = int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer state index, got {parts[1]!r}") from None
    return _finite(parts[0]), x


def _as_given(parse):
    """argparse type refusing what ``parse`` refuses and keeping the text,
    so that the manifest records the flag as it was given."""

    def check(text: str) -> str:
        parse(text)
        return text

    return check


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    p = argparse.ArgumentParser(prog="pdmg", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=fn)
        return sp

    sp = add("validate", cmd_validate, help="load a model and check its assumptions")
    sp.add_argument("--model", required=True)

    sp = add("solve", cmd_solve, help="solve the optimality equation backward in time")
    sp.add_argument("--model", required=True)
    sp.add_argument("--steps", type=_count(1), required=True)
    sp.add_argument("--scheme", choices=["semi_lagrangian", "picard"], default="semi_lagrangian")
    sp.add_argument("--tol", type=_positive, default=SolverConfig.tol, help="Picard stopping tolerance")
    sp.add_argument("--out")

    sp = add("evaluate", cmd_evaluate, help="evaluate a fixed strategy pair")
    sp.add_argument("--model", required=True)
    sp.add_argument("--strategies", required=True, help="solution CSV")
    sp.add_argument("--out")

    sp = add("best-response", cmd_best_response, help="one-sided best response solve")
    sp.add_argument("--model", required=True)
    sp.add_argument("--strategies", required=True)
    sp.add_argument("--side", choices=["maximize", "minimize"], required=True)
    sp.add_argument("--steps", type=_count(1))
    sp.add_argument("--out")

    sp = add("simulate", cmd_simulate, help="Monte Carlo estimate of the exponential functional")
    sp.add_argument("--model", required=True)
    sp.add_argument("--strategies", required=True)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--x0", type=int, default=0)
    sp.add_argument("--paths", type=_count(1), required=True)
    sp.add_argument("--seed", type=_count(0, 2**64), required=True, help="Philox key, 0 <= seed < 2**64")
    sp.add_argument("--dump-trajectories", type=_count(0), default=0, metavar="N_PATHS")
    sp.add_argument("--out")

    sp = add("verify", cmd_verify, help="assumption, bound and saddle checks")
    sp.add_argument("--model", required=True)
    sp.add_argument("--field", help="solution CSV with the value field")
    sp.add_argument("--strategies", help="solution CSV with the strategy pair")
    sp.add_argument("--refine", type=_count(1), default=8)
    sp.add_argument("--gap-tol", type=_tolerance, default=2e-3)
    sp.add_argument("--out")

    sp = add("ladder", cmd_ladder, help="truncation ladder monotonicity run")
    sp.add_argument("--model", required=True)
    sp.add_argument("--n-list", type=_as_given(_levels), required=True, help="comma-separated increasing levels")
    sp.add_argument("--probe", type=_as_given(_probe), action="append", help="t,x (repeatable)")
    sp.add_argument("--steps", type=_count(1), required=True)
    sp.add_argument("--shift-check-n", type=_finite)
    sp.add_argument("--out")

    sp = add("game", cmd_game, help="solve a zero-sum matrix game from a CSV")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--tol", type=_tolerance, default=GAME_TOL, help="largest certified duality gap")

    sp = add("oracle", cmd_oracle, help="fine-grid cross-solver deviation report")
    sp.add_argument("--model", required=True)
    sp.add_argument("--steps", type=_count(1), required=True)
    sp.add_argument("--refine", type=_count(2), default=8)
    sp.add_argument("--probe", type=_as_given(_probe), action="append", help="t,x (repeatable)")
    sp.add_argument("--tol", type=_positive, default=SolverConfig.tol, help="Picard stopping tolerance")
    sp.add_argument("--out")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelFormatError, SolutionFormatError, MatrixFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ModelValidationError, SolverError, MatrixGameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
