"""pdmg benchmark: one workload per process, run through the CLI in process.

    python3 pdmgbench/run.py --workload game_certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The run sets up (imports, model documents, the saddles its
simulations need), then repeats rounds of CLI operations until --seconds
have passed, checks every output against references computed apart from
pdmg, and prints one JSON object as its last line.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics plus the tracing overhead.  Times are CPU
times of this one-thread process (time.process_time), so time the host
takes the CPU away does not count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one thread everywhere: the machine has two cores and runs are compared
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".pdmgbench_out"
SETUP_REPEATS = 5
CALIB_REF_S = 0.004  # nominal CPU seconds of one calibration_loop()

E2E_UNITS = {
    "setup_s": "s",
    "solve_cells_per_s": "cells/s",
    "evaluate_s": "s",
    "best_response_s": "s",
    "verify_s": "s",
    "oracle_s": "s",
    "picard_solve_s": "s",
    "ladder_s": "s",
    "mc_table_paths_per_s": "paths/s",
    "mc_walk_paths_per_s": "paths/s",
    "trajectory_dump_s": "s",
    "peak_rss_mb": "MB",
}
KIND_SECONDS = {
    "evaluate": "evaluate_s",
    "best_response": "best_response_s",
    "verify": "verify_s",
    "oracle": "oracle_s",
    "picard": "picard_solve_s",
    "ladder": "ladder_s",
    "dump": "trajectory_dump_s",
}
LAYER_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "us_per_call": "us", "us_per_cell": "us",
    "max_gap": "payoff", "support_repeat_ratio": "ratio", "bytes": "bytes", "paths": "count",
    "jumps_per_path": "jumps", "levels": "count", "overhead": "ratio", "share": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_pdmg():
    """Import the program from this checkout's src/ (never an installed copy)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pdmg", "__init__.py")):
        raise SystemExit(f"error: no pdmg sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    import pdmg.approx
    import pdmg.cli
    import pdmg.model
    import pdmg.shapley
    import pdmg.simulate
    import pdmg.verify

    if not os.path.abspath(pdmg.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: pdmg was imported from {pdmg.__file__}, not from {src}")
    return {m.__name__: m for m in (pdmg.approx, pdmg.cli, pdmg.model, pdmg.shapley, pdmg.simulate, pdmg.verify)}


def calibration_loop() -> float:
    """CPU seconds of a fixed mix of interpreter work and small numpy calls.

    The machine's speed drifts by up to 2x within seconds (other tenants
    of its cores), and pdmg's operations all slow down together.  The loop
    runs before and after every timed step; the mean of the two gauges the
    speed during the step, whose time is scaled to the speed at which the
    loop takes CALIB_REF_S (see scaled).
    """
    t0 = time.process_time()
    a = np.arange(16, dtype=float)
    acc = 0.0
    for i in range(350):
        b = a * 0.5 + i
        acc += float(np.max(b))
        d = {j: j * 0.5 for j in range(8)}
        acc += sum(d.values())
    return time.process_time() - t0


def scaled(seconds: float, calib_before: float, calib_after: float) -> float:
    """CPU seconds of a step at the nominal speed, from the loops around it."""
    return seconds * 2.0 * CALIB_REF_S / (calib_before + calib_after)


def timed_steps(steps) -> float:
    """Scaled CPU seconds of calling each step, with a calibration loop
    before the first and after each.  A step may return the CPU seconds
    of a child process it waited for."""
    calib, total = calibration_loop(), 0.0
    for step in steps:
        t0 = time.process_time()
        child = step() or 0.0
        dt = time.process_time() - t0 + child
        after = calibration_loop()
        total += scaled(dt, calib, after)
        calib = after
    return total


def import_seconds() -> float:
    """CPU seconds a fresh interpreter takes to import numpy and pdmg's modules."""
    code = ("import time; t = time.process_time(); import numpy, pdmg.approx, pdmg.cli, pdmg.model, "
            "pdmg.shapley, pdmg.simulate, pdmg.verify; print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.split()[-1])


class Bench:
    def __init__(self, args, modules):
        import tracing
        import workloads

        self.tracing, self.wl = tracing, workloads
        self.mods = modules
        self.work = os.path.join(ROOT, OUT_DIR, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
        sh = modules["pdmg.shapley"]
        self.ctx = workloads.Context(
            self.work, (modules["pdmg.model"].load_model, sh.import_solution_csv, sh.export_solution_csv)
        )
        self.w = workloads.WORKLOADS[args.workload](ROOT, args.seed, self.ctx)
        self.ctx.w = self.w
        self.tracer = tracing.Tracer(modules)
        self.failures: list = []
        self.attempted = self.failed = 0
        self.digests: dict = {}
        self.last: list = []  # the last round's results, checked after the rounds

    # -- the program -------------------------------------------------------

    def cli(self, argv, traced=False):
        """(rc, CPU seconds, stdout, stderr) of one in-process pdmg command."""
        main = self.mods["pdmg.cli"].main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.process_time()
            try:
                rc = self.tracer.span("cli", main, argv) if traced else main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                rc = -1
                traceback.print_exc()
            dt = time.process_time() - t0
        return rc, dt, out.getvalue(), err.getvalue()

    def setup(self) -> float:
        """Import numpy and pdmg in a fresh interpreter, write and load every
        model document, solve the simulated saddles; scaled CPU seconds."""
        load_model = self.mods["pdmg.model"].load_model
        os.makedirs(os.path.join(self.work, "models"), exist_ok=True)

        def load_docs():
            for name, doc in self.w.docs.items():
                path = self.ctx.model_path(name)
                with open(path, "w") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
                with open(path) as fh:
                    load_model(fh.read())

        steps = [import_seconds, load_docs]
        for name, n in self.w.mc_saddles:
            steps += [lambda name=name, k=k: self.solve(name, "backward", k) for k in (n, 2 * n)]
        return timed_steps(steps)

    def solve(self, name: str, scheme: str, steps: int):
        """Write ctx.solution(name, scheme, steps) with `pdmg solve`."""
        argv = ["solve", "--model", self.ctx.model_path(name), "--steps", str(steps),
                "--out", os.path.dirname(self.ctx.solution(name, scheme, steps))]
        rc, _, _, err = self.cli(argv + (["--scheme", "picard"] if scheme == "picard" else []))
        if rc != 0:
            raise RuntimeError(f"solve of {name} ({scheme}) at N={steps} failed: {err.strip()}")

    def reference_solves(self):
        """The 2N solves (and grid truths) the Richardson checks read; made
        after the rounds, untimed, unless set-up already made them."""
        for name, scheme, steps in sorted(self.w.ref_solves):
            if not os.path.exists(self.ctx.solution(name, scheme, steps)):
                self.solve(name, scheme, steps)

    # -- one round -----------------------------------------------------------

    def round(self, traced: bool) -> dict:
        """Run every operation once; returns {"ops": [(kind, seconds, cells,
        paths, ok)], "calib": [calibration loop seconds before each, and
        after the last]}."""
        rows, calib = [], []
        self.last = []
        for op in self.w.ops:
            out = self.ctx.out(op.name)
            os.makedirs(out, exist_ok=True)
            calib.append(calibration_loop())
            rc, dt, _, se = self.cli(op.argv + ["--out", out], traced)
            res = self.wl.Result(op, rc, out)
            self.attempted += 1
            ok = rc == 0
            if not ok:
                self.failed += 1
                if not (op.expect_fault and rc == 1 and op.expect_fault in se):
                    self.fail(f"{op.name}: exit {rc}: {se.strip()[-400:]}")
            rows.append((op.kind, dt, op.cells, op.paths, ok))
            if ok:
                self.last.append(res)
                dig = self.wl.digest(res.out)
                if self.digests.setdefault(op.name, dig) != dig:
                    self.fail(f"{op.name}: artifacts differ from the first round's (nondeterministic output)")
        calib.append(calibration_loop())
        return {"ops": rows, "calib": calib}

    def check(self):
        """Check the last round's outputs (every round's are byte-identical)."""
        for res in self.last:
            try:
                msgs = res.op.check(self.ctx, res) if res.op.check else []
            except Exception as exc:  # a checker that cannot read an output is a failed check
                msgs = [f"checker raised {type(exc).__name__}: {exc}"]
            for msg in msgs:
                self.fail(f"{res.op.name}: {msg}")

    def fail(self, msg: str):
        if len(self.failures) < 50:
            print(f"CHECK FAILED {msg}", file=sys.stderr)
        self.failures.append(msg)

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def run_metrics(rounds: list) -> dict:
        """Medians over the untraced rounds of each kind's seconds per round
        and work per second, from the operations that succeeded, each time
        scaled to the nominal speed."""
        per_round = []
        for r in rounds:
            sums: dict = {}
            for i, (kind, dt, cells, paths, ok) in enumerate(r["ops"]):
                if ok:
                    row = sums.setdefault(kind, [0.0, 0, 0])
                    row[0] += scaled(dt, r["calib"][i], r["calib"][i + 1])
                    row[1] += cells
                    row[2] += paths
            per_round.append(sums)

        def median(fn):
            return statistics.median(fn(sums) for sums in per_round)

        out = {name: median(lambda s, kind=kind: s[kind][0]) for kind, name in KIND_SECONDS.items()}
        for name, kind, i in (("solve_cells_per_s", "solve", 1), ("mc_table_paths_per_s", "mc_table", 2),
                              ("mc_walk_paths_per_s", "mc_walk", 2)):
            out[name] = median(lambda s, kind=kind, i=i: s[kind][i] / s[kind][0])
        return out

    @staticmethod
    def round_seconds(r: dict) -> float:
        return sum(scaled(dt, r["calib"][i], r["calib"][i + 1]) for i, (_, dt, *_rest) in enumerate(r["ops"]))


def src_lines() -> int:
    src = os.path.join(ROOT, "src", "pdmg")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_pdmg()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    bench = Bench(args, modules)
    shutil.rmtree(bench.work, ignore_errors=True)
    try:
        setup_times = [bench.setup() for _ in range(SETUP_REPEATS)]

        untraced, traced_rounds, walls = [], [], {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(untraced) > len(traced_rounds)
            mark = bench.tracer.mark()
            if traced:
                bench.tracer.install()
            try:
                secs = bench.round(traced)
            finally:
                bench.tracer.uninstall()
            walls[traced].append(Bench.round_seconds(secs))
            if traced:
                traced_rounds.append(bench.tracing.layer_metrics(bench.tracer.spans, mark, bench.tracer.mark()))
                for span in bench.tracer.spans[mark:]:
                    if not isinstance(span[4], (int, float, type(None))):
                        span[4] = None  # drop the strategy fields held for the ratio
            else:
                untraced.append(secs)
            if time.perf_counter() >= deadline and (not args.trace or traced_rounds):
                break
        # the program's peak, read before any reference or checker runs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.reference_solves()
        bench.check()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    with open(os.path.join(ROOT, OUT_DIR, f"rounds-{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(untraced, fh)
    print(f"src_lines {src_lines()}  rounds {len(untraced) + len(traced_rounds)}  "
          f"set-up runs {[round(t, 4) for t in setup_times]} s")
    if args.trace:
        layer = bench.tracing.median_metrics(traced_rounds)
        layer["trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        bench.tracer.dump(os.path.join(ROOT, OUT_DIR, f"spans-{args.workload}.jsonl"))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[1]]} for k, v in layer.items()}
    else:
        values = Bench.run_metrics(untraced)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    for k, m in metrics.items():
        print(f"  {k:48s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {bench.attempted}  failed {bench.failed}  check failures {len(bench.failures)}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
