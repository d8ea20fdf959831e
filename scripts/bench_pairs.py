#!/usr/bin/env python3
"""Alternated benchmark pairs of a parent commit and the working tree.

Usage: python3 scripts/bench_pairs.py --pr N [--parent HEAD] [--seed 1]
                                      [--workload NAME ...]

Both sides run from copies made the same way, by ``git archive``, at paths
of the same length under ``.pdmgbench_out/``: ``parent-<pid>`` holds the
parent commit, ``change-<pid>`` the tracked files of this checkout as they
stand (``git stash create``, which touches neither the files nor the refs;
HEAD on a clean tree).  Untracked files are left out, so ``git add`` a new
file first.  It runs ``python3 pdmgbench/run.py --workload W --seed S+i
--seconds T --trace 0`` on the parent and on the change, one after the
other, for pair i = 0..9 of every workload, with T the ``run_seconds`` of
``BENCHMARK.json``; the side that runs first alternates from pair to pair.
Then it runs each workload three more times on each side with ``--trace 1``
and seeds S..S+2, alternated the same way.  The last line of each run is
its JSON report.  Writes ``BENCH_<pr>.json`` at the root of this checkout:
for each workload and end-to-end metric of ``BENCHMARK.json``, the parent's
and the change's median and quartiles, the pairs each side wins (ties count
for neither) and whether the change's median is worse than the parent's by
more than the metric's relative bound; per side the checks' verdict, the
failed and attempted operations and the line count of ``src/pdmg/*.py``;
the per-layer figures, each side's median and range over its traced runs
(reported, not gated); and the machine.  The copies are removed on every
exit.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
TRACED = 3  # traced runs per side and workload


def quartiles(values: list) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, spec: dict) -> dict:
    """Summary of one workload's pairs of run reports, (parent, change) each.

    A report is the JSON line of ``pdmgbench/run.py`` plus ``src_lines``.
    ``spec`` is ``BENCHMARK.json``: each of its end-to-end metrics gets both
    sides' median and quartiles, the pairs each side wins and whether the
    change's median is worse than the parent's by more than the bound,
    relative to the parent's median.
    """
    sides = {}
    for s, side in enumerate(SIDES):
        runs = [pair[s] for pair in pairs]
        sides[side] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "src_lines": sorted({r["src_lines"] for r in runs}),
        }
    metrics = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        values = [[r["metrics"][name]["value"] for r in pair] for pair in pairs]
        wins = dict.fromkeys(SIDES, 0)
        for parent, change in values:
            if parent != change:
                wins["change" if (change > parent) == higher else "parent"] += 1
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"], "pairs": len(pairs)}
        for s, side in enumerate(SIDES):
            entry[side] = quartiles([v[s] for v in values])
        entry["wins"] = wins
        base, new = entry["parent"]["median"], entry["change"]["median"]
        change = (new - base) / abs(base) if base else 0.0
        entry["relative_change"] = change
        entry["worse_than_bound"] = (-change if higher else change) > m["bound"]
        metrics[name] = entry
    return {"sides": sides, "metrics": metrics}


def layers(traced: tuple) -> dict:
    """Per-layer figures of the traced runs of each side, (parent runs,
    change runs): each metric some report holds, with its unit, each side's
    median over its runs and their range [min, max] (None where no run of a
    side holds it), and the change of the medians relative to the parent's."""
    reports = [r for runs in traced for r in runs]
    names = dict.fromkeys(name for report in reports for name in report["metrics"])
    table = {}
    for name in names:
        entry = {"unit": next(r["metrics"][name]["unit"] for r in reports if name in r["metrics"])}
        spread = {}
        for side, runs in zip(SIDES, traced):
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            entry[side] = statistics.median(values) if values else None
            spread[side] = [min(values), max(values)] if values else None
        base, new = entry["parent"], entry["change"]
        entry["relative_change"] = (new - base) / abs(base) if base and new is not None else None
        entry["range"] = spread
        table[name] = entry
    return table


def run_once(root: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The JSON report of one benchmark run in the checkout at ``root``, with its src_lines."""
    cmd = [sys.executable, "pdmgbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {root} exited {run.returncode}:\n{run.stderr[-2000:]}")
    report = json.loads(lines[-1])
    found = re.search(r"^src_lines (\d+)", run.stdout, re.M)
    report["src_lines"] = int(found.group(1)) if found else None
    return report


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def copy_roots(tag: int) -> dict:
    """Where each side's copy goes: ``.pdmgbench_out/<side>-<tag>``, paths of
    one length, as "parent" and "change" are names of one length."""
    return {side: os.path.join(ROOT, ".pdmgbench_out", f"{side}-{tag}") for side in SIDES}


def archive(rev: str, dest: str) -> None:
    """The files of commit ``rev`` in the new directory ``dest``."""
    os.makedirs(dest)
    files = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=files, check=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--pr", type=int, required=True, help="number in the name of BENCH_<pr>.json")
    p.add_argument("--parent", default="HEAD", help="commit to compare this checkout against")
    p.add_argument("--seed", type=int, default=1, help="pair i runs seed + i")
    p.add_argument("--workload", action="append", help="a workload to run (default: all)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parent = git("rev-parse", args.parent)
    change = git("stash", "create") or git("rev-parse", "HEAD")
    roots = copy_roots(os.getpid())
    # a SIGTERM unwinds through the finally below, as Ctrl-C does
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        for side, rev in zip(SIDES, (parent, change)):
            archive(rev, roots[side])
        runs = {w: [] for w in workloads}
        for i in range(PAIRS):
            for w in workloads:
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                report = {side: run_once(roots[side], w, args.seed + i, seconds) for side in order}
                runs[w].append(tuple(report[side] for side in SIDES))
                print(f"pair {i + 1}/{PAIRS} {w}: done", file=sys.stderr)
        traced = {w: ([], []) for w in workloads}
        for i in range(TRACED):
            for w in workloads:
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    traced[w][SIDES.index(side)].append(run_once(roots[side], w, args.seed + i, seconds, trace=1))
        print("traced runs: done", file=sys.stderr)
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)
    doc = {
        "pr": args.pr,
        "parent": parent,
        "change": change,
        "pairs": PAIRS,
        "seconds": seconds,
        "seeds": [args.seed + i for i in range(PAIRS)],
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "trace_seeds": [args.seed + i for i in range(TRACED)],
        "workloads": {w: {**summarize(pairs, spec), "layers": layers(traced[w])} for w, pairs in runs.items()},
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    crossed = [f"{w}.{m}" for w, s in doc["workloads"].items() for m, e in s["metrics"].items()
               if e["worse_than_bound"]]
    print(f"wrote {path}; worse than the bound: {', '.join(crossed) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
