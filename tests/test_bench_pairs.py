"""The summary of scripts/bench_pairs.py on fabricated run reports; no process starts."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "solve_cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.2},
        {"name": "ladder_s", "unit": "s", "better": "lower", "bound": 0.15},
    ]
}


def report(cells, ladder, correct=True, failed=1, attempted=30, src_lines=3600):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"solve_cells_per_s": {"value": cells, "unit": "cells/s"}, "ladder_s": {"value": ladder, "unit": "s"}},
        "src_lines": src_lines,
    }


def test_medians_quartiles_and_wins():
    # the change solves faster in three pairs, ties in one and loses one;
    # its ladder is slower in every pair
    parent = [report(c, 1.0, src_lines=3646) for c in (100.0, 110.0, 120.0, 130.0, 140.0)]
    change = [report(c, 1.1, failed=0) for c in (101.0, 110.0, 121.0, 131.0, 139.0)]
    out = bench_pairs.summarize(list(zip(parent, change)), SPEC)
    cells = out["metrics"]["solve_cells_per_s"]
    assert cells["parent"] == {"median": 120.0, "q1": 110.0, "q3": 130.0}
    assert cells["change"] == {"median": 121.0, "q1": 110.0, "q3": 131.0}
    assert cells["wins"] == {"parent": 1, "change": 3}
    assert (cells["pairs"], cells["bound"], cells["better"]) == (5, 0.2, "higher")
    assert cells["relative_change"] == pytest.approx(1.0 / 120.0)
    assert not cells["worse_than_bound"]
    ladder = out["metrics"]["ladder_s"]
    assert ladder["wins"] == {"parent": 5, "change": 0}
    assert ladder["relative_change"] == pytest.approx(0.1)
    assert not ladder["worse_than_bound"]
    assert out["sides"] == {
        "parent": {"correct": True, "failed": 5, "attempted": 150, "src_lines": [3646]},
        "change": {"correct": True, "failed": 0, "attempted": 150, "src_lines": [3600]},
    }


@pytest.mark.parametrize(
    "cells, ladder, crossed",
    [
        (79.0, 1.0, {"solve_cells_per_s"}),  # 21% fewer cells per second
        (81.0, 1.0, set()),
        (100.0, 1.16, {"ladder_s"}),  # 16% slower ladders
        (100.0, 1.14, set()),
        (200.0, 0.5, set()),  # better on both
    ],
)
def test_bound_is_relative_to_the_parent_median_in_the_direction_of_worse(cells, ladder, crossed):
    out = bench_pairs.summarize([(report(100.0, 1.0), report(cells, ladder))], SPEC)
    assert {m for m, e in out["metrics"].items() if e["worse_than_bound"]} == crossed
    assert out["metrics"]["ladder_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}


def test_one_failed_check_makes_a_side_incorrect():
    pairs = [(report(1.0, 1.0), report(1.0, 1.0)), (report(1.0, 1.0), report(1.0, 1.0, correct=False))]
    out = bench_pairs.summarize(pairs, SPEC)
    assert out["sides"]["parent"]["correct"] and not out["sides"]["change"]["correct"]
    assert out["metrics"]["ladder_s"]["wins"] == {"parent": 0, "change": 0}


def traced(metrics):
    """A --trace 1 run report: per-layer metrics only."""
    units = {"s": "s", "self_s": "s", "calls": "count", "overhead": "ratio"}
    return {
        "correct": True,
        "attempted": 30,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k.rsplit(".", 1)[1]]} for k, v in metrics.items()},
        "src_lines": 3600,
    }


def test_layers_are_medians_of_each_sides_traced_runs():
    parent = [traced({"shapley.export_solution_csv.s": v, "matrix_game.solve.calls": 10, "trace.overhead": 0.5})
              for v in (0.125, 0.5, 0.1)]
    change = [traced({"shapley.export_solution_csv.s": v, "matrix_game.solve.calls": 0}) for v in (0.05, 0.04, 0.06)]
    change[1]["metrics"]["cli.self_s"] = {"value": 0.01, "unit": "s"}  # a layer one run alone holds
    out = bench_pairs.layers((parent, change))
    assert list(out) == ["shapley.export_solution_csv.s", "matrix_game.solve.calls", "trace.overhead", "cli.self_s"]
    # one disturbed run (0.5) moves neither the median nor the relative change
    assert out["shapley.export_solution_csv.s"] == {
        "unit": "s", "parent": 0.125, "change": 0.05, "relative_change": pytest.approx(-0.6),
        "range": {"parent": [0.1, 0.5], "change": [0.04, 0.06]},
    }
    assert out["matrix_game.solve.calls"] == {
        "unit": "count", "parent": 10, "change": 0, "relative_change": -1.0,
        "range": {"parent": [10, 10], "change": [0, 0]},
    }
    # a layer no run of one side holds, or that reads 0 at the parent, has no relative change
    assert out["trace.overhead"] == {
        "unit": "ratio", "parent": 0.5, "change": None, "relative_change": None,
        "range": {"parent": [0.5, 0.5], "change": None},
    }
    assert out["cli.self_s"] == {
        "unit": "s", "parent": None, "change": 0.01, "relative_change": None,
        "range": {"parent": None, "change": [0.01, 0.01]},
    }
    assert bench_pairs.layers((change, change))["matrix_game.solve.calls"]["relative_change"] is None


def test_one_traced_run_a_side_is_its_own_median():
    out = bench_pairs.layers(([traced({"cli.self_s": 0.02})], [traced({"cli.self_s": 0.01})]))
    assert out["cli.self_s"] == {
        "unit": "s", "parent": 0.02, "change": 0.01, "relative_change": pytest.approx(-0.5),
        "range": {"parent": [0.02, 0.02], "change": [0.01, 0.01]},
    }


def test_both_sides_run_from_copies_at_paths_of_one_length():
    roots = bench_pairs.copy_roots(4321)
    assert list(roots) == ["parent", "change"]
    assert len(roots["parent"]) == len(roots["change"])
    assert all(Path(r).parent == ROOT / ".pdmgbench_out" for r in roots.values())
