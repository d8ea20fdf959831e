import json
import math
import warnings

import numpy as np
import pytest

from pdmg import demos
from pdmg.cli import main
from pdmg.shapley import (
    FMT,
    SolverConfig,
    TimeGrid,
    ValueField,
    backward_solve,
    export_solution_csv,
    import_solution_csv,
    json_text,
)
from pdmg.simulate import SimConfig, estimate_J
from support import one_state_doc


@pytest.fixture(scope="module")
def model_files():
    return {p.stem: str(p) for p in demos.MODELS_DIR.glob("*.json")}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestValidate:
    def test_valid_model_exits_zero(self, model_files, capsys):
        assert main(["validate", "--model", model_files["two_state"]]) == 0
        assert "model ok" in capsys.readouterr().out

    def test_without_lyapunov_notes_skip(self, model_files, capsys):
        assert main(["validate", "--model", model_files["const_cost"]]) == 0
        assert "assumptions: skipped" in capsys.readouterr().out

    def test_negative_rate_exits_one(self, tmp_path, capsys):
        doc = demos.doc("two_state")
        doc["rates"][0]["rate"] = -0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(bad)]) == 1
        assert "negative off-diagonal rate" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert main(["validate", "--model", "/nonexistent/x.json"]) == 2

    def test_unparsable_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", "--model", str(bad)]) == 2

    @pytest.mark.parametrize("value", [None, "x"])
    def test_bad_index_field_exits_two_with_its_path(self, tmp_path, capsys, value):
        doc = demos.doc("two_state")
        doc["rates"][0]["from"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(bad)]) == 2
        assert "$.rates(seg 0)[0].from: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, float("nan")])
    def test_bad_float_field_exits_two_with_its_path(self, tmp_path, capsys, value):
        doc = demos.doc("two_state")
        doc["rates"][0]["rate"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # NaN is written as the bare token NaN
        assert main(["validate", "--model", str(bad)]) == 2
        assert "$.rates(seg 0)[0].rate: expected a" in capsys.readouterr().err


class TestSolve:
    def test_constant_cost_csv(self, model_files, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["solve", "--model", model_files["const_cost"], "--steps", "1000", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "solution.csv")
        assert header[:4] == ["t", "state", "phi", "risk_value"]
        assert abs(float(rows[0][2]) - math.e) <= 1e-6
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "solve"
        assert manifest["version"]

    def test_matching_pennies_strategies_half(self, model_files, tmp_path):
        out = tmp_path / "mp"
        assert (
            main(["solve", "--model", model_files["matching_pennies"], "--steps", "200",
                  "--out", str(out)])
            == 0
        )
        header, rows = read_csv_rows(out / "solution.csv")
        mu0 = header.index("mu_0")
        for row in rows:
            for col in range(mu0, mu0 + 4):
                assert row[col] == "0.5"

    def test_picard_scheme(self, model_files, tmp_path):
        out = tmp_path / "pic"
        rc = main(
            ["solve", "--model", model_files["matching_pennies"], "--steps", "100",
             "--scheme", "picard", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv_rows(out / "solution.csv")
        assert abs(float(rows[0][2]) - 1.0) <= 1e-9

    def test_controlled_matches_oracle_run(self, model_files, tmp_path):
        out = tmp_path / "c"
        assert (
            main(["solve", "--model", model_files["controlled_two_state"], "--steps", "1000",
                  "--out", str(out)])
            == 0
        )
        _, rows = read_csv_rows(out / "solution.csv")
        phi0 = float(rows[0][2])
        out2 = tmp_path / "o"
        assert (
            main(["oracle", "--model", model_files["controlled_two_state"], "--steps", "1000",
                  "--refine", "4", "--probe", "0,0", "--out", str(out2)])
            == 0
        )
        doc = read_json(out2 / "oracle.json")
        assert abs(doc["probe_values"][0]["fine_backward"] - phi0) <= 5e-3
        assert doc["max_dev_backward"] <= 5e-3

    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "picard"])
    def test_summary_prints_the_csv_first_knot(self, model_files, tmp_path, capsys, scheme):
        # the risk value of the unrounded phi differs from the CSV's, which is
        # derived from the printed phi, in its last digits for both states
        model = demos.build("controlled_two_state")
        out = tmp_path / scheme
        assert main(["solve", "--model", model_files["controlled_two_state"], "--steps", "200",
                     "--scheme", scheme, "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / "solution.csv")
        assert capsys.readouterr().out.splitlines()[: model.n_states] == [
            f"phi(0, {model.state_name(x)}) = {rows[x][2]}   risk value {rows[x][3]}" for x in range(model.n_states)
        ]

    @pytest.mark.parametrize("command, csv, flags", [
        ("evaluate", "evaluation.csv", []),
        ("best-response", "best_response.csv", ["--side", "maximize"]),
        ("best-response", "best_response.csv", ["--side", "minimize", "--steps", "400"]),
    ])
    def test_evaluate_and_best_response_print_their_csv_first_knot(self, model_files, tmp_path, capsys,
                                                                     command, csv, flags):
        model = demos.build("controlled_two_state")
        sol = tmp_path / "sol"
        assert main(["solve", "--model", model_files["controlled_two_state"], "--steps", "200",
                     "--out", str(sol)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--model", model_files["controlled_two_state"], "--strategies",
                     str(sol / "solution.csv"), *flags, "--out", str(out)]) == 0
        _, rows = read_csv_rows(out / csv)
        assert capsys.readouterr().out.splitlines() == [
            f"phi(0, {model.state_name(x)}) = {rows[x][2]}   risk value {rows[x][3]}" for x in range(model.n_states)
        ]


class TestSimulate:
    def test_deterministic_json(self, model_files, tmp_path):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["two_state"], "--steps", "50", "--out", str(sol)])
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["simulate", "--model", model_files["two_state"], "--strategies",
                 str(sol / "solution.csv"), "--paths", "5000", "--seed", "42",
                 "--out", str(out)]
            )
            assert rc == 0
            outs.append((out / "estimate.json").read_bytes())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert abs(doc["mean"] - 2.0) <= 3.0 * doc["stderr"] + 2e-3

    def test_dump_holds_the_walks_the_estimate_averaged(self, model_files, tmp_path):
        sol, out = tmp_path / "sol", tmp_path / "mc"
        main(["solve", "--model", model_files["controlled_two_state"], "--steps", "40",
              "--out", str(sol)])
        assert main(["simulate", "--model", model_files["controlled_two_state"], "--strategies",
                     str(sol / "solution.csv"), "--paths", "30", "--seed", "5",
                     "--dump-trajectories", "12", "--out", str(out)]) == 0
        model = demos.build("controlled_two_state")
        _, strategies = import_solution_csv(model, (sol / "solution.csv").read_text())
        est = estimate_J(model, strategies, 0.0, 0, SimConfig(n_paths=30, rng_seed=5), record=30)
        # the estimate is the mean over exactly these walks ...
        assert read_json(out / "estimate.json")["mean"] == float(
            FMT % np.exp([tr.exponent for tr in est.trajectories]).mean())
        # ... and the dump lists the jumps of the first twelve of them
        _, rows = read_csv_rows(out / "trajectories.csv")
        expect = [[str(i), str(j), FMT % t, str(x), FMT % e]
                  for i, tr in enumerate(est.trajectories[:12])
                  for j, ((t, x), e) in enumerate(zip(tr.jumps, tr.jump_exponents))]
        assert rows == expect and rows

    def test_manifest_counts_the_walk(self, model_files, tmp_path):
        def run(name, x0, steps):
            sol, out = tmp_path / f"sol-{name}", tmp_path / f"mc-{name}"
            main(["solve", "--model", model_files[name], "--steps", str(steps), "--out", str(sol)])
            assert main(["simulate", "--model", model_files[name], "--strategies",
                         str(sol / "solution.csv"), "--paths", "200", "--seed", "3", "--x0", str(x0),
                         "--out", str(out)]) == 0
            return read_json(out / "manifest.json")["simulation"]

        assert run("const_cost", 0, 10) == {"candidates": 0, "jumps": 0, "rejections": 0,
                                             "acceptance_rate": None, "jumps_per_path": 0.0}
        for name, x0, steps in (("two_state", 0, 20), ("controlled_two_state", 1, 20),
                                ("grid_flow", 5, 50)):
            sim = run(name, x0, steps)
            assert sim["candidates"] == sim["jumps"] + sim["rejections"] > 0
            assert sim["acceptance_rate"] == float(FMT % (sim["jumps"] / sim["candidates"]))
            assert sim["jumps_per_path"] == float(FMT % (sim["jumps"] / 200))

    def test_trajectory_dump(self, model_files, tmp_path):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["two_state"], "--steps", "20", "--out", str(sol)])
        out = tmp_path / "t"
        rc = main(
            ["simulate", "--model", model_files["two_state"], "--strategies",
             str(sol / "solution.csv"), "--paths", "20", "--seed", "1",
             "--dump-trajectories", "20", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "trajectories.csv")
        assert header == ["path_id", "jump_index", "time", "state", "exponent_so_far"]


class TestRoundTrip:
    def test_solution_csv_round_trip_bytes(self, model_files, tmp_path):
        out = tmp_path / "rt"
        main(["solve", "--model", model_files["controlled_two_state"], "--steps", "30",
              "--out", str(out)])
        first = (out / "solution.csv").read_bytes()
        out2 = tmp_path / "rt2"
        rc = main(
            ["evaluate", "--model", model_files["controlled_two_state"], "--strategies",
             str(out / "solution.csv"), "--out", str(out2)]
        )
        assert rc == 0
        # import -> export preserves the strategy block byte-for-byte
        _, rows1 = read_csv_rows(out / "solution.csv")
        _, rows2 = read_csv_rows(out2 / "evaluation.csv")
        for r1, r2 in zip(rows1, rows2):
            assert r1[4:] == r2[4:]
        # and a pure re-export of the imported solution is byte-identical
        from pdmg.model import load_model
        from pdmg.shapley import export_solution_csv, import_solution_csv

        model = load_model(open(model_files["controlled_two_state"]).read())
        field, strategies = import_solution_csv(model, first.decode())
        assert export_solution_csv(model, field, strategies).encode() == first


    def test_malformed_row_exits_two(self, model_files, tmp_path, capsys):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["matching_pennies"], "--steps", "4",
              "--out", str(sol)])
        lines = (sol / "solution.csv").read_text().splitlines()
        lines[3] = lines[3].replace(",", ";")
        bad = sol / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--model", model_files["matching_pennies"], "--strategies",
                   str(bad), "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert "solution CSV row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("defect, message", [
        ("empty", "empty solution CSV"),
        ("header", "header mismatch"),
        ("row count", "not a multiple of the state count"),
        ("one knot", "at least two knots"),
        ("state index", "unexpected state index at row 3"),
    ])
    def test_structural_defect_exits_two(self, model_files, tmp_path, capsys, defect, message):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["two_state"], "--steps", "10", "--out", str(sol)])
        lines = (sol / "solution.csv").read_text().splitlines()
        if defect == "empty":
            lines = []
        elif defect == "header":
            lines[0] = lines[0].replace("t,", "time,", 1)
        elif defect == "row count":
            lines = lines[:-1]
        elif defect == "one knot":
            lines = lines[:3]
        else:
            lines[3] = lines[3].replace(",0,", ",1,", 1)  # row 3 is knot 1, state 0
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--model", model_files["two_state"], "--strategies", str(bad),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_non_simplex_mixture_exits_one(self, model_files, tmp_path, capsys):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["matching_pennies"], "--steps", "4",
              "--out", str(sol)])
        lines = (sol / "solution.csv").read_text().splitlines()
        parts = lines[1].split(",")
        parts[4:6] = ["1.5", "-0.5"]
        lines[1] = ",".join(parts)
        bad = sol / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--model", model_files["matching_pennies"], "--strategies",
                   str(bad), "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert "row 1, column mu_1: -0.5 is not a probability" in capsys.readouterr().err

    def test_other_horizon_exits_one(self, model_files, tmp_path, capsys):
        # a T=1 solution read against the same model with T=3: knot 1 is 0.1, not 0.3
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["two_state"], "--steps", "10", "--out", str(sol)])
        doc = demos.doc("two_state")
        doc["horizon"] = 3.0
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        rc = main(["evaluate", "--model", str(other), "--strategies", str(sol / "solution.csv"),
                   "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert "row 3: t = 0.1 is not knot 1 of the model's grid (t = 0.3)" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "evaluation.csv").exists()

    @pytest.mark.parametrize("defect, row, column, value, message", [
        ("header", 0, 4, "zzz", "header mismatch"),
        ("final row", -2, 5, "abc", "row 11: could not convert string to float: 'abc'"),
        ("padding", 2, 5, "0", "row 2: padded field mu_1 is not empty"),
    ])
    def test_unread_field_exits_two(self, tmp_path, capsys, defect, row, column, value, message):
        # state 0 plays 2x2 and state 1 plays 1x3, so mu_1 of state 1 is padding
        model = tmp_path / "mixed.json"
        model.write_text(json.dumps({
            "lambda": 0.5, "horizon": 1.0, "states": {"finite": ["square", "wide"]},
            "actions": {"p1": [[0, 1], [0]], "p2": [[0, 1], [0, 1, 2]]},
            "rates": [{"from": 0, "a": 0, "b": 0, "to": 1, "rate": 0.9},
                      {"from": 1, "a": 0, "b": 2, "to": 0, "rate": 0.4}],
            "costs": [{"state": 0, "a": 0, "b": 1, "value": 1.0},
                      {"state": 1, "a": 0, "b": 1, "value": 0.3}],
            "terminal": [],
        }))
        sol = tmp_path / "sol"
        assert main(["solve", "--model", str(model), "--steps", "5", "--out", str(sol)]) == 0
        lines = (sol / "solution.csv").read_text().splitlines()
        assert lines[0] == "t,state,phi,risk_value,mu_0,mu_1,nu_0,nu_1,nu_2"
        parts = lines[row].split(",")
        parts[column] = value
        lines[row] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--model", str(model), "--strategies", str(bad),
                   "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestCellGameCounts:
    def test_matching_pennies_cells_are_equalizers(self, model_files, tmp_path):
        # one instantaneous-cost game plus one cell game per knot, all fully
        # mixed 2x2 games: the cost game and knot 9 are equalizers, knots
        # 8..0 keep knot 9's support; the counts restart with every command
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["solve", "--model", model_files["matching_pennies"], "--steps", "10",
                         "--out", str(out)]) == 0
            assert read_json(out / "manifest.json")["cell_games"] == {
                "pure_saddle": 0, "equalizer": 2, "simplex": 0, "exact": 0, "locked": 9, "discarded": 0
            }

    def test_singleton_model_counts_its_cost_games(self, model_files, tmp_path):
        # the two states' 1x1 instantaneous-cost games are pure saddles; the
        # stepper values 1x1 cells without a game
        out = tmp_path / "two"
        main(["solve", "--model", model_files["two_state"], "--steps", "10", "--out", str(out)])
        assert read_json(out / "manifest.json")["cell_games"] == {
            "pure_saddle": 2, "equalizer": 0, "simplex": 0, "exact": 0
        }

    def test_picard_values_the_knots_its_quadrature_reads(self, model_files, tmp_path):
        # const_cost at N = 7 converges in 8 sweeps, each valuing the 1x1
        # games of knots 1..7, and the saddle read off the field values
        # those of knots 0..6: 8*7 + 7 = 63 pure saddles
        out = tmp_path / "picard"
        assert main(["solve", "--model", model_files["const_cost"], "--steps", "7", "--scheme", "picard",
                     "--out", str(out)]) == 0
        assert read_json(out / "manifest.json")["cell_games"] == {
            "pure_saddle": 63, "equalizer": 0, "simplex": 0, "exact": 0
        }


class TestCFLLoad:
    # controlled_two_state needs N >= 5; a strategy CSV on 2 steps
    @pytest.fixture(scope="class")
    def coarse_csv(self, tmp_path_factory):
        model = demos.build("controlled_two_state")
        field, strategies = backward_solve(model, SolverConfig(n_steps=40))
        coarse = TimeGrid(2, model.horizon)
        path = tmp_path_factory.mktemp("coarse") / "solution.csv"
        path.write_text(export_solution_csv(model, ValueField(coarse, field.phi[::20]), strategies.resample(coarse)))
        return str(path)

    # the first-jump update may lose positivity past the CFL load, so every
    # backward march refuses the grid before it writes anything
    @pytest.mark.parametrize("command, flags", [
        ("evaluate", []),
        ("best-response", ["--side", "maximize"]),
        ("verify", ["--refine", "1"]),
    ])
    def test_every_backward_march_refuses_the_grid(self, model_files, coarse_csv, tmp_path, capsys, command, flags):
        argv = [command, "--model", model_files["controlled_two_state"], "--strategies", coarse_csv, *flags]
        assert main(argv + ["--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: time step too large") and captured.err.endswith("use N >= 5\n")
        assert not any(tmp_path.iterdir())


class TestBestResponseCommand:
    def test_refined_non_multiple_steps(self, model_files, tmp_path):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["controlled_two_state"], "--steps", "40",
              "--out", str(sol)])
        out = tmp_path / "br"
        rc = main(
            ["best-response", "--model", model_files["controlled_two_state"], "--strategies",
             str(sol / "solution.csv"), "--side", "minimize", "--steps", "97",
             "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "best_response.csv")
        assert len(rows) == 98 * 2  # (steps+1) knots x 2 states


class TestVerifyCommand:
    def test_solved_artifacts_pass(self, model_files, tmp_path):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["controlled_two_state"], "--steps", "400",
              "--out", str(sol)])
        out = tmp_path / "v"
        rc = main(
            ["verify", "--model", model_files["controlled_two_state"], "--field",
             str(sol / "solution.csv"), "--out", str(out)]
        )
        assert rc == 0
        doc = read_json(out / "report.json")
        assert doc["passed"] is True
        assert doc["exploitability"]["gap"] <= 2e-3

    def test_corrupted_field_fails(self, model_files, tmp_path):
        sol = tmp_path / "sol"
        main(["solve", "--model", model_files["two_state"], "--steps", "20", "--out", str(sol)])
        text = (sol / "solution.csv").read_text()
        lines = text.splitlines()
        parts = lines[1].split(",")
        parts[2] = "-1.0"
        lines[1] = ",".join(parts)
        bad = sol / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "v"
        rc = main(
            ["verify", "--model", model_files["two_state"], "--field", str(bad),
             "--out", str(out)]
        )
        assert rc == 1


    def test_overflowing_growth_term_fails_with_a_report(self, tmp_path, capsys):
        # 2*(T+1)*|c| = 1600 passes the float range of e^x
        doc = demos.doc("nonneg_ladder")
        doc["costs"][0]["value"] = 400.0
        model = tmp_path / "big.json"
        model.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(model)]) == 1
        assert "cost_growth: FAIL (margin -inf at seg 0, state 0)" in capsys.readouterr().out
        out = tmp_path / "v"
        assert main(["verify", "--model", str(model), "--out", str(out)]) == 1
        checks = {c["name"]: c for c in read_json(out / "report.json")["assumptions"]["checks"]}
        assert checks["cost_growth"]["passed"] is False
        assert checks["cost_growth"]["margin"] == "-inf"

    def test_reports_are_strict_json(self, tmp_path):
        # JSON has no Infinity or NaN: a strict parser refuses those tokens
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        doc = demos.doc("nonneg_ladder")
        doc["costs"][0]["value"] = 400.0
        model = tmp_path / "big.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "v"
        assert main(["verify", "--model", str(model), "--out", str(out)]) == 1
        for name in ("report.json", "manifest.json"):
            json.loads((out / name).read_text(), parse_constant=refuse)


def test_json_text_writes_non_finite_numbers_as_strings():
    doc = {"a": [math.inf, (-math.inf, np.float64("nan"))], "b": {"c": 1.5, "d": None, "e": 2}}
    assert json.loads(json_text(doc)) == {"a": ["inf", ["-inf", "nan"]], "b": {"c": 1.5, "d": None, "e": 2}}
    assert json_text({"b": 1, "a": [0.1]}) == json.dumps({"b": 1, "a": [0.1]}, indent=2, sort_keys=True)


class TestLadderCommand:
    def test_bounded_ladder_identical_levels(self, model_files, tmp_path, capsys):
        out = tmp_path / "lad"
        rc = main(
            ["ladder", "--model", model_files["nonneg_ladder"], "--n-list", "16,17",
             "--steps", "100", "--probe", "0,0", "--out", str(out)]
        )
        assert rc == 0
        doc = read_json(out / "ladder.json")
        assert doc["monotone_ok"] is True
        assert doc["converged_gap"] == 0.0

    def test_signed_ladder_with_shift_check(self, model_files, tmp_path):
        out = tmp_path / "lad2"
        rc = main(
            ["ladder", "--model", model_files["signed_cost"], "--n-list", "1,2,4",
             "--steps", "100", "--probe", "0,0", "--shift-check-n", "2", "--out", str(out)]
        )
        assert rc == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["shift_identity_rel_err"] <= 1e-9


class TestLadderArguments:
    @pytest.mark.parametrize("model, flags, flag", [
        ("two_state", ["--n-list", "1,abc"], "--n-list"),
        ("two_state", ["--n-list", "1,2", "--probe", "0.5,x"], "--probe"),
        ("two_state", ["--n-list", "1,2", "--probe", "nan,0"], "--probe"),
        ("two_state", ["--n-list", "nan,inf"], "--n-list"),
        ("signed_cost", ["--n-list", "nan,inf"], "--n-list"),
        ("two_state", ["--n-list", "1,2", "--shift-check-n", "nan"], "--shift-check-n"),
    ])
    def test_bad_value_exits_two_naming_the_flag(self, model_files, tmp_path, capsys, model, flags, flag):
        with pytest.raises(SystemExit) as exc:
            main(["ladder", "--model", model_files[model], *flags, "--steps", "50", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err
        assert not (tmp_path / "ladder.json").exists()

    def test_oracle_probe_exits_two(self, model_files, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--model", model_files["two_state"], "--steps", "20", "--probe", "0.5,x",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --probe: expected an integer state index, got 'x'" in capsys.readouterr().err

    # a state past the model, a negative state, a time past T = 1 and a
    # negative time: oracle refuses each as ladder does
    @pytest.mark.parametrize("probe", ["0,99", "0,-1", "5,0", "-0.3,0"])
    def test_oracle_probe_off_the_horizon_or_the_states_exits_one(self, model_files, tmp_path, capsys, probe):
        assert main(["oracle", "--model", model_files["two_state"], "--steps", "20", "--refine", "2",
                     f"--probe={probe}", "--out", str(tmp_path)]) == 1
        t, x = probe.split(",")
        assert capsys.readouterr().err == f"error: invalid probe ({float(t)}, {int(x)})\n"
        assert not (tmp_path / "oracle.json").exists()

    def test_manifest_keeps_the_flags_as_given(self, model_files, tmp_path):
        assert main(["ladder", "--model", model_files["two_state"], "--n-list", "1,2.5,4", "--probe", "0,1",
                     "--steps", "50", "--shift-check-n", "1", "--out", str(tmp_path)]) == 0
        config = read_json(tmp_path / "manifest.json")["config"]
        assert (config["n_list"], config["probe"], config["shift_check_n"]) == ("1,2.5,4", ["0,1"], 1.0)
        assert read_json(tmp_path / "ladder.json")["n_values"] == [1, 2.5, 4]

    def test_traced_names_stay_importable(self):
        # the benchmark's tracer wraps these by module attribute
        import pdmg.approx
        import pdmg.cli
        import pdmg.shapley
        import pdmg.verify

        assert pdmg.approx.backward_solve is pdmg.shapley.backward_solve
        assert pdmg.verify.policy_evaluate is pdmg.shapley.policy_evaluate
        assert pdmg.verify.best_response_solve is pdmg.shapley.best_response_solve
        assert pdmg.verify.gamma_apply is pdmg.shapley.gamma_apply
        assert pdmg.cli.ladder_run is pdmg.approx.ladder_run
        assert pdmg.cli.shift_identity_check is pdmg.approx.shift_identity_check


@pytest.fixture(scope="module")
def saddle_csv(model_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("saddle")
    assert main(["solve", "--model", model_files["two_state"], "--steps", "20", "--out", str(out)]) == 0
    return str(out / "solution.csv")


class TestNumericArguments:
    @pytest.mark.parametrize("command, flags, flag", [
        ("solve", ["--steps", "0"], "--steps"),
        ("best-response", ["--strategies", "S", "--side", "maximize", "--steps", "0"], "--steps"),
        ("simulate", ["--strategies", "S", "--seed", "1", "--paths", "0"], "--paths"),
        ("verify", ["--strategies", "S", "--refine", "0"], "--refine"),
        ("verify", ["--strategies", "S", "--gap-tol", "nan"], "--gap-tol"),
        ("verify", ["--strategies", "S", "--gap-tol", "-0.001"], "--gap-tol"),
        ("oracle", ["--steps", "20", "--refine", "1"], "--refine"),
        ("oracle", ["--steps", "-5"], "--steps"),
        ("ladder", ["--n-list", "1,2", "--steps", "0"], "--steps"),
        # an infinite Picard tolerance stops after one sweep and certifies nothing
        ("solve", ["--steps", "100", "--scheme", "picard", "--tol", "inf"], "--tol"),
        ("solve", ["--steps", "100", "--scheme", "picard", "--tol", "nan"], "--tol"),
        ("solve", ["--steps", "100", "--scheme", "picard", "--tol", "-1"], "--tol"),
        ("solve", ["--steps", "100", "--scheme", "picard", "--tol", "0"], "--tol"),
        ("oracle", ["--steps", "20", "--tol", "inf"], "--tol"),
        ("oracle", ["--steps", "20", "--tol", "nan"], "--tol"),
        ("oracle", ["--steps", "20", "--tol", "-1"], "--tol"),
        # seed -1 would key the stream of seed 2**64 - 1
        ("simulate", ["--strategies", "S", "--paths", "1", "--seed", "-1"], "--seed"),
        ("simulate", ["--strategies", "S", "--paths", "1", "--seed", str(2**64)], "--seed"),
        ("simulate", ["--strategies", "S", "--paths", "1", "--seed", "1", "--dump-trajectories", "-1"],
         "--dump-trajectories"),
        # a count past the float range ended in an OverflowError traceback
        ("solve", ["--steps", "1" + "0" * 400], "--steps"),
        ("ladder", ["--n-list", "1,2", "--steps", str(2**1024)], "--steps"),
        ("simulate", ["--strategies", "S", "--seed", "1", "--paths", "9" * 310], "--paths"),
        # a t0 that is not a finite number is refused whatever the model
        ("simulate", ["--strategies", "S", "--seed", "1", "--paths", "1", "--t0", "nan"], "--t0"),
        ("simulate", ["--strategies", "S", "--seed", "1", "--paths", "1", "--t0", "inf"], "--t0"),
        ("simulate", ["--strategies", "S", "--seed", "1", "--paths", "1", "--t0", "1e400"], "--t0"),
    ])
    def test_bad_value_exits_two_naming_the_flag(self, model_files, saddle_csv, tmp_path, capsys,
                                                 command, flags, flag):
        flags = [saddle_csv if f == "S" else f for f in flags]
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_files["two_state"], *flags, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flag}: expected" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_least_values_run(self, model_files, saddle_csv, tmp_path):
        model = model_files["two_state"]
        assert main(["verify", "--model", model, "--strategies", saddle_csv, "--refine", "1",
                     "--gap-tol", "0", "--out", str(tmp_path / "v")]) == 0
        assert main(["oracle", "--model", model, "--steps", "6", "--refine", "2", "--out", str(tmp_path / "o")]) == 0
        assert main(["simulate", "--model", model, "--strategies", saddle_csv, "--seed", "1", "--paths", "1",
                     "--out", str(tmp_path / "s")]) == 0

    # the range of a finite t0 or of x0 depends on the model, as a probe's does
    @pytest.mark.parametrize("flags, message", [
        (["--t0", "-0.5"], "t0 must lie in [0, T)"),
        (["--t0", "1e300"], "t0 must lie in [0, T)"),
        (["--x0", "2"], "x0 must be a state index in [0, 2)"),
    ])
    def test_start_off_the_model_exits_one(self, model_files, saddle_csv, tmp_path, capsys, flags, message):
        assert main(["simulate", "--model", model_files["two_state"], "--strategies", saddle_csv, "--seed", "1",
                     "--paths", "1", *flags, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_seed_range_ends_run(self, model_files, saddle_csv, tmp_path, seed):
        assert main(["simulate", "--model", model_files["two_state"], "--strategies", saddle_csv, "--seed", seed,
                     "--paths", "1", "--dump-trajectories", "0", "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "estimate.json")["seed"] == int(seed)

    # NaN certified any duality gap; inf would too
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_game_tol_exits_two_naming_the_flag(self, tmp_path, capsys, tol):
        matrix = tmp_path / "m.csv"
        matrix.write_text("1,2\n3,4\n")
        with pytest.raises(SystemExit) as exc:
            main(["game", "--matrix", str(matrix), "--tol", tol])
        assert exc.value.code == 2
        assert "argument --tol: expected" in capsys.readouterr().err


class TestParser:
    def test_one_parser_gives_each_command_its_own_namespace(self, model_files, tmp_path):
        from pdmg.cli import build_parser

        assert build_parser() is build_parser()
        probes = {"a": ["0,0", "0.5,1"], "b": ["0.25,2"]}
        for run, given in probes.items():
            out = tmp_path / run
            argv = ["ladder", "--model", model_files["nonneg_ladder"], "--n-list", "16,17",
                    "--steps", "100", "--out", str(out)]
            for probe in given:
                argv += ["--probe", probe]
            assert main(argv) == 0
            assert read_json(out / "manifest.json")["config"]["probe"] == given
            assert [x for _, x in read_json(out / "ladder.json")["probes"]] == [
                int(probe.split(",")[1]) for probe in given
            ]
        first = build_parser().parse_args(["oracle", "--model", "m", "--steps", "1", "--probe", "0,0"])
        second = build_parser().parse_args(["oracle", "--model", "m", "--steps", "1", "--probe", "1,1"])
        assert first.probe == ["0,0"] and second.probe == ["1,1"]


class TestTolerance:
    @pytest.mark.parametrize("command", ["best-response", "ladder"])
    def test_commands_without_a_tolerance_refuse_tol(self, model_files, tmp_path, command):
        argv = {
            "best-response": ["--strategies", str(tmp_path / "s.csv"), "--side", "maximize"],
            "ladder": ["--n-list", "1,2", "--steps", "10"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_files["two_state"], *argv, "--tol", "1e-9",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_picard_oracle_and_game_read_tol(self, model_files, tmp_path, monkeypatch):
        import pdmg.cli as cli

        seen = []

        def spy(name):
            real = getattr(cli, name)

            def wrapped(*args):
                seen.append((name, args))
                return real(*args)

            monkeypatch.setattr(cli, name, wrapped)

        for name in ("picard_solve", "oracle_fine_grid", "solve_game"):
            spy(name)
        model = model_files["two_state"]
        matrix = tmp_path / "m.csv"
        matrix.write_text("3,1\n0,2\n")
        assert main(["solve", "--model", model, "--steps", "20", "--scheme", "picard",
                     "--tol", "1e-4", "--out", str(tmp_path / "a")]) == 0
        assert main(["oracle", "--model", model, "--steps", "20", "--refine", "2",
                     "--tol", "1e-5", "--out", str(tmp_path / "b")]) == 0
        assert main(["game", "--matrix", str(matrix), "--tol", "1e-6"]) == 0
        (_, (_, picard)), (_, (_, _, oracle, _)), (_, (_, game)) = seen
        assert (picard.tol, oracle.tol, game) == (1e-4, 1e-5, 1e-6)

    def test_picard_sweep_cap_exits_one(self, model_files, tmp_path, monkeypatch, capsys):
        import pdmg.shapley as shapley

        monkeypatch.setattr(shapley, "MAX_PICARD_SWEEPS", 2)
        rc = main(["solve", "--model", model_files["controlled_two_state"], "--steps", "200",
                   "--scheme", "picard", "--out", str(tmp_path)])
        assert rc == 1
        assert "did not reach tol 1e-09 in 2 sweeps" in capsys.readouterr().err
        assert not (tmp_path / "solution.csv").exists()


class TestGameCommand:
    def test_csv_matrix_solve(self, tmp_path, capsys):
        f = tmp_path / "m.csv"
        f.write_text("3,1\n0,2\n")
        assert main(["game", "--matrix", str(f)]) == 0
        out = capsys.readouterr().out
        assert "value 1.5" in out
        assert "0.25,0.75" in out

    def test_unparsable_entry_names_row_and_column(self, tmp_path, capsys):
        f = tmp_path / "m.csv"
        f.write_text("3,1\n\n0,abc\n")
        assert main(["game", "--matrix", str(f)]) == 2
        err = capsys.readouterr().err
        assert "payoff matrix row 2, column 2: could not convert string to float: 'abc'" in err

    @pytest.mark.parametrize("text, message", [
        ("1,2\n3\n", "payoff matrix row 2: expected 2 columns, got 1"),
        ("\n \n", "empty payoff matrix"),
    ])
    def test_ragged_or_empty_matrix_is_a_parse_error(self, tmp_path, capsys, text, message):
        f = tmp_path / "m.csv"
        f.write_text(text)
        assert main(["game", "--matrix", str(f)]) == 2
        assert message in capsys.readouterr().err

    def test_non_finite_entry_is_a_check_failure(self, tmp_path, capsys):
        f = tmp_path / "m.csv"
        f.write_text("1,nan\n3,4\n")
        assert main(["game", "--matrix", str(f)]) == 1
        assert "payoff matrix contains non-finite entries" in capsys.readouterr().err

    # games whose float shift overflows or rounds away an entry: the exact
    # re-solve works on the exactly shifted game
    @pytest.mark.parametrize("text, lines", [
        ("1e308,-1e308\n-1e308,1e308\n", ["value 0  gap 0", "row mix: 0.5,0.5", "col mix: 0.5,0.5"]),
        ("1e300,1\n2,-1e300\n", ["value 1  gap 0", "row mix: 1,0", "col mix: 0,1"]),
        ("1e307,-1e307,5\n-1e307,1e307,-5\n3,2,1e-300\n", ["value 1.000001e-300  gap 1.000001e-300"]),
    ])
    def test_extreme_entries_are_solved_on_the_exact_shift(self, tmp_path, capsys, text, lines):
        f = tmp_path / "m.csv"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["game", "--matrix", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[: len(lines)] == lines


class TestEnvironment:
    def test_out_dir_override(self, model_files, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("PDMG_OUT", str(target))
        rc = main(["solve", "--model", model_files["const_cost"], "--steps", "10"])
        assert rc == 0
        assert (target / "solution.csv").exists()


class TestRunFrame:
    # each artifact command's flags on two_state (S: a solution CSV) and the
    # files it writes besides the manifest
    COMMANDS = {
        "solve": (["--steps", "20"], ["solution.csv"]),
        "evaluate": (["--strategies", "S"], ["evaluation.csv"]),
        "best-response": (["--strategies", "S", "--side", "minimize"], ["best_response.csv"]),
        "simulate": (["--strategies", "S", "--paths", "20", "--seed", "1", "--dump-trajectories", "2"],
                     ["estimate.json", "trajectories.csv"]),
        "verify": (["--field", "S", "--refine", "2"], ["report.json"]),
        "ladder": (["--n-list", "1,2", "--steps", "20"], ["ladder.json"]),
        "oracle": (["--steps", "20", "--refine", "2"], ["oracle.json"]),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_manifest_names_exactly_the_files_written(self, model_files, saddle_csv, tmp_path, command):
        flags, files = self.COMMANDS[command]
        model, out = model_files["two_state"], tmp_path / "run"
        argv = [command, "--model", model, *[saddle_csv if f == "S" else f for f in flags], "--out", str(out)]
        assert main(argv) == 0
        manifest = read_json(out / "manifest.json")
        assert (manifest["command"], manifest["model"]) == (command, model)
        assert manifest["artifacts"] == [str(out / f) for f in files]
        assert sorted(p.name for p in out.iterdir()) == sorted(files + ["manifest.json"])

    def test_failed_artifact_write_exits_two_without_summary_or_manifest(self, model_files, saddle_csv,
                                                                          tmp_path, capsys):
        # the artifacts are written in order, then the manifest, then the summary
        out = tmp_path / "run"
        (out / "trajectories.csv").mkdir(parents=True)
        flags, _ = self.COMMANDS["simulate"]
        argv = ["simulate", "--model", model_files["two_state"], *[saddle_csv if f == "S" else f for f in flags],
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "trajectories.csv" in captured.err
        assert sorted(p.name for p in out.iterdir()) == ["estimate.json", "trajectories.csv"]


class TestNonFiniteValues:
    def test_overflowing_solve_exits_one_without_csv(self, tmp_path, capsys):
        # lambda*c*T = 800: phi overflows past the largest float, and the
        # march says where without a numpy warning
        doc = one_state_doc(800.0)
        model = tmp_path / "hot.json"
        model.write_text(json.dumps(doc))
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--model", str(model), "--steps", "2000", "--out", str(out)])
        assert rc == 1
        assert "error: phi is not finite and positive at knot 225, state 0" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    def test_subnormal_solve_exits_one_without_csv(self, tmp_path, capsys):
        # lambda*c*T = -800: phi falls below the smallest normal double, where
        # a step's product rounds back up to the same subnormal; the march
        # stops at the first such knot instead of printing phi(0) = 4.9e-324
        doc = one_state_doc(-800.0)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--model", self._write(tmp_path, doc), "--steps", "2000", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: phi = 2.21711908166e-308 at knot 229, state 0 ")
        assert err.endswith("is below the smallest normal double\n")
        assert not (out / "solution.csv").exists()

    def test_horizon_times_steps_past_the_float_range_exits_one(self, tmp_path, capsys):
        # with no costs nothing else bounds the step: the knots k*T/N of
        # T = 1e308 were written as t = inf from knot 2 on
        doc = one_state_doc(horizon=1e308)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--model", self._write(tmp_path, doc), "--steps", "20", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: N*T = 20*1e+308 is past the float range\n"
        assert not (out / "solution.csv").exists()

    def _write(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_huge_rate_exits_one_naming_the_cfl_load(self, tmp_path, capsys):
        # 2*q* overflows, so the CFL load is inf
        doc = demos.doc("two_state")
        doc["rates"][0]["rate"] = 1e308
        out = tmp_path / "run"
        rc = main(["solve", "--model", self._write(tmp_path, doc), "--steps", "200", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "CFL load" in err and "= inf is not finite" in err
        assert not (out / "solution.csv").exists()

    def test_overflowing_rate_total_exits_one_naming_the_row(self, tmp_path, capsys):
        # two rates of 1e308 out of state 0 sum past the largest float
        doc = demos.doc("nonneg_ladder")
        doc["rates"][0]["rate"] = 1e308
        doc["rates"].append({"from": 0, "a": 0, "b": 0, "to": 2, "rate": 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["validate", "--model", self._write(tmp_path, doc)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "rates[seg 0][state 0]: total off-diagonal rate is not finite" in captured.err
        assert "model ok" not in captured.out

    def test_huge_drift_exits_one_naming_the_mode(self, tmp_path, capsys):
        doc = demos.doc("grid_flow")
        doc["states"]["grid_flow"]["modes"][0]["drift"] = 1e308
        path = self._write(tmp_path, doc)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--model", path, "--steps", "200", "--out", str(out)])
        assert rc == 1
        assert "grid_flow mode 0 (up): |drift|*horizon/cell_width = inf" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()
        assert main(["validate", "--model", path]) == 1

    def test_picard_overflowing_terminal_exits_one_like_backward(self, tmp_path, capsys):
        # lambda*g = 750: both schemes stop at the terminal slice's guard
        doc = demos.doc("two_state")
        doc["lambda"] = 0.5
        doc["terminal"] = [{"state": 0, "value": 1500.0}]
        path = self._write(tmp_path, doc)
        for scheme in ("semi_lagrangian", "picard"):
            out = tmp_path / scheme
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["solve", "--model", path, "--steps", "200", "--scheme", scheme,
                           "--out", str(out)])
            assert rc == 1
            assert "lambda*g exceeds 700" in capsys.readouterr().err
            assert not (out / "solution.csv").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_picard_overflowing_quadrature_exits_one_without_a_warning(self, tmp_path, capsys):
        # Delta*lambda*c = 1e308 per knot: the quadrature's sum passes the
        # largest float, and the residual check names it
        doc = one_state_doc(1e306, horizon=1000.0)
        out = tmp_path / "run"
        rc = main(["solve", "--model", self._write(tmp_path, doc), "--steps", "10", "--scheme", "picard",
                   "--out", str(out)])
        assert rc == 1
        assert "error: Picard sweep 1 has residual inf; rescale the model" in capsys.readouterr().err
        assert not (out / "solution.csv").exists()

    # numpy refuses the 8 PB of mixtures at once and allocates nothing; a
    # count that could be allocated would run for hours or exhaust memory
    def test_step_count_past_memory_exits_one(self, model_files, tmp_path, capsys):
        argv = ["solve", "--model", model_files["const_cost"], "--steps", str(10**15), "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate") and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_huge_cell_count_exits_two_naming_the_field(self, tmp_path, capsys):
        doc = demos.doc("grid_flow")
        doc["states"]["grid_flow"]["grid"]["cells"] = 10**30
        assert main(["validate", "--model", self._write(tmp_path, doc)]) == 2
        assert "$.states.grid_flow.grid.cells: " in capsys.readouterr().err
