"""The exact text of the JSON reports.

Each report is built from hand-made values (17-digit floats, infinities,
NaN, ints, tuples) and its text compared with the text of the expected
document in the one JSON form of every artifact (two-space indent, sorted
keys): every float printed at 12 significant digits, a non-finite float as
a string, ints and flags as given.
"""

import json
import math

import pytest

from pdmg import demos
from pdmg.approx import LadderReport
from pdmg.cli import main
from pdmg.verify import CheckResult, OracleReport, VerificationReport


def text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def test_verification_report():
    report = VerificationReport([
        CheckResult("drift_V", True, "seg 0, state 1", 0.12345678901234568),
        CheckResult("cost_growth", False, "seg 0, state 0", -math.inf),
        CheckResult("upper_bound", True, "knot 3, state 0", math.inf),
        CheckResult("lower_bound", False, "knot 0, state 0", math.nan),
        CheckResult("positivity", True, "knot 2, state 1", 1.2345678901234567e-294),
    ])
    assert report.to_json() == text({
        "checks": [
            {"location": "seg 0, state 1", "margin": 0.123456789012, "name": "drift_V", "passed": True},
            {"location": "seg 0, state 0", "margin": "-inf", "name": "cost_growth", "passed": False},
            {"location": "knot 3, state 0", "margin": "inf", "name": "upper_bound", "passed": True},
            {"location": "knot 0, state 0", "margin": "nan", "name": "lower_bound", "passed": False},
            {"location": "knot 2, state 1", "margin": 1.23456789012e-294, "name": "positivity", "passed": True},
        ],
        "passed": False,
    })


def test_oracle_report():
    report = OracleReport(40, 8, 1.2345678901234567e-05, math.inf, [
        (0.12345678901234568, 0, 2.718281828459045, 2.7182818284590455, math.nan),
        (1.0, 1, 1.0, -0.0, 9.87654321098765e200),
    ])
    assert report.to_json() == text({
        "max_dev_backward": 1.23456789012e-05,
        "max_dev_picard": "inf",
        "n_coarse": 40,
        "probe_values": [
            {"coarse": 2.71828182846, "fine_backward": 2.71828182846, "fine_picard": "nan", "state": 0,
             "t": 0.123456789012},
            {"coarse": 1.0, "fine_backward": -0.0, "fine_picard": 9.87654321099e200, "state": 1, "t": 1.0},
        ],
        "refine_factor": 8,
    })


def test_ladder_report_leaves_the_shift_error_out():
    report = LadderReport(
        [1, 2.5, 4],
        [(0.12345678901234568, 0), (0.0, 1)],
        [[1.1111111111111112, 2.2222222222222223], [math.inf, 3.0], [1.0, -math.nan]],
        "nonincreasing",
        False,
        0.30000000000000004,
        [{"levels": [1, 2.5], "knot": 3, "state": 1, "violation": 1.23456789012e-07}],
        shift_rel_err=1.2345678901234567e-13,
    )
    assert report.to_json() == text({
        "converged_gap": 0.3,
        "direction": "nonincreasing",
        "monotone_ok": False,
        "n_values": [1, 2.5, 4],
        "phi_at_probe": [[1.11111111111, 2.22222222222], ["inf", 3.0], [1.0, "nan"]],
        "probes": [[0.123456789012, 0], [0.0, 1]],
        "violations": [{"knot": 3, "levels": [1, 2.5], "state": 1, "violation": 1.23456789012e-07}],
    })


@pytest.fixture(scope="module")
def controlled_run(tmp_path_factory):
    """controlled_two_state solved at N = 20, then simulated from t0 = 0.1234567
    and verified against a 17-digit gap tolerance."""
    root = tmp_path_factory.mktemp("controlled")
    model = str(demos.MODELS_DIR / "controlled_two_state.json")
    assert main(["solve", "--model", model, "--steps", "20", "--out", str(root / "sol")]) == 0
    sol = str(root / "sol" / "solution.csv")
    assert main(["simulate", "--model", model, "--strategies", sol, "--t0", "0.1234567", "--x0", "1",
                 "--paths", "40", "--seed", "11", "--out", str(root / "mc")]) == 0
    assert main(["verify", "--model", model, "--strategies", sol, "--refine", "2",
                 "--gap-tol", "0.0012345678901234567", "--out", str(root / "v")]) == 1
    return root


def test_estimate_json(controlled_run):
    assert (controlled_run / "mc" / "estimate.json").read_text() == text({
        "max_exponent": 0.219260608435,
        "mean": 1.23057355369,
        "min_exponent": 0.130686205867,
        "n_paths": 40,
        "risk_value": 0.414960729025,
        "seed": 11,
        "stderr": 0.00468725040479,
        "t0": 0.1234567,
        "x0": 1,
    }) + "\n"


def test_verify_report_json(controlled_run):
    where = "seg 0, state 0, actions (0,0), flow-duration 0"
    assert (controlled_run / "v" / "report.json").read_text() == text({
        "assumptions": {
            "checks": [
                {"location": where, "margin": 0.6, "name": "drift_V", "passed": True},
                {"location": where, "margin": 1.0, "name": "drift_V1_squared", "passed": True},
                {"location": "seg 0, state 0", "margin": 5.40184996686, "name": "cost_growth", "passed": True},
                {"location": "state 0", "margin": 59.0, "name": "terminal_growth", "passed": True},
                {"location": "seg 0, state 0", "margin": 0.5, "name": "intensity_bound", "passed": True},
                {"location": "state 0", "margin": 0.0, "name": "V_squared_vs_V1", "passed": True},
            ],
            "passed": True,
        },
        "exploitability": {"gap": 0.00134940860528, "tolerance": 0.00123456789012},
        "passed": False,
    }) + "\n"
