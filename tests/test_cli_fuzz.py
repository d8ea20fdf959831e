"""Fuzz of every subcommand's numeric flags through the command line.

Each case starts from a valid small command on a demo model and replaces
the text of one numeric flag with a drawn value: a small valid number, 0, a
negative, -0.0, nan, inf, 1e400, 10**15, a 400-digit integer, an empty
string, a word, or the flag's valid text with an extra comma.  The command
then runs in process, with every warning an error.  It must exit 0, 1 or 2
without a traceback, and a nonzero exit must print an ``error:`` line.

A count of 10**15 asks for petabytes, which numpy refuses at once without
allocating; a count that could be allocated (10**7 to 10**13) would run for
hours or exhaust memory, so none is drawn.
"""

import contextlib
import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmg import demos
from pdmg.cli import main

pytestmark = pytest.mark.property

MODEL = str(demos.MODELS_DIR / "two_state.json")

# a small valid text of each numeric flag
VALID = {
    "--steps": st.integers(1, 40).map(str),
    "--tol": st.floats(1e-12, 1.0).map(repr),
    "--paths": st.integers(1, 50).map(str),
    "--seed": st.integers(0, 2**64 - 1).map(str),
    "--t0": st.floats(0.0, 1.0).map(repr),
    "--x0": st.integers(0, 1).map(str),
    "--dump-trajectories": st.integers(0, 50).map(str),
    "--refine": st.integers(1, 3).map(str),
    "--gap-tol": st.floats(0.0, 1.0).map(repr),
    "--n-list": st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
    "--probe": st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)).map(lambda p: f"{p[0]!r},{p[1]}"),
    "--shift-check-n": st.floats(0.0, 4.0).map(repr),
}
OTHER = ["0", "-3", "-0.0", "nan", "inf", "1e400", str(10**15), "9" * 400, "", "many"]

# each subcommand's valid small command (S: a solution CSV, M: a payoff
# matrix CSV); every flag in VALID that it holds is a target
COMMANDS = [
    ["solve", "--model", MODEL, "--steps", "20"],
    ["solve", "--model", MODEL, "--steps", "20", "--scheme", "picard", "--tol", "1e-9"],
    ["best-response", "--model", MODEL, "--strategies", "S", "--side", "maximize", "--steps", "30"],
    ["simulate", "--model", MODEL, "--strategies", "S", "--paths", "20", "--seed", "1", "--t0", "0.25",
     "--x0", "0", "--dump-trajectories", "2"],
    ["verify", "--model", MODEL, "--strategies", "S", "--refine", "2", "--gap-tol", "0.002"],
    ["ladder", "--model", MODEL, "--n-list", "1,2", "--probe", "0,0", "--steps", "20", "--shift-check-n", "1"],
    ["game", "--matrix", "M", "--tol", "1e-9"],
    ["oracle", "--model", MODEL, "--steps", "20", "--refine", "2", "--probe", "0.5,1", "--tol", "1e-9"],
]
TARGETS = [(c, i + 1) for c, argv in enumerate(COMMANDS) for i, flag in enumerate(argv[:-1]) if flag in VALID]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The S and M files and an output directory."""
    tmp = tmp_path_factory.mktemp("cli_fuzz")
    assert main(["solve", "--model", MODEL, "--steps", "20", "--out", str(tmp / "saddle")]) == 0
    (tmp / "m.csv").write_text("1,2\n3,4\n")
    return {"S": str(tmp / "saddle" / "solution.csv"), "M": str(tmp / "m.csv"), "out": str(tmp / "run")}


@st.composite
def commands(draw):
    """A valid command with one numeric flag's text replaced."""
    c, at = draw(st.sampled_from(TARGETS))
    argv = list(COMMANDS[c])
    valid = VALID[argv[at - 1]]
    argv[at] = draw(st.one_of(valid, st.sampled_from(OTHER), valid.map(lambda text: text + ",")))
    return argv


def run(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused a flag
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@settings(deadline=None)
@given(argv=commands())
def test_numeric_flags_exit_as_documented(files, argv):
    argv = [files.get(a, a) for a in argv]
    if argv[0] != "game":
        argv += ["--out", files["out"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in out + err, (argv, err)
    if rc:
        assert any("error:" in line for line in err.splitlines()), (argv, rc, err)
