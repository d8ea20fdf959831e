"""Each study script under scripts/ runs to completion on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdmg

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("convergence_study.py", ["grid_flow", "50"]),
        ("ladder_study.py", ["100"]),
        ("solve_and_simulate.py", ["controlled_two_state", "200", "2000"]),
    ],
)
def test_script_exits_zero(script, args):
    src = str(Path(pdmg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
