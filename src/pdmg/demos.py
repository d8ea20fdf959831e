"""Desk-scale demo models: the documents in ``models/*.json`` of the source
checkout, the only copy of them.  Each has a closed form or a role:

- ``const_cost``: single state, no jumps, c = 2, lambda = 0.5: phi(0) = e.
- ``matching_pennies``: single state, zero rates, the +-1 cost table: value 0.
- ``two_state``: rate 1 into an absorbing state, c = (1, 0):
  J(0, 0) = E[exp(min(tau, 1))] with tau ~ Exp(1), which equals 2.
- ``controlled_two_state``: 2x2 actions, max q* = max|c| = 1; the saddle
  drifts with time, so freezing it on a grid leaves a first-order gap.
- ``grid_flow``: two drifting modes over 24 cells, uncontrolled,
  position-dependent cost: exercises the advection term.
- ``signed_cost``: 2x2 actions, costs down to -3 and signed terminal values;
  feeds the signed-cost clip ladder.
- ``nonneg_ladder``: three states with V = (1, 3, 9) and costs up to 5:
  truncation levels progressively uncover states and uncap costs.
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import GameModel, model_from_dict

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"


def doc(name: str) -> dict:
    """The model document ``models/<name>.json`` as a dict."""
    with open(MODELS_DIR / f"{name}.json") as fh:
        return json.load(fh)


def build(name: str) -> GameModel:
    return model_from_dict(doc(name))
