"""Piecewise-constant-in-time rates/costs and grid boundary policies."""

import math

import numpy as np
import pytest

from pdmg.model import model_from_dict
from pdmg.shapley import SolverConfig, backward_solve
from pdmg.simulate import SimConfig, estimate_J

from conftest import singleton_strategies
from support import one_state_doc


def segmented_cost_doc():
    # c = 1 on [0, 0.5), c = 3 on [0.5, 1): integral 2, phi(0) = e^{0.5*2} = e
    return one_state_doc(1.0, lam=0.5, segments=[{"t_start": 0.5, "costs": [{"state": 0, "a": 0, "b": 0, "value": 3.0}]}])


def segmented_rate_doc():
    # jump rate 0 on [0, 0.5), 2 on [0.5, 1); cost 1 until absorption
    return {
        "lambda": 1.0,
        "horizon": 1.0,
        "states": {"finite": ["on", "off"]},
        "actions": {"p1": [[0], [0]], "p2": [[0], [0]]},
        "rates": [],
        "costs": [{"state": 0, "a": 0, "b": 0, "value": 1.0}],
        "segments": [
            {"t_start": 0.5, "rates": [{"from": 0, "a": 0, "b": 0, "to": 1, "rate": 2.0}]}
        ],
    }


# E[e^{min(tau,1)}] with tau = 0.5 + Exp(2) truncated at 1:
#   e^{1/2} * ( int_0^{1/2} e^s 2 e^{-2s} ds + e^{-1} e^{1/2} )
#   = e^{1/2} * ( 2 (1 - e^{-1/2}) + e^{-1/2} )
SEGMENTED_RATE_VALUE = math.exp(0.5) * (2.0 * (1.0 - math.exp(-0.5)) + math.exp(-0.5))


def test_segmented_cost_solves_exactly():
    m = model_from_dict(segmented_cost_doc())
    field, _ = backward_solve(m, SolverConfig(n_steps=1000))
    assert abs(field.phi[0, 0] - math.e) <= 1e-12


def test_segmented_cost_simulates_exactly():
    m = model_from_dict(segmented_cost_doc())
    est = estimate_J(m, singleton_strategies(m, 1), 0.0, 0, SimConfig(n_paths=10, rng_seed=0))
    assert est.mean == pytest.approx(math.e, abs=1e-12)
    assert est.stderr == 0.0


def test_segmented_rate_matches_closed_form():
    assert SEGMENTED_RATE_VALUE == pytest.approx(2.2974425414002564, abs=1e-14)
    m = model_from_dict(segmented_rate_doc())
    field, _ = backward_solve(m, SolverConfig(n_steps=1000))
    assert abs(field.phi[0, 0] - SEGMENTED_RATE_VALUE) <= 1e-10


def test_segmented_rate_monte_carlo_agrees():
    m = model_from_dict(segmented_rate_doc())
    est = estimate_J(m, singleton_strategies(m, 1), 0.0, 0,
                     SimConfig(n_paths=50_000, rng_seed=5))
    assert abs(est.mean - SEGMENTED_RATE_VALUE) <= 3.0 * est.stderr


def test_reflect_boundary_solve_converges():
    doc = {
        "lambda": 0.5,
        "horizon": 1.0,
        "states": {
            "grid_flow": {
                "modes": [{"name": "m", "drift": 1.2}],
                "grid": {"min": 0.0, "max": 1.0, "cells": 10},
                "boundary": "reflect",
            }
        },
        "actions": {"p1": [[0]], "p2": [[0]]},
        "rates": [],
        "costs": [{"state": i, "a": 0, "b": 0, "value": 0.1 * i} for i in range(10)],
    }
    m = model_from_dict(doc)
    coarse, _ = backward_solve(m, SolverConfig(n_steps=400))
    fine, _ = backward_solve(m, SolverConfig(n_steps=800))
    assert coarse.phi.min() >= 1.0  # nonnegative costs: phi >= 1
    assert coarse.phi[0].min() > 1.0  # drift sweeps every cell through cost
    assert np.abs(coarse.phi - fine.phi[::2]).max() <= 5e-3


def test_break_on_a_knot_starts_its_segment():
    # knot 3 of T = 0.7, N = 7 is 0.29999999999999993, one ulp below the
    # break at 0.3: the cost-1 segment covers knots 3..6, so J = e^{0.5*0.4}
    segments = [{"t_start": 0.3, "costs": [{"state": 0, "a": 0, "b": 0, "value": 1.0}]}]
    m = model_from_dict(one_state_doc(lam=0.5, horizon=0.7, segments=segments))
    field, _ = backward_solve(m, SolverConfig(n_steps=7))
    assert field.phi[0, 0] == pytest.approx(math.exp(0.2), abs=1e-12)
    est = estimate_J(m, singleton_strategies(m, 7), 0.0, 0, SimConfig(n_paths=3, rng_seed=0))
    assert est.mean == pytest.approx(math.exp(0.2), abs=1e-12)
