"""The Picard operator on its per-grid tables against the per-knot loop it
replaced (``picard_loop.py``): the same bits for one application on a
random field, for the Picard fixed point and its residuals and for the
saddle read off the fixed point, and the same errors, type and message."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import picard_loop
from pdmg import shapley
from pdmg.model import model_from_dict
from pdmg.shapley import (
    PicardConvergenceError,
    SolverConfig,
    SolverError,
    TimeGrid,
    _FlowLags,
    gamma_apply,
    picard_solve,
    saddle_from_field,
)
from support import BUDGET, one_state_doc

# per-state (A_x, B_x) of a model's states, or None for a random mix of
# widths up to 3x3, so that some state's actions are padded
WIDTHS = {"1x1": (1, 1), "2x2": (2, 2), "3x3": (3, 3), "padded": None}


@st.composite
def picard_cases(draw):
    """(model document, N): a finite model or a grid flow (clamp or reflect,
    drifts of either sign or zero) with up to two time breaks, each on a
    knot of the N-step grid or between two knots."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["finite", "clamp", "reflect"]))
    if kind == "finite":
        S = draw(st.integers(1, 4))
    else:
        modes = [draw(st.one_of(st.just(0.0), st.floats(-0.8, 0.8))) for _ in range(draw(st.integers(1, 2)))]
        cells = draw(st.integers(2, 4))
        S = len(modes) * cells
    shape = WIDTHS[draw(st.sampled_from(list(WIDTHS)))]
    widths = [shape or (draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(S)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = float(rng.uniform(0.5, 2.0))
    breaks = set()
    for on_knot, place in draw(st.lists(st.tuples(st.booleans(), st.floats(0.05, 0.95)), max_size=2)):
        if on_knot and n > 1:
            breaks.add(min(max(round(place * n), 1), n - 1) * horizon / n)
        else:
            breaks.add(place * horizon)

    def tables():
        costs, rates = [], []
        for x, (m, k) in enumerate(widths):
            for a in range(m):
                for b in range(k):
                    costs.append({"state": x, "a": a, "b": b, "value": float(rng.uniform(-1.0, 1.0))})
                    for y in range(S):
                        if y != x and rng.uniform() < 0.5:
                            rates.append({"from": x, "a": a, "b": b, "to": y, "rate": float(rng.uniform(0.0, 1.5))})
        return costs, rates

    if kind == "finite":
        states = {"finite": [f"s{x}" for x in range(S)]}
    else:
        states = {"grid_flow": {"modes": [{"name": f"m{i}", "drift": v} for i, v in enumerate(modes)],
                                "grid": {"min": 0.0, "max": 1.0, "cells": cells}, "boundary": kind}}
    costs, rates = tables()
    segments = []
    for t0 in sorted(breaks):
        c, r = tables()
        segments.append({"t_start": t0, "costs": c, "rates": r})
    doc = {
        "lambda": float(rng.uniform(0.1, 1.0)),
        "horizon": horizon,
        "states": states,
        "actions": {"p1": [list(range(m)) for m, _ in widths], "p2": [list(range(k)) for _, k in widths]},
        "rates": rates,
        "costs": costs,
        "segments": segments,
        "terminal": [{"state": x, "value": float(rng.uniform(-1.0, 1.0))} for x in range(S)],
    }
    return doc, n


def outcome(solve, *args, **kwargs):
    """What a solve returns, or the type, message and residual of what it raises."""
    try:
        return solve(*args, **kwargs)
    except SolverError as exc:
        return type(exc), str(exc), getattr(exc, "last_residual", None)


def assert_same_fixed_point(model, n):
    config = SolverConfig(n_steps=n)
    got = outcome(picard_solve, model, config, collect_info=True)
    want = outcome(picard_loop.picard_solve, model, config, collect_info=True)
    if isinstance(want[0], type):
        assert got == want
        return
    (field, info), (ref, ref_info) = got, want
    assert field.grid == ref.grid
    assert np.array_equal(field.phi, ref.phi)
    assert info == ref_info
    if model.widths != (1, 1):
        strategies, ref_strategies = saddle_from_field(model, field), picard_loop.saddle_from_field(model, ref)
        assert np.array_equal(strategies.mu, ref_strategies.mu)
        assert np.array_equal(strategies.nu, ref_strategies.nu)


def assert_same_operator(model, n, seed):
    grid = TimeGrid(n, model.horizon)
    u = np.random.default_rng(seed).uniform(0.5, 2.0, (n + 1, model.n_states))
    assert np.array_equal(gamma_apply(_FlowLags(model, grid), u), picard_loop.gamma_apply(model, u, grid))
    # a second application on the same tables reads them as the first left them
    lags, ref_lags = _FlowLags(model, grid), picard_loop.FlowLags(model, grid)
    once = gamma_apply(lags, u)
    twice = gamma_apply(lags, once)
    assert np.array_equal(twice, picard_loop.gamma_apply(model, once, grid, ref_lags))


class TestAgainstThePerKnotLoop:
    @pytest.mark.property
    @BUDGET
    @given(case=picard_cases(), seed=st.integers(0, 2**32 - 1))
    def test_random_models(self, case, seed):
        doc, n = case
        model = model_from_dict(doc)
        assert_same_operator(model, n, seed)
        assert_same_fixed_point(model, n)

    @pytest.mark.parametrize("n", [1, 7, 40])
    @pytest.mark.parametrize("name", ["const_cost", "matching_pennies", "two_state", "controlled_two_state",
                                      "grid_flow", "signed_cost", "nonneg_ladder"])
    def test_demos(self, demo, name, n):
        model = demo(name)
        assert_same_operator(model, n, n)
        assert_same_fixed_point(model, n)


def flowing(cost, terminal_cost=0.0, horizon=1.0):
    """Two cells of one mode drifting right, clamped, with the given cost and terminal cost."""
    return {
        "lambda": 1.0, "horizon": horizon,
        "states": {"grid_flow": {"modes": [{"name": "m", "drift": 1.0}], "grid": {"min": 0.0, "max": 1.0, "cells": 2},
                                 "boundary": "clamp"}},
        "actions": {"p1": [[0], [0]], "p2": [[0], [0]]},
        "costs": [{"state": x, "a": 0, "b": 0, "value": cost} for x in (0, 1)],
        "terminal": [{"state": x, "value": terminal_cost} for x in (0, 1)],
    }


class TestErrors:
    @pytest.mark.parametrize("build", [one_state_doc, flowing], ids=["finite", "grid_flow"])
    def test_terminal_overflow(self, build):
        model = model_from_dict(build(0.0, terminal_cost=701.0))
        config, grid, u = SolverConfig(n_steps=10), TimeGrid(10, 1.0), np.ones((11, model.n_states))
        message = "lambda*g exceeds 700; rescale the model before solving"
        assert outcome(picard_solve, model, config) == outcome(picard_loop.picard_solve, model, config)
        assert outcome(picard_solve, model, config) == (SolverError, message, None)
        assert outcome(gamma_apply, _FlowLags(model, grid), u) == outcome(picard_loop.gamma_apply, model, u, grid)
        assert outcome(gamma_apply, _FlowLags(model, grid), u) == (SolverError, message, None)

    # finite entries of 1e306 sum past the largest float over ten steps of 100
    @pytest.mark.parametrize("build", [one_state_doc, flowing], ids=["finite", "grid_flow"])
    def test_non_finite_residual(self, build):
        model = model_from_dict(build(1e306, horizon=1000.0))
        with np.errstate(over="ignore", invalid="ignore"):
            got = outcome(picard_solve, model, SolverConfig(n_steps=10))
            want = outcome(picard_loop.picard_solve, model, SolverConfig(n_steps=10))
        assert got == want == (SolverError, "Picard sweep 1 has residual inf; rescale the model", None)

    @pytest.mark.parametrize("name", ["controlled_two_state", "grid_flow"])
    def test_sweep_cap(self, demo, name, monkeypatch):
        monkeypatch.setattr(shapley, "MAX_PICARD_SWEEPS", 2)
        config = SolverConfig(n_steps=50)
        got = outcome(picard_solve, demo(name), config)
        assert got == outcome(picard_loop.picard_solve, demo(name), config)
        assert got[0] is PicardConvergenceError and "did not reach tol 1e-09 in 2 sweeps" in got[1]
        assert math.isfinite(got[2])
