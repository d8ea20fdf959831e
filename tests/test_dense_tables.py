"""The dense model tables, truncations and assumption checks against the
per-state loops they replaced (``perstate.py``), bit for bit, on random
finite and grid-flow models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perstate
from pdmg.approx import truncate_general, truncate_nonneg
from pdmg.model import GameModel, model_from_dict
from pdmg.shapley import TimeGrid, ValueField
from pdmg.verify import check_assumptions, check_bounds
from support import same_bits


def random_doc(seed: int) -> dict:
    """A model with 1-3 actions per player and state, dense random rates
    (up to 16 states, so rate rows are long enough for the order of a sum
    to matter), signed or nonnegative costs, up to three segments and, mostly,
    Lyapunov data."""
    rng = np.random.default_rng(seed)
    if rng.uniform() < 0.4:
        modes, cells = int(rng.integers(1, 3)), int(rng.integers(2, 9))
        n = modes * cells
        states = {"grid_flow": {
            "modes": [{"name": f"m{i}", "drift": float(rng.normal(0.0, 3.0))} for i in range(modes)],
            "grid": {"min": 0.0, "max": float(rng.uniform(0.5, 2.0)), "cells": cells},
            "boundary": str(rng.choice(["clamp", "reflect"])),
        }}
    else:
        n = int(rng.integers(1, 17))
        states = {"finite": [f"s{x}" for x in range(n)]}
    p1 = [list(range(int(rng.integers(1, 4)))) for _ in range(n)]
    p2 = [list(range(int(rng.integers(1, 4)))) for _ in range(n)]
    low = float(rng.choice([0.0, 2.0]))  # 0: nonnegative costs

    def rates():
        density = rng.uniform(0.1, 1.0)
        return [{"from": x, "a": a, "b": b, "to": y, "rate": float(rng.exponential() * rng.choice([0.1, 1.0, 3.7]))}
                for x in range(n) for a in p1[x] for b in p2[x] for y in range(n)
                if y != x and rng.uniform() < density]

    def costs():
        return [{"state": x, "a": a, "b": b, "value": float(rng.uniform(-low, 2.0))}
                for x in range(n) for a in p1[x] for b in p2[x] if rng.uniform() < 0.8]

    horizon = float(rng.uniform(0.3, 2.0))
    doc = {"lambda": float(rng.uniform(0.1, 1.0)), "horizon": horizon, "states": states,
           "actions": {"p1": p1, "p2": p2}, "rates": rates(), "costs": costs(),
           "terminal": [{"state": x, "value": float(rng.uniform(-low, 1.0))} for x in range(n) if rng.uniform() < 0.5]}
    if rng.uniform() < 0.5:
        doc["segments"] = [{"t_start": 0.37 * horizon, "rates": rates()}, {"t_start": 0.71 * horizon, "costs": costs()}]
    if rng.uniform() < 0.8:
        doc["lyapunov"] = {"V": rng.uniform(1.0, 30.0, n).tolist(), "V1": rng.uniform(1.0, 30.0, n).tolist(),
                           "rho1": 1.5, "b1": 0.3, "M1": 1.0, "M2": float(10.0 ** rng.uniform(0.0, 4.0)), "kappa": 2.0,
                           "rho2": 1.0, "M3": 50.0, "b2": 1.0}
    return doc


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_tables_match_per_state_loop(seed):
    model = model_from_dict(random_doc(seed))
    rates, costs, q_totals = perstate.tables(model)
    assert same_bits(model.rates, rates)
    assert same_bits(model.costs, costs)
    assert same_bits(model.q_totals, q_totals)


TABLES = ("rates", "costs", "q_totals", "q_stars", "terminal")


def read_only(model) -> bool:
    return not any(getattr(model, name).flags.writeable for name in TABLES)


# 60 examples in tier-1, 500 under `pytest --hypothesis-profile=ci`
@pytest.mark.property
@given(seeds, st.sampled_from([1.0, 2.5, 9.0, 40.0]))
@settings(max_examples=max(60, settings.default.max_examples // 4), deadline=None)
def test_truncations_match_per_state_loop(seed, level):
    # every overlay against the validating constructor, bit for bit
    model = model_from_dict(random_doc(seed))
    clipped, shifted = truncate_general(model, level)
    args = (model.states, model.actions_p1, model.actions_p2, model.time_breaks)
    rest = (model.lam, model.horizon, model.lyapunov)
    clip = (np.maximum(model.costs, -level), np.maximum(model.terminal, -level))
    for out, (costs, terminal) in ((clipped, clip), (shifted, (clip[0] + level, clip[1] + level))):
        expected = GameModel(*args, model.rates, costs, terminal, *rest)
        assert all(same_bits(getattr(out, name), getattr(expected, name)) for name in TABLES)
        assert read_only(out)
    if model.lyapunov is None or np.any(model.costs < 0.0) or np.any(model.terminal < 0.0):
        return
    rates, costs, terminal = perstate.truncate_nonneg(model, level)
    expected = GameModel(*args, rates, costs, terminal, *rest)
    out = truncate_nonneg(model, level)
    assert all(same_bits(getattr(out, name), getattr(expected, name)) for name in TABLES)
    assert read_only(out)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_assumption_checks_match_per_state_loop(seed):
    model = model_from_dict(random_doc(seed))
    if model.lyapunov is None:
        return
    report = check_assumptions(model)
    assert report.to_json() == perstate.check_assumptions(model).to_json()
    assert all(type(c.passed) is bool for c in report.checks)


@given(seeds, st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_bound_checks_match_per_state_loop(seed, n_steps):
    model = model_from_dict(random_doc(seed))
    if model.lyapunov is None:
        return
    rng = np.random.default_rng(seed)
    field = ValueField(TimeGrid(n_steps, model.horizon), rng.uniform(0.01, 60.0, (n_steps + 1, model.n_states)))
    checks = check_bounds(field, model).checks[1:]
    assert [(c.name, c.passed, c.location, c.margin) for c in checks] == perstate.check_bounds(field, model)
