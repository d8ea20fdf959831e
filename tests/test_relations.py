"""Metamorphic relations of the backward solve: a change to the model whose
effect on phi is known exactly, checked at every knot.

Cost shift: adding s to every running cost, with the terminal cost kept,
multiplies phi(t, x) by exp(lambda*s*(T - t)), whatever the strategies, so
the saddle value shifts by the same factor.

Sandwich: against a fixed pair of strategies, player 1's best response is
at least the pair's value and player 2's at most, at every knot and state:
a best response ranges over pure actions, of which the held player's
mixture is an average.

State permutation: renaming the states of a finite model permutes the
columns of phi the same way.

Duplicated action: a copy of one of player 1's actions at one state, with
the same costs and rates, repeats a row of that state's cell games, which
changes no game's value (weight on the copy is weight on the original), so
phi stays the same.

Cost raise: the Shapley operator is monotone in the running costs, so
raising each of them by a random amount in [0, 0.5) lowers phi nowhere."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmg.approx import _rebuild
from pdmg.cli import main
from pdmg.model import model_from_dict
from pdmg.shapley import SolverConfig, backward_solve, evaluate_and_respond
from support import (
    BUDGET,
    admissible_steps,
    draw_doc,
    draw_model,
    model_shapes,
    pick_steps,
    random_finite_doc,
    random_strategies,
)

N = 200
# 100x the worst relative error measured (5.4e-14) over random models of
# this kind, wide ones included, at every shift below
SHIFT_RTOL = 5e-12
# 100x the worst relative violation measured (2.0e-16, one ulp) over
# 3,800 random models with padded actions, mixed and one-hot strategies
SANDWICH_RTOL = 2e-14
# under 100x the worst relative error measured (6.3e-15) over 2,000 random
# finite models of 2-4 states at N <= 150, each under a random permutation
PERMUTE_RTOL = 5e-13
# under 100x the worst relative error measured (6.9e-15) over 2,000 random
# finite and grid-flow models at N <= 150, one action duplicated in each
DUPLICATE_RTOL = 5e-13


def shift_error(model, s, n_steps):
    """Worst relative error of phi_s(t_k) = phi(t_k)*exp(lam*s*(T - t_k)) over
    every knot and state, phi_s the solve of ``model`` with s added to every
    running cost."""
    base = backward_solve(model, SolverConfig(n_steps=n_steps))[0]
    shifted = backward_solve(_rebuild(model, model.costs + s, model.terminal), SolverConfig(n_steps=n_steps))[0]
    expected = np.array([
        [base.at(k, x) * math.exp(model.lam * s * (model.horizon - base.grid.knot(k))) for x in range(model.n_states)]
        for k in range(n_steps + 1)
    ])
    return float(np.abs((shifted - expected) / expected).max())


@pytest.mark.property
@settings(max_examples=max(25, settings.default.max_examples // 4), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    widths=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
    n_segments=st.integers(1, 2),
    s=st.sampled_from([-20.0, -10.0, -3.0, 3.0, 10.0, 20.0]),
)
# a model with mixed saddles, whose shifts by -20 and +20 an absolute gap
# tolerance of 1e-9 got wrong (1.3e-3 off) or refused
@example(seed=642159816, widths=[(2, 2), (3, 3)], n_segments=2, s=-20.0)
@example(seed=642159816, widths=[(2, 2), (3, 3)], n_segments=2, s=20.0)
def test_cost_shift_scales_phi(seed, widths, n_segments, s):
    model = model_from_dict(random_finite_doc(seed, widths, n_segments))
    assert shift_error(model, s, N) <= SHIFT_RTOL


@pytest.mark.parametrize("s", [-20.0, 20.0])
def test_cost_shift_of_a_model_with_mixed_saddles(s):
    # under an absolute gap tolerance of 1e-9 for every cell game, the -20
    # shift solved silently to risk values 0.25 off the shift identity and
    # the +20 shift raised "duality gap 2.980e-08 exceeds tolerance 1.000e-09"
    model = model_from_dict(random_finite_doc(642159816, [(2, 2), (3, 3)], 2))
    assert shift_error(model, s, 400) <= 1e-9


def test_picard_stop_of_a_model_with_small_phi(tmp_path):
    # shifted by -20, phi(0) is near 3e-13 at N = 100: under a stop absolute
    # in phi's units (a change of at most 1e-9) the iteration stopped after 64
    # sweeps, not 73, at phi(0) = [-1.2e-10, 1.0e-10], and the export
    # refused the field
    doc = random_finite_doc(642159816, [(2, 2), (3, 3)], 2)
    for cost in doc["costs"] + [c for seg in doc["segments"] for c in seg["costs"]]:
        cost["value"] -= 20.0
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", "--model", str(path), "--steps", "100", "--scheme", "picard", "--out", str(tmp_path)]
    assert main(argv) == 0
    phi = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1, usecols=2)
    assert np.all(phi > 0.0)


def sandwich_error(model, strategies, refine):
    """Worst relative amount by which the pair's value leaves the interval of
    the two best responses, over every knot and state (<= 0 inside it)."""
    pair, high, low = evaluate_and_respond(model, strategies, SolverConfig(n_steps=strategies.grid.n_steps * refine))
    return float((np.maximum(pair - high, low - pair) / pair.phi).max())


@pytest.mark.property
@settings(max_examples=max(25, settings.default.max_examples // 4), deadline=None)
@given(n=st.integers(1, 40), refine=st.integers(1, 3), one_hot=st.booleans(), **model_shapes)
def test_best_responses_sandwich_the_pair(widths, n_segments, grid, seed, n, refine, one_hot):
    model = draw_model(widths, n_segments, grid, seed)
    strategies = random_strategies(model, admissible_steps(model, n), seed, one_hot)
    assert sandwich_error(model, strategies, refine) <= SANDWICH_RTOL


def solve_phi(doc, n):
    return backward_solve(model_from_dict(doc), SolverConfig(n_steps=n))[0].phi


def relabelled(doc, order):
    """``doc`` with its state x renamed ``order[x]``."""
    def move(table):
        return [{k: int(order[v]) if k in ("state", "from", "to") else v for k, v in e.items()} for e in table]

    back = np.argsort(order)  # the old state of each new one
    out = dict(doc, states={"finite": [doc["states"]["finite"][x] for x in back]},
               actions={p: [doc["actions"][p][x] for x in back] for p in ("p1", "p2")},
               costs=move(doc["costs"]), rates=move(doc["rates"]), terminal=move(doc["terminal"]))
    out["segments"] = [dict(seg, costs=move(seg["costs"]), rates=move(seg["rates"])) for seg in doc["segments"]]
    return out


def permutation_error(doc, order, n):
    """Worst relative error of phi'(t_k, order[x]) = phi(t_k, x) over every
    knot and state, phi' the solve of the relabelled model."""
    phi = solve_phi(doc, n)
    return float(np.abs((solve_phi(relabelled(doc, order), n)[:, order] - phi) / phi).max())


@pytest.mark.property
@BUDGET
@given(
    seed=st.integers(0, 2**32 - 1),
    widths=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=2, max_size=4),
    n_segments=st.integers(1, 2),
    n=st.integers(1, 150),
    data=st.data(),
)
def test_permuting_the_states_permutes_phi(seed, widths, n_segments, n, data):
    doc = random_finite_doc(seed, widths, n_segments)
    order = np.array(data.draw(st.permutations(range(len(widths)))))
    n = admissible_steps(model_from_dict(doc), n)
    assert permutation_error(doc, order, n) <= PERMUTE_RTOL


def with_copy_of_action(doc, x, a):
    """``doc`` with one more action of player 1 at state x, a copy of its
    action a: the same costs and rates against every action of player 2."""
    new = len(doc["actions"]["p1"][x])

    def extend(table, key):
        return table + [dict(e, a=new) for e in table if e[key] == x and e["a"] == a]

    p1 = [list(acts) + [new] if y == x else acts for y, acts in enumerate(doc["actions"]["p1"])]
    out = dict(doc, actions=dict(doc["actions"], p1=p1), costs=extend(doc["costs"], "state"),
               rates=extend(doc["rates"], "from"))
    out["segments"] = [dict(seg, costs=extend(seg["costs"], "state"), rates=extend(seg["rates"], "from"))
                       for seg in doc["segments"]]
    return out


@pytest.mark.property
@BUDGET
@given(n=st.integers(1, 150), state=st.integers(0, 9), action=st.integers(0, 2), **model_shapes)
def test_duplicating_an_action_leaves_phi(widths, n_segments, grid, seed, n, state, action):
    doc = draw_doc(widths, n_segments, grid, seed)
    x = state % len(doc["actions"]["p1"])
    a = action % len(doc["actions"]["p1"][x])
    n = admissible_steps(model_from_dict(doc), n)
    phi = solve_phi(doc, n)
    assert np.abs((solve_phi(with_copy_of_action(doc, x, a), n) - phi) / phi).max() <= DUPLICATE_RTOL


def with_raised_costs(doc, seed):
    """``doc`` with each running cost entry raised by its own U(0, 0.5) draw."""
    rng = np.random.default_rng(seed)
    out = copy.deepcopy(doc)
    for table in [out] + out["segments"]:
        for entry in table["costs"]:
            entry["value"] += float(rng.uniform(0.0, 0.5))
    return out


@pytest.mark.property
@BUDGET
@given(n=st.integers(1, 150), **model_shapes)
def test_raising_the_costs_lowers_phi_nowhere(widths, n_segments, grid, seed, n):
    doc = draw_doc(widths, n_segments, grid, seed)
    raised = with_raised_costs(doc, seed)
    n = pick_steps([model_from_dict(doc), model_from_dict(raised)], n)
    assert np.all(solve_phi(raised, n) >= solve_phi(doc, n))
