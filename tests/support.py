"""Helpers that more than one test module uses: model documents, random
models and strategies, random solutions for the CSV tests, the CFL step
picker, bit comparisons and the quarter example budget.  pytest does not
collect this module; test modules import from it and from no other test
module."""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

import perknot
import three_sweeps
from pdmg.matrix_game import COUNTS, reset_counts
from pdmg.model import model_from_dict
from pdmg.shapley import (
    _CSV_BLOCK,
    CFLError,
    SolverConfig,
    StrategyField,
    TimeGrid,
    ValueField,
    backward_solve,
    backward_solve_batch,
    best_response_solve,
    check_cfl,
    evaluate_and_respond,
    policy_evaluate,
)
from pdmg.verify import exploitability

# a quarter of the active profile's examples: 25 in tier-1, 500 under
# `pytest --hypothesis-profile=ci`
BUDGET = settings(deadline=None, max_examples=settings.default.max_examples // 4)


def one_state_doc(cost=None, terminal_cost=None, lam=1.0, **keys):
    """One state "a" with one action per player and no jumps, lambda = lam
    and T = 1; ``cost`` and ``terminal_cost`` give the state's running and
    terminal cost (none if None), and ``keys`` replace or add top-level keys
    (``horizon``, ``segments``, ``lyapunov``, ...)."""
    doc = {
        "lambda": lam,
        "horizon": 1.0,
        "states": {"finite": ["a"]},
        "actions": {"p1": [[0]], "p2": [[0]]},
        "rates": [],
        "costs": [] if cost is None else [{"state": 0, "a": 0, "b": 0, "value": cost}],
    }
    if terminal_cost is not None:
        doc["terminal"] = [{"state": 0, "value": terminal_cost}]
    doc.update(keys)
    return doc


def grid_doc(cells=8, seed=None):
    """Two-mode grid flow with 2x2 actions in every cell.  In mode 0 the cell
    game is lam*c = [[0, 1], [1, 0]]/2 plus a jump to mode 1 on (0, 0), whose
    worth grows along the grid through the terminal cost: each cell's saddle
    is pure while mode 1 is worth far more than mode 0 and mixed after, and
    the cells cross over at different knots.  A seed perturbs the numbers."""
    rng = np.random.default_rng(seed)
    jitter = (lambda: 1.0) if seed is None else (lambda: float(rng.uniform(0.7, 1.3)))
    rates, costs, terminal = [], [], []
    for i in range(cells):
        pos = (i + 0.5) / cells
        rates.append({"from": i, "a": 0, "b": 0, "to": cells + i, "rate": 2.0 * jitter()})
        costs.append({"state": i, "a": 0, "b": 1, "value": jitter()})
        costs.append({"state": i, "a": 1, "b": 0, "value": jitter()})
        costs.append({"state": cells + i, "a": 0, "b": 0, "value": 0.1 * jitter()})
        terminal.append({"state": cells + i, "value": 0.5 + 3.0 * pos * jitter()})
    return {
        "lambda": 0.5,
        "horizon": 1.0,
        "states": {
            "grid_flow": {
                "modes": [{"name": "up", "drift": 0.3}, {"name": "down", "drift": -0.2}],
                "grid": {"min": 0.0, "max": 1.0, "cells": cells},
                "boundary": "clamp",
            }
        },
        "actions": {"p1": [[0, 1]], "p2": [[0, 1]]},
        "rates": rates,
        "costs": costs,
        "terminal": terminal,
    }


def random_doc(seed, widths, n_segments, grid):
    """A model with (A_x, B_x) actions at state x, random jumps and 1-2 time
    segments; ``grid`` makes it a two-mode grid flow of len(widths)/2 cells,
    else a finite state space."""
    rng = np.random.default_rng(seed)
    S = len(widths)

    def tables():
        costs, rates = [], []
        for x, (m, n) in enumerate(widths):
            for a in range(m):
                for b in range(n):
                    costs.append({"state": x, "a": a, "b": b, "value": float(rng.uniform(-1.0, 1.0))})
                    for y in range(S):
                        if y != x and rng.uniform() < 0.6:
                            rates.append({"from": x, "a": a, "b": b, "to": y, "rate": float(rng.uniform(0.0, 2.0))})
        return costs, rates

    if grid:
        states = {
            "grid_flow": {
                "modes": [{"name": "up", "drift": float(rng.uniform(0.1, 0.6))},
                          {"name": "down", "drift": -float(rng.uniform(0.1, 0.6))}],
                "grid": {"min": 0.0, "max": 1.0, "cells": S // 2},
                "boundary": "clamp" if rng.uniform() < 0.5 else "reflect",
            }
        }
    else:
        states = {"finite": [f"s{x}" for x in range(S)]}
    horizon = float(rng.uniform(0.5, 2.0))
    costs, rates = tables()
    segments = []
    for t0 in np.sort(rng.uniform(0.05, 0.95, n_segments - 1)) * horizon:
        c, r = tables()
        segments.append({"t_start": float(t0), "costs": c, "rates": r})
    return {
        "lambda": float(rng.uniform(0.1, 1.0)),
        "horizon": horizon,
        "states": states,
        "actions": {"p1": [list(range(m)) for m, _ in widths], "p2": [list(range(n)) for _, n in widths]},
        "rates": rates,
        "costs": costs,
        "segments": segments,
        "terminal": [{"state": x, "value": float(rng.uniform(-1.0, 1.0))} for x in range(S)],
    }


model_kinds = dict(n_segments=st.integers(1, 2), grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
model_shapes = dict(widths=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=5),
                    **model_kinds)


def draw_doc(widths, n_segments, grid, seed):
    """A finite model with one state per entry of ``widths``, or a grid flow
    with one cell per entry (at least two)."""
    if grid:
        widths = widths * 2  # two modes over len(widths) cells
        if len(widths) < 4:
            widths = widths * 2
    return random_doc(seed, widths, n_segments, grid)


def draw_model(widths, n_segments, grid, seed):
    """The model of :func:`draw_doc`."""
    return model_from_dict(draw_doc(widths, n_segments, grid, seed))


def finite_members(seeds, widths, n_segments):
    """Finite models of random_doc, one per seed, on the first seed's horizon
    and time breaks."""
    docs = [random_doc(seed, widths, n_segments, False) for seed in seeds]
    for doc in docs[1:]:
        doc["horizon"] = docs[0]["horizon"]
        for seg, first in zip(doc["segments"], docs[0]["segments"]):
            seg["t_start"] = first["t_start"]
    return [model_from_dict(doc) for doc in docs]


def admissible_steps(model, n):
    """n, or twice the least CFL-admissible step count if that is larger."""
    try:
        check_cfl(model, TimeGrid(n, model.horizon))
        return n
    except CFLError as exc:
        return max(n, 2 * exc.required_n)


def pick_steps(models, n):
    return max(admissible_steps(m, n) for m in models)


def random_strategies(model, n, seed, one_hot):
    """Mixtures on each state's admissible actions, zero past them; one-hot
    mixtures put all weight on one admissible action."""
    rng = np.random.default_rng(seed)
    halves = []
    for admissible in (model.cells[:, :, 0], model.cells[:, 0, :]):
        if one_hot:
            weights = rng.uniform(size=(n,) + admissible.shape) * admissible
            mix = (weights == weights.max(axis=2, keepdims=True)).astype(float)
        else:
            mix = rng.uniform(0.05, 1.0, (n,) + admissible.shape) * admissible
            mix /= mix.sum(axis=2, keepdims=True)
        halves.append(mix)
    return StrategyField(TimeGrid(n, model.horizon), *halves)


# values a mixture entry can take besides random simplices: exact 0s and 1s,
# a negative zero, a subnormal and repeated fractions
SPECIAL = [0.0, -0.0, 1.0, 0.5, 0.25, 1.0 / 3.0, 5e-324, 1e-13]


def finite_model(widths, horizon=1.0, lam=0.5):
    """States 0..S-1 with (A_x, B_x) actions; no jumps, no costs."""
    return model_from_dict({
        "lambda": lam,
        "horizon": horizon,
        "states": {"finite": [f"s{x}" for x in range(len(widths))]},
        "actions": {"p1": [list(range(a)) for a, _ in widths], "p2": [list(range(b)) for _, b in widths]},
        "rates": [],
        "costs": [],
        "terminal": [],
    })


def random_simplices(rng, n_slices, counts, width, palette):
    """(N, S, width) simplices padded with zeros past each state's count."""
    out = np.zeros((n_slices, len(counts), width))
    rows = np.arange(n_slices)
    for x, m in enumerate(counts):
        kind = rng.integers(0, 4, n_slices)
        block = rng.dirichlet(np.ones(m), n_slices)
        block[kind == 1] = 1.0 / m
        onehot = np.zeros((n_slices, m))
        onehot[rows, rng.integers(0, m, n_slices)] = 1.0
        block[kind == 0] = onehot[kind == 0]
        if m > 1:
            p = rng.choice(palette, n_slices)
            pair = np.zeros((n_slices, m))
            pair[:, 0], pair[:, 1] = p, 1.0 - p
            block[kind == 3] = pair[kind == 3]
        # runs of repeated rows, as a saddle held over many knots gives
        repeat = rng.random(n_slices) < 0.5
        repeat[0] = False
        block[repeat] = block[np.maximum.accumulate(np.where(repeat, 0, rows))][repeat]
        out[:, x, :m] = block
    return out


def random_solution(model, n_steps, seed, palette, phis):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(n_steps, model.horizon)
    phi = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (n_steps + 1, model.n_states)))
    phi.ravel()[rng.integers(0, phi.size, len(phis))] = phis
    counts = [(len(a), len(b)) for a, b in zip(model.actions_p1, model.actions_p2)]
    mu = random_simplices(rng, n_steps, [a for a, _ in counts], model.widths[0], palette)
    nu = random_simplices(rng, n_steps, [b for _, b in counts], model.widths[1], palette)
    return ValueField(grid, phi), StrategyField(grid, mu, nu)


@st.composite
def solutions(draw):
    n = draw(st.integers(1, 3))
    widths = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=n, max_size=n))
    model = finite_model(
        widths,
        horizon=draw(st.floats(0.01, 1e3, allow_nan=False)),
        lam=draw(st.floats(0.01, 1.0, allow_nan=False)),
    )
    # a few knots, or enough rows for at least two blocks of both export and import
    n_steps = draw(st.one_of(st.integers(1, 6), st.integers(2 * _CSV_BLOCK // n, 3 * _CSV_BLOCK // n)))
    palette = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0)), min_size=1, max_size=4))
    phis = draw(st.lists(st.sampled_from([1e-300, 1e300, 1.0, 2.5e-7, 7.0e12]), max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    return model, *random_solution(model, n_steps, seed, palette, phis)


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes: tells 0.0 from -0.0."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def solve_each_way(models, n, refs=None):
    """(batch, own solves, batch counts, summed own counts) at n steps; the
    own solves are of ``refs`` if given, else of the members."""
    config = SolverConfig(n_steps=n)
    reset_counts()
    batch = backward_solve_batch(models, config)
    batch_counts = dict(COUNTS)
    reset_counts()
    own = [backward_solve(m, config) for m in refs or models]
    return batch, own, batch_counts, dict(COUNTS)


def assert_batch_is_own_solves(models, n, refs=None):
    batch, own, batch_counts, own_counts = solve_each_way(models, n, refs)
    assert len(batch) == len(models)
    for (field, strategies), (ref, ref_strategies) in zip(batch, own):
        assert np.array_equal(field.phi, ref.phi)
        assert np.array_equal(strategies.mu, ref_strategies.mu)
        assert np.array_equal(strategies.nu, ref_strategies.nu)
    # the members share one chunk schedule, which moves only `discarded`
    assert {**batch_counts, "discarded": 0} == {**own_counts, "discarded": 0}
    return batch_counts


def assert_sweep_is_three_sweeps(model, strategies, refine):
    gap, *want = three_sweeps.exploitability(model, strategies, refine)
    config = SolverConfig(n_steps=strategies.grid.n_steps * refine)
    fields = evaluate_and_respond(model, strategies, config)
    for field, ref in zip(fields, want):
        assert field.grid == ref.grid
        assert np.array_equal(field.phi, ref.phi)
    # a side with one action everywhere is the pair itself
    A, B = model.widths
    assert (fields[1] is fields[0]) == (A == 1) and (fields[2] is fields[0]) == (B == 1)
    for side, ref in zip(("maximize", "minimize"), want[1:]):
        assert np.array_equal(best_response_solve(model, strategies, side, config).phi, ref.phi)
    assert exploitability(model, strategies, SolverConfig(n_steps=strategies.grid.n_steps), refine) == gap


SIDES = ("maximize", "minimize")


def sweeps(model, strategies, m):
    """The evaluation and both best responses (on m steps), each with its reference."""
    config = SolverConfig(n_steps=m)
    yield policy_evaluate(model, strategies).phi, perknot.policy_evaluate(model, strategies).phi
    for side in SIDES:
        yield (best_response_solve(model, strategies, side, config).phi,
               perknot.best_response_solve(model, strategies, side, config).phi)
