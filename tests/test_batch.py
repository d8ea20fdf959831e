"""The batched backward solve against each member's own solve: the same
bits for phi and both mixtures, the same errors, and the same cell-game
counts apart from ``discarded``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmg.approx import truncate_general
from pdmg.matrix_game import COUNTS, MatrixGameError, reset_counts
from pdmg.model import model_from_dict
from pdmg.shapley import (
    CFLError,
    PositivityError,
    SolverConfig,
    SolverError,
    backward_solve,
    backward_solve_batch,
)
from test_carried_supports import grid_doc, random_finite_doc, steps_for


def finite_members(seeds, widths, n_segments):
    """Models of random_finite_doc, one per seed, on the first seed's horizon
    and time breaks."""
    docs = [random_finite_doc(seed, widths, n_segments) for seed in seeds]
    for doc in docs[1:]:
        doc["horizon"] = docs[0]["horizon"]
        for seg, first in zip(doc["segments"], docs[0]["segments"]):
            seg["t_start"] = first["t_start"]
    return [model_from_dict(doc) for doc in docs]


def solve_each_way(models, n):
    """(batch, own solves, batch counts, summed own counts) at n steps."""
    config = SolverConfig(n_steps=n)
    reset_counts()
    batch = backward_solve_batch(models, config)
    batch_counts = dict(COUNTS)
    reset_counts()
    own = [backward_solve(m, config) for m in models]
    return batch, own, batch_counts, dict(COUNTS)


def assert_same_bits(models, n):
    batch, own, batch_counts, own_counts = solve_each_way(models, n)
    assert len(batch) == len(models)
    for (field, strategies), (ref, ref_strategies) in zip(batch, own):
        assert np.array_equal(field.phi, ref.phi)
        assert np.array_equal(strategies.mu, ref_strategies.mu)
        assert np.array_equal(strategies.nu, ref_strategies.nu)
    # the members share one chunk schedule, which moves only `discarded`
    assert {**batch_counts, "discarded": 0} == {**own_counts, "discarded": 0}
    return batch_counts


def pick_steps(models, n):
    return max(steps_for(m, n) for m in models)


# a quarter of the active profile's examples: 25 in tier-1, 500 under
# `pytest --hypothesis-profile=ci`
BUDGET = settings(deadline=None, max_examples=settings.default.max_examples // 4)


class TestBatchIdentity:
    @BUDGET
    @given(
        widths=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
        n_segments=st.integers(1, 3),
        members=st.integers(2, 4),
        n=st.integers(1, 120),
        seed=st.integers(0, 2**32 - 5),
    )
    def test_random_finite_members(self, widths, n_segments, members, n, seed):
        models = finite_members(range(seed, seed + members), widths, n_segments)
        assert_same_bits(models, pick_steps(models, n))

    @BUDGET
    @given(
        cells=st.integers(2, 8),
        members=st.integers(2, 4),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 5),
    )
    def test_grid_flow_members(self, cells, members, n, seed):
        # each seed moves the knots at which the cells' supports switch, so
        # the members' certificates fail at different knots
        models = [model_from_dict(grid_doc(cells, s)) for s in range(seed, seed + members)]
        assert_same_bits(models, pick_steps(models, n))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_square_widths(self, width):
        models = finite_members(range(10, 13), [(width, width)] * 2, 2)
        assert_same_bits(models, pick_steps(models, 60))

    def test_members_failing_at_different_knots(self):
        models = [model_from_dict(grid_doc())] + [model_from_dict(grid_doc(8, s)) for s in (1, 2, 3)]
        assert assert_same_bits(models, 200)["discarded"] > 0

    def test_member_settled_afresh_below_another_members_failure(self):
        # member 0 plays a 3x3 game with a full-support saddle, so every knot
        # of it is settled afresh; member 1 carries a 2x2 support and fails
        # its certificate where its game turns pure at t = 0.5, a knot member
        # 0 settled afresh in the pass thrown away
        def doc(before, after):
            def costs(game):
                return [{"state": 0, "a": a, "b": b, "value": v}
                        for a, row in enumerate(game) for b, v in enumerate(row)]

            return {"lambda": 0.5, "horizon": 1.0, "states": {"finite": ["s"]},
                    "actions": {"p1": [[0, 1, 2]], "p2": [[0, 1, 2]]}, "terminal": [],
                    "costs": costs(before), "segments": [{"t_start": 0.5, "costs": costs(after)}]}

        rps = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
        pennies = [[1, 0, 2], [0, 1, 2], [-1, -1, 3]]
        pure = [[0.1, 0.3, 0.9], [0.6, 0.8, 0.9], [0.0, 0.0, 0.9]]
        models = [model_from_dict(doc(rps, rps)), model_from_dict(doc(pennies, pure))]
        counts = assert_same_bits(models, 200)
        # every knot of member 0 and the two knots heading member 1's supports
        assert counts["pure_saddle"] + counts["equalizer"] + counts["simplex"] == 2 * 2 + 200 + 2
        assert counts["locked"] == 200 - 2

    def test_ladder_and_shift_pair(self, signed_cost, two_state):
        for model in (signed_cost, two_state):
            models = [truncate_general(model, n)[0] for n in (1, 2, 4)] + list(truncate_general(model, 2))
            assert_same_bits(models, 200)

    def test_single_member_is_backward_solve(self, controlled):
        config = SolverConfig(n_steps=100)
        [(field, strategies)] = backward_solve_batch([controlled], config)
        ref, ref_strategies = backward_solve(controlled, config)
        assert np.array_equal(field.phi, ref.phi) and np.array_equal(strategies.mu, ref_strategies.mu)


def one_state(cost=0.0, terminal=0.0, horizon=1.0):
    return model_from_dict({
        "lambda": 1.0, "horizon": horizon, "states": {"finite": ["a"]},
        "actions": {"p1": [[0]], "p2": [[0]]},
        "costs": [{"state": 0, "a": 0, "b": 0, "value": cost}],
        "terminal": [{"state": 0, "value": terminal}],
    })


# the overflowing member stops with an error, alone or in a batch, and warns of nothing
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBatchErrors:
    # at N = 2000: cost 1 passes; cost 2000 fails the CFL check; terminal 800
    # overflows; cost 1000 overflows phi during the march
    def own_error(self, model, n):
        with pytest.raises((SolverError, MatrixGameError)) as exc:
            backward_solve(model, SolverConfig(n_steps=n))
        return exc

    @pytest.mark.parametrize("order, first_bad", [
        (("ok", "cfl", "terminal"), "cfl"),
        (("ok", "terminal", "cfl"), "terminal"),
        (("overflow", "cfl"), "overflow"),
        (("ok", "ok", "overflow"), "overflow"),
    ])
    def test_first_failing_member_raises_its_own_error(self, order, first_bad):
        kinds = {"ok": one_state(1.0), "cfl": one_state(2000.0), "terminal": one_state(terminal=800.0),
                 "overflow": one_state(1000.0)}
        expected = self.own_error(kinds[first_bad], 2000)
        with pytest.raises(expected.type) as exc:
            backward_solve_batch([kinds[k] for k in order], SolverConfig(n_steps=2000))
        assert str(exc.value) == str(expected.value)

    def test_kinds_of_error(self):
        assert self.own_error(one_state(2000.0), 2000).type is CFLError
        assert "lambda*g exceeds 700" in str(self.own_error(one_state(terminal=800.0), 2000).value)
        assert self.own_error(one_state(1000.0), 2000).type is PositivityError
        backward_solve(one_state(1.0), SolverConfig(n_steps=2000))

    def test_failed_cell_game_of_a_later_member(self, controlled):
        # the +20 shifted member fails its certificate as it does alone
        clipped, shifted = truncate_general(controlled, 20)
        expected = self.own_error(shifted, 200)
        with pytest.raises(expected.type) as exc:
            backward_solve_batch([controlled, clipped, shifted], SolverConfig(n_steps=200))
        assert str(exc.value) == str(expected.value)


class TestBatchShape:
    @pytest.mark.parametrize("change", ["states", "actions", "time breaks", "horizon"])
    def test_mismatched_models_raise(self, change):
        base = random_finite_doc(1, [(2, 2)] * 2, 2)
        widths = {"states": [(2, 2)] * 3, "actions": [(2, 2), (2, 1)]}.get(change, [(2, 2)] * 2)
        other = random_finite_doc(2, widths, 2)
        other["horizon"] = base["horizon"] * (2.0 if change == "horizon" else 1.0)
        for seg, first in zip(other["segments"], base["segments"]):
            seg["t_start"] = first["t_start"] * (0.5 if change == "time breaks" else 1.0)
        models = [model_from_dict(base), model_from_dict(other)]
        with pytest.raises(ValueError, match="member 1 does not share"):
            backward_solve_batch(models, SolverConfig(n_steps=10))

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="at least one model"):
            backward_solve_batch([], SolverConfig(n_steps=10))

    def test_members_may_differ_in_lambda(self):
        doc = random_finite_doc(3, [(2, 2)] * 2, 2)
        models = [model_from_dict(doc), model_from_dict({**doc, "lambda": doc["lambda"] / 3.0})]
        assert_same_bits(models, 100)
