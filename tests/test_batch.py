"""The batched backward solve against each member's own solve: the same
bits for phi and both mixtures, the same errors, and the same cell-game
counts apart from ``discarded``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdmg.approx import _rebuild, truncate_general
from pdmg.matrix_game import MatrixGameError
from pdmg.model import GameModel, model_from_dict
from pdmg.shapley import (
    CFLError,
    PositivityError,
    SolverConfig,
    SolverError,
    backward_solve,
    backward_solve_batch,
)
from support import (
    BUDGET,
    assert_batch_is_own_solves,
    finite_members,
    grid_doc,
    one_state_doc,
    pick_steps,
    random_finite_doc,
)


@pytest.mark.property
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
        assert_batch_is_own_solves(models, pick_steps(models, n))

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
        assert_batch_is_own_solves(models, pick_steps(models, n))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_square_widths(self, width):
        models = finite_members(range(10, 13), [(width, width)] * 2, 2)
        assert_batch_is_own_solves(models, pick_steps(models, 60))

    def test_members_failing_at_different_knots(self):
        models = [model_from_dict(grid_doc())] + [model_from_dict(grid_doc(8, s)) for s in (1, 2, 3)]
        assert assert_batch_is_own_solves(models, 200)["discarded"] > 0

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
        counts = assert_batch_is_own_solves(models, 200)
        # every knot of member 0 and the two knots heading member 1's supports
        assert counts["pure_saddle"] + counts["equalizer"] + counts["simplex"] == 2 * 2 + 200 + 2
        assert counts["locked"] == 200 - 2

    def test_ladder_and_shift_pair(self, signed_cost, two_state):
        for model in (signed_cost, two_state):
            models = [truncate_general(model, n)[0] for n in (1, 2, 4)] + list(truncate_general(model, 2))
            # the references run members the validating constructor builds, not the overlays
            refs = [GameModel(m.states, m.actions_p1, m.actions_p2, m.time_breaks, m.rates, m.costs, m.terminal,
                              m.lam, m.horizon, m.lyapunov) for m in models]
            assert_batch_is_own_solves(models, 200, refs)

    def test_single_member_is_backward_solve(self, controlled):
        config = SolverConfig(n_steps=100)
        [(field, strategies)] = backward_solve_batch([controlled], config)
        ref, ref_strategies = backward_solve(controlled, config)
        assert np.array_equal(field.phi, ref.phi) and np.array_equal(strategies.mu, ref_strategies.mu)


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
        docs = {"ok": one_state_doc(1.0), "cfl": one_state_doc(2000.0), "terminal": one_state_doc(terminal_cost=800.0),
                "overflow": one_state_doc(1000.0)}
        kinds = {kind: model_from_dict(doc) for kind, doc in docs.items()}
        expected = self.own_error(kinds[first_bad], 2000)
        with pytest.raises(expected.type) as exc:
            backward_solve_batch([kinds[k] for k in order], SolverConfig(n_steps=2000))
        assert str(exc.value) == str(expected.value)

    def test_kinds_of_error(self):
        assert self.own_error(model_from_dict(one_state_doc(2000.0)), 2000).type is CFLError
        assert "lambda*g exceeds 700" in str(self.own_error(model_from_dict(one_state_doc(terminal_cost=800.0)), 2000).value)
        assert self.own_error(model_from_dict(one_state_doc(1000.0)), 2000).type is PositivityError
        backward_solve(model_from_dict(one_state_doc(1.0)), SolverConfig(n_steps=2000))

    def test_failed_cell_game_of_a_later_member(self, controlled):
        # every cost raised by 1500 (CFL load 0.38 at N = 2000): the member's
        # cell games overflow, as they do alone
        hot = _rebuild(controlled, controlled.costs + 1500.0, controlled.terminal)
        expected = self.own_error(hot, 2000)
        assert expected.type is MatrixGameError
        assert str(expected.value) == "payoff matrix contains non-finite entries"
        clipped = truncate_general(controlled, 1)[0]
        with pytest.raises(expected.type) as exc:
            backward_solve_batch([controlled, clipped, hot], SolverConfig(n_steps=2000))
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
        assert_batch_is_own_solves(models, 100)
