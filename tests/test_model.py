import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdmg.model import (
    FiniteStates,
    GameModel,
    GridFlowStates,
    Mode,
    ModelFormatError,
    ModelValidationError,
    load_model,
    model_from_dict,
)
from pdmg.shapley import StrategyField, TimeGrid, knot_segments
from pdmg.simulate import _Tables

import perstate
from support import one_state_doc


def _grid_doc(drift=0.5, lo=0.0, hi=1.0, modes=None):
    modes = [{"name": "m", "drift": drift}] if modes is None else modes
    return one_state_doc(states={"grid_flow": {"modes": modes, "grid": {"min": lo, "max": hi, "cells": 4}}})


def _lyapunov_doc(key, value):
    doc = one_state_doc()
    doc["lyapunov"] = {"V": [1.0], "V1": [1.0], "rho1": 1.0, "b1": 0.1, "M1": 1.0, "M2": 1.0,
                       "kappa": 1.0, "rho2": 1.0, "M3": 1.0, "b2": 1.0}
    if key == "V":
        doc["lyapunov"]["V"] = [value]
    else:
        doc["lyapunov"][key] = value
    return doc


# field kind -> (document with the given value in that field, the field's
# path, a value that loads)
FLOAT_FIELDS = {
    "lambda": (lambda v: one_state_doc(**{"lambda": v}), "$.lambda", 0.5),
    "horizon": (lambda v: one_state_doc(horizon=v), "$.horizon", 0.5),
    "rate": (lambda v: one_state_doc(states={"finite": ["a", "b"]},
                                   rates=[{"from": 0, "a": 0, "b": 0, "to": 1, "rate": v}]),
             "$.rates(seg 0)[0].rate", 0.5),
    "cost value": (lambda v: one_state_doc(costs=[{"state": 0, "a": 0, "b": 0, "value": v}]),
                   "$.costs(seg 0)[0].value", 0.5),
    "terminal value": (lambda v: one_state_doc(terminal=[{"state": 0, "value": v}]),
                       "$.terminal[0].value", 0.5),
    "drift": (lambda v: _grid_doc(drift=v), "$.states.grid_flow.modes[0].drift", 0.5),
    "grid min": (lambda v: _grid_doc(lo=v), "$.states.grid_flow.grid.min", 0.5),
    "grid max": (lambda v: _grid_doc(hi=v), "$.states.grid_flow.grid.max", 0.5),
    "t_start": (lambda v: one_state_doc(segments=[{"t_start": v, "costs": []}]),
                "$.segments[0].t_start", 0.5),
    "lyapunov scalar": (lambda v: _lyapunov_doc("b1", v), "$.lyapunov.b1", 0.5),
    "lyapunov entry": (lambda v: _lyapunov_doc("V", v), "$.lyapunov.V[0]", 1.5),
}


def test_load_trivial_model_has_zero_kernel():
    m = model_from_dict(one_state_doc())
    assert m.n_states == 1
    assert m.q_star_max() == 0.0
    assert m.max_abs_cost() == 0.0
    assert m.terminal[0] == 0.0


def test_negative_off_diagonal_rate_rejected():
    doc = one_state_doc(
        states={"finite": ["a", "b"]},
        actions={"p1": [[0], [0]], "p2": [[0], [0]]},
        rates=[{"from": 0, "a": 0, "b": 0, "to": 1, "rate": -0.5}],
    )
    with pytest.raises(ModelValidationError, match="negative off-diagonal rate"):
        model_from_dict(doc)


def test_conservativity_forces_diagonal():
    doc = one_state_doc(
        states={"finite": ["a", "b"]},
        actions={"p1": [[0], [0]], "p2": [[0], [0]]},
        rates=[{"from": 0, "a": 0, "b": 0, "to": 1, "rate": 1.0}],
    )
    m = model_from_dict(doc)
    assert m.rates[0, 0, 0, 0, 0] == -1.0
    assert m.rates[0, 0, 0, 0, 1] == 1.0
    assert np.all(m.rates[0, 1] == 0.0)
    assert m.q_stars.tolist() == [1.0, 0.0]


def test_constructor_ignores_padding_and_diagonal():
    doc = one_state_doc(
        states={"finite": ["a", "b"]},
        actions={"p1": [[0, 1], [0]], "p2": [[0], [0, 1]]},
        rates=[{"from": 0, "a": 1, "b": 0, "to": 1, "rate": 2.0}],
        costs=[{"state": 1, "a": 0, "b": 1, "value": -3.0}],
    )
    m = model_from_dict(doc)
    assert m.widths == (2, 2)
    assert m.cells.tolist() == [[[True, False], [True, False]], [[True, True], [False, False]]]
    rates, costs = np.array(m.rates), np.array(m.costs)
    rates[:, ~m.cells] = 7.0  # padding
    costs[:, ~m.cells] = 7.0
    rates[0, 0, :, :, 0] = rates[0, 1, :, :, 1] = 5.0  # diagonal
    again = GameModel(m.states, m.actions_p1, m.actions_p2, m.time_breaks, rates, costs,
                      m.terminal, m.lam, m.horizon)
    for name in ("rates", "costs", "q_totals", "cells", "q_stars"):
        assert np.array_equal(getattr(again, name), getattr(m, name))
    assert again.rates[0, 0, 1, 0].tolist() == [-2.0, 2.0]


def test_constructor_rejects_misshapen_tables():
    m = model_from_dict(one_state_doc(states={"finite": ["a", "b"]}))
    with pytest.raises(ModelValidationError, match="expected shapes"):
        GameModel(m.states, m.actions_p1, m.actions_p2, m.time_breaks, m.rates[:, :1], m.costs,
                  m.terminal, m.lam, m.horizon)


def test_self_rate_entry_rejected():
    doc = one_state_doc(rates=[{"from": 0, "a": 0, "b": 0, "to": 0, "rate": 1.0}])
    with pytest.raises(ModelFormatError, match="implied by conservativity"):
        model_from_dict(doc)


def test_rate_rows_sum_to_zero_across_segments():
    doc = one_state_doc(
        states={"finite": ["a", "b"]},
        actions={"p1": [[0], [0]], "p2": [[0], [0]]},
        rates=[{"from": 0, "a": 0, "b": 0, "to": 1, "rate": 0.3}],
        segments=[
            {"t_start": 0.5, "rates": [{"from": 0, "a": 0, "b": 0, "to": 1, "rate": 0.9}]}
        ],
    )
    m = model_from_dict(doc)
    assert np.abs(m.rates.sum(axis=-1)).max() <= 1e-12
    segs = knot_segments(m, TimeGrid(100, m.horizon))
    assert segs[49] == 0 and segs[50] == 1
    assert m.q_totals[0, 0, 0, 0] == 0.3
    assert m.q_totals[1, 0, 0, 0] == 0.9


class TestFlow:
    def test_finite_identity(self):
        m = model_from_dict(
            one_state_doc(states={"finite": list("abcd")}, actions={"p1": [[0]], "p2": [[0]]})
        )
        assert m.states.flow_map(0.7).tolist() == [0, 1, 2, 3]

    def test_grid_shift_rounds_to_nearest(self):
        sp = GridFlowStates(
            modes=(Mode("m", 1.0),), grid_min=0.0, grid_max=1.0, cells=10, boundary="clamp"
        )
        # drift 1.0, cell width 0.1, dt = 0.2: two cells forward
        assert sp.flow_map(0.2)[5] == 7

    def test_zero_duration_fixes_state(self):
        sp = GridFlowStates(
            modes=(Mode("m", -2.0),), grid_min=0.0, grid_max=1.0, cells=8, boundary="reflect"
        )
        assert sp.flow_map(0.0).tolist() == list(range(8))

    def test_clamp_saturates(self):
        sp = GridFlowStates(
            modes=(Mode("m", 1.0),), grid_min=0.0, grid_max=1.0, cells=5, boundary="clamp"
        )
        assert sp.flow_map(10.0)[3] == 4
        sp2 = GridFlowStates(
            modes=(Mode("m", -1.0),), grid_min=0.0, grid_max=1.0, cells=5, boundary="clamp"
        )
        assert sp2.flow_map(10.0)[3] == 0

    def test_reflect_folds_back(self):
        sp = GridFlowStates(
            modes=(Mode("m", 1.0),), grid_min=0.0, grid_max=1.0, cells=5, boundary="reflect"
        )
        # width 0.2; from cell 3, dt 0.4 shifts +2 -> raw 5 -> reflect to 3
        assert sp.flow_map(0.4)[3] == 3
        # raw 6 reflects to 2
        assert sp.flow_map(0.6)[3] == 2

    @given(
        cell=st.integers(min_value=0, max_value=19),
        k1=st.integers(min_value=0, max_value=6),
        k2=st.integers(min_value=0, max_value=6),
    )
    def test_semigroup_on_exact_multiples(self, cell, k1, k2):
        # drift*dt an exact multiple of the width and no boundary hit
        sp = GridFlowStates(
            modes=(Mode("m", 2.0),), grid_min=0.0, grid_max=2.0, cells=20, boundary="clamp"
        )
        w = sp.cell_width
        s, t = k1 * w / 2.0, k2 * w / 2.0
        if cell + k1 + k2 <= 19:
            assert sp.flow_map(t)[sp.flow_map(s)[cell]] == sp.flow_map(s + t)[cell]

    @pytest.mark.parametrize("boundary", ["clamp", "reflect"])
    def test_shifted_cells_match_apply_boundary(self, boundary):
        sp = GridFlowStates(
            modes=(Mode("m", 1.0),), grid_min=0.0, grid_max=1.0, cells=5, boundary=boundary
        )
        for shift in range(-17, 18):
            expected = [perstate.apply_boundary(sp, cell + shift) for cell in range(5)]
            assert sp.fold_cells(np.arange(5) + shift).tolist() == expected

    def test_mode_cell_naming(self):
        sp = GridFlowStates(
            modes=(Mode("up", 1.0), Mode("dn", -1.0)),
            grid_min=0.0,
            grid_max=1.0,
            cells=4,
            boundary="clamp",
        )
        assert sp.n_states == 8
        assert sp.state_name(5) == "dn:1"

    @given(
        drift=st.one_of(
            st.floats(min_value=-50.0, max_value=50.0),
            st.integers(min_value=-40, max_value=40).map(lambda j: j / 2.0),
        ),
        dt=st.one_of(st.floats(min_value=0.0, max_value=5.0), st.sampled_from([0.25, 0.5, 1.0, 2.0])),
        cells=st.integers(min_value=2, max_value=12),
        width=st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=3.0)),
        boundary=st.sampled_from(["clamp", "reflect"]),
    )
    @settings(max_examples=300)
    def test_flow_map_matches_scalar_rule(self, drift, dt, cells, width, boundary):
        # width 1 with a half-integer drift and a dyadic dt puts the shift
        # exactly on a half cell, where the rule rounds up
        sp = GridFlowStates(
            modes=(Mode("m", drift), Mode("n", -0.5 * drift)),
            grid_min=-1.0,
            grid_max=-1.0 + cells * width,
            cells=cells,
            boundary=boundary,
        )
        expected = [perstate.flow(sp, x, dt) for x in range(sp.n_states)]
        assert sp.flow_map(dt).tolist() == expected


def _mixed(model, mu, nu):
    """The simulator's mixed cost and intensity of state 0 when the players
    mix as mu, nu there (first actions elsewhere)."""
    mus = np.zeros((1, model.n_states, model.widths[0]))
    nus = np.zeros((1, model.n_states, model.widths[1]))
    mus[..., 0] = nus[..., 0] = 1.0
    mus[0, 0, : len(mu)], nus[0, 0, : len(nu)] = mu, nu
    tables = _Tables(model, StrategyField(TimeGrid(1, model.horizon), mus, nus))
    return tables.cost[0, 0], tables.intensity[0, 0]


class TestMixedKernels:
    """The simulator mixes the dense cost and rate tables bilinearly."""

    @pytest.fixture()
    def model(self):
        doc = one_state_doc(
            states={"finite": ["a", "b"]},
            actions={"p1": [[0, 1], [0]], "p2": [[0, 1], [0]]},
            rates=[
                {"from": 0, "a": 0, "b": 0, "to": 1, "rate": 1.0},
                {"from": 0, "a": 1, "b": 1, "to": 1, "rate": 3.0},
            ],
            costs=[
                {"state": 0, "a": 0, "b": 0, "value": 1.0},
                {"state": 0, "a": 0, "b": 1, "value": -1.0},
                {"state": 0, "a": 1, "b": 0, "value": -1.0},
                {"state": 0, "a": 1, "b": 1, "value": 1.0},
            ],
        )
        return model_from_dict(doc)

    def test_dirac_mixture_recovers_row(self, model):
        assert _mixed(model, [1.0, 0.0], [1.0, 0.0])[1] == model.q_totals[0, 0, 0, 0] == 1.0
        assert _mixed(model, [1.0, 0.0], [0.0, 1.0])[0] == -1.0

    def test_half_half_averages_rows(self, model):
        intensity = _mixed(model, [0.5, 0.5], [0.5, 0.5])[1]
        assert intensity == pytest.approx(model.q_totals[0, 0].mean(), abs=1e-15)
        assert intensity == pytest.approx(1.0, abs=1e-15)

    def test_matching_pennies_mixture_is_zero(self, model):
        assert abs(_mixed(model, [0.5, 0.5], [0.5, 0.5])[0]) <= 1e-15

    def test_zero_kernel_gives_zero_row(self):
        m = model_from_dict(one_state_doc())
        assert _mixed(m, [1.0], [1.0]) == (0.0, 0.0)

    def test_constant_cost_any_mixture(self):
        doc = one_state_doc(
            actions={"p1": [[0, 1]], "p2": [[0, 1]]},
            costs=[
                {"state": 0, "a": a, "b": b, "value": 7.25}
                for a in (0, 1)
                for b in (0, 1)
            ],
        )
        m = model_from_dict(doc)
        assert _mixed(m, [0.3, 0.7], [0.9, 0.1])[0] == pytest.approx(7.25, abs=1e-14)

    @given(
        w1=st.floats(min_value=0.0, max_value=1.0),
        w2=st.floats(min_value=0.0, max_value=1.0),
        lam=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bilinearity(self, model, w1, w2, lam):
        # the model fixture is immutable, so sharing it across examples is fine
        mu_a = np.array([w1, 1.0 - w1])
        mu_b = np.array([w2, 1.0 - w2])
        nu = np.array([0.25, 0.75])
        mix = lam * mu_a + (1.0 - lam) * mu_b
        lhs = np.array(_mixed(model, mix, nu))
        rhs = lam * np.array(_mixed(model, mu_a, nu)) + (1.0 - lam) * np.array(_mixed(model, mu_b, nu))
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestValidation:
    def test_lambda_range(self):
        with pytest.raises(ModelValidationError, match="lambda"):
            model_from_dict(one_state_doc(**{"lambda": 0.0}))
        with pytest.raises(ModelValidationError, match="lambda"):
            model_from_dict(one_state_doc(**{"lambda": 1.5}))

    def test_horizon_positive(self):
        with pytest.raises(ModelValidationError, match="horizon"):
            model_from_dict(one_state_doc(horizon=0.0))

    def test_empty_action_list_rejected(self):
        with pytest.raises(ModelValidationError, match="nonempty"):
            model_from_dict(one_state_doc(actions={"p1": [[]], "p2": [[0]]}))

    def test_grid_bounds(self):
        doc = one_state_doc(
            states={
                "grid_flow": {
                    "modes": [{"name": "m", "drift": 1.0}],
                    "grid": {"min": 1.0, "max": 0.0, "cells": 4},
                    "boundary": "clamp",
                }
            }
        )
        with pytest.raises(ModelValidationError, match="min < max"):
            model_from_dict(doc)

    def test_lyapunov_needs_unit_floor(self):
        doc = one_state_doc(
            lyapunov={
                "V": [0.5],
                "V1": [1.0],
                "rho1": 1.0,
                "b1": 0.0,
                "M1": 1.0,
                "M2": 1.0,
                "kappa": 1.0,
                "rho2": 1.0,
                "M3": 1.0,
                "b2": 1.0,
            }
        )
        with pytest.raises(ModelValidationError, match="V\\(x\\) >= 1"):
            model_from_dict(doc)

    def test_rho1_strictly_positive(self):
        doc = one_state_doc(
            lyapunov={
                "V": [1.0],
                "V1": [1.0],
                "rho1": 0.0,
                "b1": 0.0,
                "M1": 1.0,
                "M2": 1.0,
                "kappa": 1.0,
                "rho2": 1.0,
                "M3": 1.0,
                "b2": 1.0,
            }
        )
        with pytest.raises(ModelValidationError, match="rho1 > 0"):
            model_from_dict(doc)


class TestParsing:
    def test_bad_json_is_format_error(self):
        with pytest.raises(ModelFormatError, match="not valid JSON"):
            load_model("{not json")

    def test_missing_key_names_path(self):
        with pytest.raises(ModelFormatError, match="missing required key 'horizon'"):
            load_model(json.dumps({"lambda": 1.0}))

    def test_rate_entry_path_in_error(self):
        doc = one_state_doc(rates=[{"from": 0, "a": 0, "b": 0, "to": 5, "rate": 1.0}])
        with pytest.raises(ModelFormatError, match=r"rates\(seg 0\)\[0\]"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field", ["from", "to", "a", "b"])
    @pytest.mark.parametrize("value", [None, "x", 1.5, True])
    def test_bad_rate_index_names_its_field(self, field, value):
        entry = {"from": 0, "a": 0, "b": 0, "to": 1, "rate": 1.0, field: value}
        doc = one_state_doc(states={"finite": ["a", "b"]}, rates=[entry])
        with pytest.raises(ModelFormatError, match=rf"rates\(seg 0\)\[0\]\.{field}: expected an integer"):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [None, "x"])
    def test_bad_cost_and_terminal_state_name_their_field(self, value):
        doc = one_state_doc(costs=[{"state": value, "a": 0, "b": 0, "value": 1.0}])
        with pytest.raises(ModelFormatError, match=r"costs\(seg 0\)\[0\]\.state: expected an integer"):
            model_from_dict(doc)
        doc = one_state_doc(terminal=[{"state": value, "value": 1.0}])
        with pytest.raises(ModelFormatError, match=r"terminal\[0\]\.state: expected an integer"):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [None, "x", float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", sorted(FLOAT_FIELDS))
    def test_bad_float_field_names_its_field(self, kind, value):
        build, path, good = FLOAT_FIELDS[kind]
        with pytest.raises(ModelFormatError, match=rf"^{re.escape(path)}: expected a (finite )?number"):
            model_from_dict(build(value))
        model_from_dict(build(good))

    @pytest.mark.parametrize("build, path", [
        (lambda: one_state_doc(rates=[5]), r"\$\.rates\(seg 0\)\[0\]: expected an object"),
        (lambda: one_state_doc(rates=5), r"\$\.rates\(seg 0\): expected a list"),
        (lambda: one_state_doc(terminal=[None]), r"\$\.terminal\[0\]: expected an object"),
        (lambda: one_state_doc(segments=[3]), r"\$\.segments\[0\]: expected an object"),
        (lambda: one_state_doc(segments=3), r"\$\.segments: expected a list"),
        (lambda: _grid_doc(modes=[None]), r"\$\.states\.grid_flow\.modes\[0\]: expected an object"),
        (lambda: _grid_doc(modes=1), r"\$\.states\.grid_flow\.modes: expected a list"),
    ])
    def test_non_object_entries_name_their_path(self, build, path):
        with pytest.raises(ModelFormatError, match=path):
            model_from_dict(build())

    def test_bad_action_label_names_its_field(self):
        doc = one_state_doc(actions={"p1": [[0, None]], "p2": [[0]]})
        with pytest.raises(ModelFormatError, match=r"actions\.p1\[0\]\[1\]: expected an integer"):
            model_from_dict(doc)
        doc = one_state_doc(actions={"p1": [None], "p2": [[0]]})
        with pytest.raises(ModelFormatError, match=r"actions\.p1\[0\]: expected a list"):
            model_from_dict(doc)

    def test_duplicate_rate_entry_rejected(self):
        doc = one_state_doc(
            states={"finite": ["a", "b"]},
            actions={"p1": [[0], [0]], "p2": [[0], [0]]},
            rates=[
                {"from": 0, "a": 0, "b": 0, "to": 1, "rate": 1.0},
                {"from": 0, "a": 0, "b": 0, "to": 1, "rate": 2.0},
            ],
        )
        with pytest.raises(ModelFormatError, match="duplicate"):
            model_from_dict(doc)

    def test_action_broadcast_shorthand(self):
        doc = one_state_doc(
            states={"finite": ["a", "b", "c"]},
            actions={"p1": [[0, 1]], "p2": [[0]]},
        )
        m = model_from_dict(doc)
        assert m.actions_p1 == ((0, 1), (0, 1), (0, 1))

    def test_load_model_round_trip(self):
        m = load_model(json.dumps(one_state_doc()))
        assert isinstance(m.states, FiniteStates)
        assert m.lam == 1.0
