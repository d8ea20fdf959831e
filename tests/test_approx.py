import json
import math

import numpy as np
import pytest

from pdmg.approx import (
    ladder_run,
    shift_factor,
    shift_identity_check,
    truncate_clipped,
    truncate_general,
    truncate_nonneg,
)
from pdmg.model import ModelValidationError, model_from_dict
from pdmg.shapley import SolverConfig, backward_solve
from pdmg.verify import check_bounds


class TestTruncateNonneg:
    def test_inactive_truncation_is_identity(self, nonneg_ladder_model):
        m = nonneg_ladder_model
        out = truncate_nonneg(m, 16)
        assert np.array_equal(out.rates, m.rates)
        assert np.array_equal(out.costs, m.costs)
        assert np.array_equal(out.terminal, m.terminal)

    def test_states_above_level_are_stilled(self, nonneg_ladder_model):
        out = truncate_nonneg(nonneg_ladder_model, 1)  # S_1 = {lo} only
        assert np.all(out.rates[:, 1:] == 0.0)
        assert np.all(out.costs[:, 1:] == 0.0)
        assert np.all(out.q_totals[:, 1:] == 0.0)
        assert np.array_equal(out.rates[:, 0], nonneg_ladder_model.rates[:, 0])

    def test_cost_capped_at_level(self, nonneg_ladder_model):
        out = truncate_nonneg(nonneg_ladder_model, 3)  # S_3 = {lo, mid}
        # c(mid) = 2 < 3: unchanged; hi is outside S_3
        assert out.costs[0, 1, 0, 0] == 2.0
        out9 = truncate_nonneg(nonneg_ladder_model, 9)
        # c(hi) = 5 <= min(9, cap = ln(M2*9)/4 = 5.026): kept exactly
        assert out9.costs[0, 2, 0, 0] == 5.0
        out4 = truncate_nonneg(nonneg_ladder_model, 4.5)
        # level clips at n = 4.5 before the Lyapunov cap
        assert out4.costs[0, 1, 0, 0] == 2.0

    def test_requires_lyapunov(self, const_cost):
        with pytest.raises(ModelValidationError, match="lyapunov"):
            truncate_nonneg(const_cost, 5)

    def test_rejects_negative_costs(self, signed_cost):
        with pytest.raises(ModelValidationError, match="negative cost"):
            truncate_nonneg(signed_cost, 5)


class TestTruncateGeneral:
    def test_deep_negative_clips_and_shifts_to_zero(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "costs": [{"state": 0, "a": 0, "b": 0, "value": -7.0}],
        }
        clipped, shifted = truncate_general(model_from_dict(doc), 3)
        assert clipped.costs[0, 0, 0, 0] == -3.0
        assert shifted.costs[0, 0, 0, 0] == 0.0

    def test_mild_cost_only_shifts(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "costs": [{"state": 0, "a": 0, "b": 0, "value": 2.0}],
        }
        clipped, shifted = truncate_general(model_from_dict(doc), 3)
        assert clipped.costs[0, 0, 0, 0] == 2.0
        assert shifted.costs[0, 0, 0, 0] == 5.0

    def test_clipped_is_the_first_of_the_pair(self, signed_cost):
        for n in (0, 1, 2.5):
            clipped = truncate_clipped(signed_cost, n)
            first, _ = truncate_general(signed_cost, n)
            assert np.array_equal(clipped.costs, first.costs)
            assert np.array_equal(clipped.terminal, first.terminal)

    def test_terminal_clip(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "terminal": [{"state": 0, "value": -1.0}],
        }
        clipped, shifted = truncate_general(model_from_dict(doc), 5)
        assert clipped.terminal[0] == -1.0
        assert shifted.terminal[0] == 4.0
        assert np.all(shifted.terminal >= 0.0)


class TestShiftIdentity:
    def test_factor_arithmetic(self):
        # lambda = 1, T - s = 1, n = 3: exp(6)
        assert shift_factor(1.0, 1.0, 0.0, 3.0) == pytest.approx(math.exp(6.0), rel=1e-15)
        assert shift_factor(1.0, 1.0, 0.0, 3.0) == pytest.approx(403.4288, abs=1e-4)
        assert shift_factor(0.7, 2.0, 0.5, 0.0) == 1.0

    def test_identity_exact_on_shared_grid(self, signed_cost):
        err = shift_identity_check(signed_cost, 2, 0.0, SolverConfig(n_steps=400))
        assert err <= 1e-9

    def test_identity_at_interior_time(self, signed_cost):
        err = shift_identity_check(signed_cost, 1, 0.4, SolverConfig(n_steps=200))
        assert err <= 1e-9

    def test_level_zero_trivial(self, signed_cost):
        err = shift_identity_check(signed_cost, 0, 0.0, SolverConfig(n_steps=100))
        assert err <= 1e-12


class TestLadderRun:
    def test_bounded_model_levels_identical(self, nonneg_ladder_model):
        cfg = SolverConfig(n_steps=200)
        report = ladder_run(nonneg_ladder_model, [16, 17], [(0.0, 0)], cfg)
        assert report.direction == "nondecreasing"
        assert report.monotone_ok
        assert report.converged_gap == 0.0
        # both levels reproduce the direct solve bit-identically
        direct, _ = backward_solve(nonneg_ladder_model, cfg)
        lvl, _ = backward_solve(truncate_nonneg(nonneg_ladder_model, 16), cfg)
        assert np.array_equal(direct.phi, lvl.phi)

    def test_nonneg_ladder_monotone_up(self, nonneg_ladder_model):
        cfg = SolverConfig(n_steps=200)
        probes = [(0.0, 0), (0.0, 2), (0.5, 1)]
        report = ladder_run(nonneg_ladder_model, [1, 3, 6, 9, 16], probes, cfg)
        assert report.monotone_ok
        vals = np.array(report.phi_at_probe)
        assert np.all(np.diff(vals, axis=0) >= -1e-10)
        # strict growth while truncation is active, constant once it clears
        assert vals[1, 0] > vals[0, 0] + 1e-6
        assert np.array_equal(vals[-1], vals[-2])

    def test_general_ladder_monotone_down(self, signed_cost):
        cfg = SolverConfig(n_steps=200)
        report = ladder_run(signed_cost, [1, 2, 4, 8], [(0.0, 0), (0.0, 1)], cfg)
        assert report.direction == "nonincreasing"
        assert report.monotone_ok
        vals = np.array(report.phi_at_probe)
        assert np.all(np.diff(vals, axis=0) <= 1e-10)
        assert report.converged_gap <= 1e-12  # clip inactive from n = 4 on

    def test_ladder_levels_respect_sandwich(self, nonneg_ladder_model):
        cfg = SolverConfig(n_steps=100)
        for n in (1, 3, 9):
            level = truncate_nonneg(nonneg_ladder_model, n)
            field, _ = backward_solve(level, cfg)
            assert check_bounds(field, nonneg_ladder_model).passed

    def test_validates_inputs(self, nonneg_ladder_model):
        cfg = SolverConfig(n_steps=50)
        with pytest.raises(ValueError, match="strictly increasing"):
            ladder_run(nonneg_ladder_model, [2, 2], [(0.0, 0)], cfg)
        with pytest.raises(ValueError, match="probe"):
            ladder_run(nonneg_ladder_model, [1, 2], [(0.0, 99)], cfg)

    @pytest.mark.parametrize("n_list, probes, shift_n, message", [
        ([], [(0.0, 0)], None, "n_list must hold at least one level"),
        ([1, math.nan], [(0.0, 0)], None, "n_list: level nan is not finite"),
        ([-math.inf, 1], [(0.0, 0)], None, "n_list: level -inf is not finite"),
        ([1, 2], [], None, "probes must hold at least one"),
        ([1, 2], [(0.0, 0)], math.inf, "shift_n inf is not finite"),
    ])
    def test_rejects_inputs_naming_the_argument(self, signed_cost, n_list, probes, shift_n, message):
        with pytest.raises(ValueError, match=message):
            ladder_run(signed_cost, n_list, probes, SolverConfig(n_steps=50), shift_n)

    def test_levels_and_shift_pair_are_their_own_solves(self, signed_cost):
        cfg = SolverConfig(n_steps=100)
        report = ladder_run(signed_cost, [1, 2, 4], [(0.0, 0), (0.5, 1)], cfg, shift_n=2)
        for n, row in zip([1, 2, 4], report.phi_at_probe):
            field, _ = backward_solve(truncate_clipped(signed_cost, n), cfg)
            assert row == [field.phi[0, 0], field.phi[50, 1]]
        clipped, shifted = (backward_solve(m, cfg)[0] for m in truncate_general(signed_cost, 2))
        fac = shift_factor(signed_cost.lam, signed_cost.horizon, 0.0, 2)
        assert report.shift_rel_err == float(np.abs(shifted.phi[0] / (clipped.phi[0] * fac) - 1.0).max())
        assert report.shift_rel_err == shift_identity_check(signed_cost, 2, 0.0, cfg)
        # ladder.json holds no shift error
        assert "shift" not in report.to_json()
        assert ladder_run(signed_cost, [1, 2, 4], [(0.0, 0)], cfg).shift_rel_err is None

    def test_signed_levels_build_no_shifted_model(self, signed_cost, monkeypatch):
        import pdmg.approx as approx

        def refuse(model, n):
            raise AssertionError("a shifted model was built")

        monkeypatch.setattr(approx, "truncate_general", refuse)
        assert ladder_run(signed_cost, [1, 2], [(0.0, 0)], SolverConfig(n_steps=50)).monotone_ok

    def test_report_json_round_trips(self, nonneg_ladder_model):
        cfg = SolverConfig(n_steps=50)
        report = ladder_run(nonneg_ladder_model, [1, 9], [(0.0, 0)], cfg)
        doc = json.loads(report.to_json())
        assert doc["n_values"] == [1, 9]
        assert doc["monotone_ok"] is True
        assert len(doc["phi_at_probe"]) == 2
