"""Evaluations, best responses and singleton solves on reduced step tables
against the per-knot references of ``perknot.py``.

The sweeps contract fixed mixtures into the step coefficients, so they sum
in another order than the references, which mix each knot's whole cell
games: the values agree to rounding.  Where the contraction only selects
(one-hot mixtures) or does not happen (no axis wider than 1), they agree
bit for bit, provided the BLAS rounds each row of a matrix-vector product
the same wherever the row sits: the reduced tables put a game's row
elsewhere than the whole games do.  OpenBLAS 0.3.31 on x86-64 does so for
dots shorter than 8 and not for longer ones, so the one-hot check asks the
BLAS first (:func:`rows_round_alike`).
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perknot
from pdmg import shapley
from pdmg.shapley import SolverConfig, backward_solve
from support import admissible_steps, draw_model, model_kinds, model_shapes, random_strategies, sweeps


@cache
def rows_round_alike(S: int) -> bool:
    """Whether each row of psi @ J.T, for dots of length S, comes out the
    same bits in every matrix of 2 to 9*S rows and at every place in it
    (tried on random data)."""
    rng = np.random.default_rng(S)
    for _ in range(5):
        psi, J = rng.uniform(size=S), rng.uniform(size=(9 * S, S))
        whole = np.dot(psi, J.T)
        for m in range(2, 9 * S):
            for i in range(9 * S - m + 1):
                if not np.array_equal(np.dot(psi, J[i : i + m].T), whole[i : i + m]):
                    return False
    return True


class TestAgainstPerKnotReducers:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 150), finer=st.integers(1, 3), **model_shapes)
    def test_mixtures_agree_to_rounding(self, widths, n_segments, grid, seed, n, finer):
        model = draw_model(widths, n_segments, grid, seed)
        n = admissible_steps(model, n)
        strategies = random_strategies(model, n, seed, one_hot=False)
        for phi, ref in sweeps(model, strategies, n * finer):
            assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()
            if model.widths == (1, 1):
                assert np.array_equal(phi, ref)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 150), finer=st.integers(1, 3), **model_shapes)
    def test_one_hot_mixtures_agree_bit_for_bit(self, widths, n_segments, grid, seed, n, finer):
        model = draw_model(widths, n_segments, grid, seed)
        n = admissible_steps(model, n)
        strategies = random_strategies(model, n, seed, one_hot=True)
        for phi, ref in sweeps(model, strategies, n * finer):
            if rows_round_alike(model.n_states):
                assert np.array_equal(phi, ref)
            else:
                assert np.abs(phi - ref).max() <= 1e-12 * np.abs(ref).max()

    # 40 examples in tier-1, 400 under `pytest --hypothesis-profile=ci`
    @pytest.mark.property
    @settings(max_examples=max(40, settings.default.max_examples // 5), deadline=None)
    @given(n=st.integers(1, 300), n_cells=st.integers(1, 6), **model_kinds)
    def test_singleton_models_agree_bit_for_bit(self, n_segments, grid, seed, n, n_cells):
        model = draw_model([(1, 1)] * n_cells, n_segments, grid, seed)
        n = admissible_steps(model, n)
        field, pure = backward_solve(model, SolverConfig(n_steps=n))
        ref_field, ref_pure = perknot.backward_solve(model, SolverConfig(n_steps=n))
        assert np.array_equal(field.phi, ref_field.phi)
        assert np.array_equal(pure.mu, ref_pure.mu) and np.array_equal(pure.nu, ref_pure.nu)
        assert np.all(pure.mu == 1.0) and np.all(pure.nu == 1.0)
        for phi, ref in sweeps(model, pure, n):
            assert np.array_equal(phi, ref)


@pytest.mark.parametrize("name", ["controlled_two_state", "signed_cost", "matching_pennies"])
def test_chunk_boundaries_change_no_value(demo, name, monkeypatch):
    # one knot per chunk, so each knot's mixtures are contracted on their own
    model = demo(name)
    field, strategies = backward_solve(model, SolverConfig(n_steps=300))
    whole = list(sweeps(model, strategies, 600))
    monkeypatch.setattr(shapley, "_CHUNK_FLOATS", 1)
    for (phi, ref), (one, _) in zip(whole, sweeps(model, strategies, 600)):
        assert np.array_equal(phi, one)
        assert np.abs(phi - ref).max() <= 1e-12 * ref.max()


def test_contracted_tables_stay_within_the_chunk_bound(monkeypatch):
    # 16 states with 2x2 actions: one chunk of 200 knots would hold 200*16*2*16 coefficients
    model = draw_model([(2, 2)] * 8, 1, True, 5)
    sizes = []
    contract = shapley._contract

    def spy(table, mu, nu):
        out = contract(table, mu, nu)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(shapley, "_contract", spy)
    n = admissible_steps(model, 200)
    for phi, ref in sweeps(model, random_strategies(model, n, 5, one_hot=False), n):
        assert np.abs(phi - ref).max() <= 1e-12 * ref.max()
    assert max(sizes) <= shapley._CHUNK_FLOATS < n * 16 * 16  # so the bound splits the sweeps
    # no axis wider than 1: every sweep marches on the segment tables
    sizes.clear()
    singleton = draw_model([(1, 1)] * 8, 1, True, 5)
    field, pure = backward_solve(singleton, SolverConfig(n_steps=admissible_steps(singleton, 200)))
    list(sweeps(singleton, pure, field.grid.n_steps))
    assert sizes == []
