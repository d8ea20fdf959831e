"""The backward sweep's entry buffers against references, bit for bit.

A knot of ``shapley._sweep`` writes its entries into slice k of phi (where
no player has a choice), into its slot of the chunk a certificate reads, or
into one scratch buffer, and their two terms into two more buffers.  Each
case here would read a buffer after it was reused: a certificate rejected
inside a chunk (against one knot a chunk), a batch of grid-flow members
without choices (against each member's own solve), one state (against
``perknot.py``, ``three_sweeps.py``, one knot a chunk and own solves) and
exploitability's one sweep with a player who has one action (against
``three_sweeps.py``)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import perknot
from pdmg import shapley
from pdmg.matrix_game import COUNTS, reset_counts
from pdmg.model import model_from_dict
from pdmg.shapley import SolverConfig, backward_solve
from support import (
    BUDGET,
    admissible_steps,
    assert_batch_is_own_solves,
    assert_sweep_is_three_sweeps,
    draw_model,
    finite_members,
    grid_doc,
    pick_steps,
    random_doc,
    random_finite_doc,
    random_strategies,
    sweeps,
)

pytestmark = pytest.mark.property


def solve_counted(model, n):
    reset_counts()
    field, strategies = backward_solve(model, SolverConfig(n_steps=n))
    return field, strategies, dict(COUNTS)


def assert_chunks_change_nothing(model, n):
    """The solve on the default chunks against one knot a chunk (where the
    one slot of a chunk is all a certificate reads); returns the rejections
    (chunk length, rejected knot's offset in it) of the default chunks."""
    rejections = []
    certify = shapley._CarriedSaddles.certify

    def spy(self, k_lo, chunk, phi):
        resume = certify(self, k_lo, chunk, phi)
        if resume is not None:
            rejections.append((len(chunk), resume - k_lo))
        return resume

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shapley._CarriedSaddles, "certify", spy)
        field, strategies, counts = solve_counted(model, n)
        mp.setattr(shapley, "_CHUNK_FLOATS", 1)
        one, one_strategies, one_counts = solve_counted(model, n)
    assert np.array_equal(field.phi, one.phi)
    assert np.array_equal(strategies.mu, one_strategies.mu) and np.array_equal(strategies.nu, one_strategies.nu)
    # only the games thrown away depend on the chunks
    assert {**counts, "discarded": 0} == {**one_counts, "discarded": 0}
    return rejections


def aligned(docs):
    """Models of ``docs`` on the first one's states, horizon and time breaks."""
    for doc in docs[1:]:
        doc["states"], doc["horizon"] = docs[0]["states"], docs[0]["horizon"]
        for seg, first in zip(doc["segments"], docs[0]["segments"]):
            seg["t_start"] = first["t_start"]
    return [model_from_dict(doc) for doc in docs]


class TestRejectedCertificates:
    def test_rejection_inside_a_chunk(self):
        # the grid cells' supports switch at different knots, each a failed
        # certificate with knots below it in its chunk
        rejections = assert_chunks_change_nothing(model_from_dict(grid_doc()), 200)
        assert any(0 < at < length - 1 for length, at in rejections)

    @BUDGET
    @given(cells=st.integers(2, 8), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_random_grid_flows(self, cells, n, seed):
        model = model_from_dict(grid_doc(cells, seed))
        assert_chunks_change_nothing(model, admissible_steps(model, n))

    @BUDGET
    @given(
        widths=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
        n_segments=st.integers(1, 3),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_finite_models(self, widths, n_segments, n, seed):
        model = model_from_dict(random_finite_doc(seed, widths, n_segments))
        assert_chunks_change_nothing(model, admissible_steps(model, n))


class TestGridFlowBatches:
    # batches of grid-flow games: test_batch.py's TestBatchIdentity.test_grid_flow_members
    @BUDGET
    @given(
        cells=st.integers(2, 6),
        n_segments=st.integers(1, 2),
        members=st.integers(2, 4),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 5),
    )
    def test_singletons(self, cells, n_segments, members, n, seed):
        # no player has a choice: each knot's entries are written into phi
        widths = [(1, 1)] * (2 * cells)  # two modes
        models = aligned([random_doc(s, widths, n_segments, True) for s in range(seed, seed + members)])
        assert_batch_is_own_solves(models, pick_steps(models, n))


class TestOneState:
    @BUDGET
    @given(
        a=st.integers(1, 3),
        b=st.integers(1, 3),
        n_segments=st.integers(1, 3),
        n=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 5),
    )
    def test_sweeps(self, a, b, n_segments, n, seed):
        model = model_from_dict(random_finite_doc(seed, [(a, b)], n_segments))
        n = admissible_steps(model, n)
        field, strategies = backward_solve(model, SolverConfig(n_steps=n))
        if (a, b) == (1, 1):
            ref, ref_strategies = perknot.backward_solve(model, SolverConfig(n_steps=n))
            assert np.array_equal(field.phi, ref.phi) and np.array_equal(strategies.mu, ref_strategies.mu)
        # one-hot mixtures: the contracted tables hold the reference's own coefficients
        for phi, ref in sweeps(model, random_strategies(model, n, seed, one_hot=True), n):
            assert np.array_equal(phi, ref)
        assert_sweep_is_three_sweeps(model, random_strategies(model, n, seed, one_hot=False), 2)
        assert_chunks_change_nothing(model, n)
        members = finite_members(range(seed, seed + 3), [(a, b)], n_segments)
        assert_batch_is_own_solves(members, pick_steps(members, n))


class TestOneActionSide:
    @BUDGET
    @given(
        first=st.integers(2, 3),
        rest=st.lists(st.integers(1, 3), max_size=3),
        side=st.sampled_from([0, 1]),
        n_segments=st.integers(1, 2),
        grid=st.booleans(),
        n=st.integers(1, 40),
        refine=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exploitability_sweep(self, first, rest, side, n_segments, grid, n, refine, seed):
        # one player has one action at every state, the other two or three somewhere
        widths = [(w, 1) if side == 0 else (1, w) for w in [first] + rest]
        model = draw_model(widths, n_segments, grid, seed)
        n = admissible_steps(model, n)
        assert_sweep_is_three_sweeps(model, random_strategies(model, n, seed, one_hot=False), refine)
