import math

import numpy as np
import pytest
from scipy import stats

import pdmg.simulate as simulate
from pdmg import demos
from pdmg.model import model_from_dict
from pdmg.shapley import SolverConfig, SolverError, StrategyField, backward_solve
from pdmg.simulate import (
    SimConfig,
    _Flow,
    estimate_J,
    philox_raw,
    philox_uniforms,
    simulate_path,
)

from conftest import singleton_strategies


def flow_pieces(model, x, w0, w1):
    """(v0, v1, state) with the walker's flowed state constant on [v0, v1),
    for a path anchored at (w0, x) that does not jump before w1."""
    sp = model.states
    flow = _Flow(sp)
    mode, cell0 = divmod(x, sp.cells)
    raw, v, pieces = cell0, w0, []
    while True:
        c = float(flow.crossing(np.array([w0]), np.array([cell0]), np.array([raw]), np.array([mode]))[0])
        pieces.append((v, min(c, w1), mode * sp.cells + int(sp.fold_cells(np.array([raw]))[0])))
        if c >= w1:
            return pieces
        v, raw = c, raw + int(flow.step[mode])


def jump_free_grid_flow(cost_of_state, horizon=1.0):
    """The grid_flow demo without jumps and with the given per-state costs."""
    doc = demos.doc("grid_flow")
    doc["rates"] = []
    doc["horizon"] = horizon
    doc.pop("lyapunov", None)
    n = 2 * doc["states"]["grid_flow"]["grid"]["cells"]
    doc["costs"] = [{"state": x, "a": 0, "b": 0, "value": cost_of_state(x)} for x in range(n)]
    return model_from_dict(doc)


class TestDeterministicPaths:
    def test_no_jumps_exact_exponent(self, const_cost):
        strategies = singleton_strategies(const_cost, n_steps=1)
        tr = simulate_path(const_cost, strategies, 0.0, 0, 1, 0)
        assert tr.jumps == []
        assert tr.exponent == pytest.approx(0.5 * 2.0 * 1.0, abs=1e-14)

    def test_partial_horizon(self, const_cost):
        strategies = singleton_strategies(const_cost, n_steps=1)
        tr = simulate_path(const_cost, strategies, 0.25, 0, 1, 0)
        assert tr.exponent == pytest.approx(0.5 * 2.0 * 0.75, abs=1e-14)

    def test_estimate_zero_variance(self, const_cost):
        strategies = singleton_strategies(const_cost, n_steps=1)
        est = estimate_J(const_cost, strategies, 0.0, 0, SimConfig(n_paths=50, rng_seed=9))
        assert est.mean == pytest.approx(math.e, abs=1e-12)
        assert est.stderr == 0.0
        assert est.min_exponent == est.max_exponent == pytest.approx(1.0, abs=1e-14)

    def test_t0_validation(self, const_cost):
        strategies = singleton_strategies(const_cost, n_steps=1)
        with pytest.raises(ValueError):
            simulate_path(const_cost, strategies, 1.0, 0, 0, 0)


class TestJumpLaw:
    def test_jump_times_increasing_in_window(self, two_state):
        strategies = singleton_strategies(two_state, n_steps=4)
        est = estimate_J(two_state, strategies, 0.0, 0, SimConfig(n_paths=200, rng_seed=17), record=200)
        for tr in est.trajectories:
            times = [t for t, _ in tr.jumps]
            assert all(0.0 < t <= 1.0 for t in times)
            assert all(b > a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("factor", [1.25, 2.0])
    def test_first_jump_is_truncated_exponential(self, two_state, factor, monkeypatch):
        # thinning against a loose bound must not distort the law: the
        # accepted first-jump times follow Exp(1) conditioned on <= T
        monkeypatch.setattr(simulate, "_RATE_BOUND_FACTOR", factor)
        strategies = singleton_strategies(two_state, n_steps=1)
        config = SimConfig(n_paths=100_000, rng_seed=23)
        est = estimate_J(two_state, strategies, 0.0, 0, config, record=100_000)
        times = [tr.jumps[0][0] for tr in est.trajectories if tr.jumps]

        def cdf(t):
            return (1.0 - np.exp(-t)) / (1.0 - math.exp(-1.0))

        res = stats.kstest(times, cdf)
        assert res.pvalue > 0.01
        # acceptance fraction matches P(tau <= 1) = 1 - e^{-1}
        frac = len(times) / 100_000
        assert frac == pytest.approx(1.0 - math.exp(-1.0), abs=0.005)


class TestEstimates:
    def test_uncontrolled_mean_two(self, two_state):
        strategies = singleton_strategies(two_state, n_steps=1)
        est = estimate_J(two_state, strategies, 0.0, 0, SimConfig(n_paths=100_000, rng_seed=42))
        assert abs(est.mean - 2.0) <= 3.0 * est.stderr
        assert est.mean > 0.0 and est.stderr > 0.0

    def test_feynman_kac_on_controlled_saddle(self, controlled, controlled_saddle_1000):
        field, strategies = controlled_saddle_1000
        est = estimate_J(controlled, strategies, 0.0, 0, SimConfig(n_paths=20_000, rng_seed=101))
        fine, _ = backward_solve(controlled, SolverConfig(n_steps=2000))
        disc = 3.0 * abs(field.phi[0, 0] - fine.phi[0, 0]) + 1e-9
        assert abs(est.mean - field.phi[0, 0]) <= 3.0 * est.stderr + disc

    def test_determinism_bitwise(self, two_state):
        strategies = singleton_strategies(two_state, n_steps=1)
        cfg = SimConfig(n_paths=2000, rng_seed=7)
        a = estimate_J(two_state, strategies, 0.0, 0, cfg)
        b = estimate_J(two_state, strategies, 0.0, 0, cfg)
        assert a == b
        c = estimate_J(two_state, strategies, 0.0, 0, SimConfig(n_paths=2000, rng_seed=8))
        assert c.mean != a.mean

    def test_overflow_reported(self):
        doc = {
            "lambda": 1.0,
            "horizon": 1.0,
            "states": {"finite": ["a"]},
            "actions": {"p1": [[0]], "p2": [[0]]},
            "costs": [{"state": 0, "a": 0, "b": 0, "value": 2000.0}],
        }
        m = model_from_dict(doc)
        strategies = singleton_strategies(m, n_steps=1)
        with pytest.raises(SolverError, match="overflow"):
            estimate_J(m, strategies, 0.0, 0, SimConfig(n_paths=3, rng_seed=0))

    def test_bound_violation_guard(self, two_state, monkeypatch):
        # a "mixture" of weight 10 is no probability vector: it drives the
        # intensity to 10 times q*, past the bound 1.0*q*
        monkeypatch.setattr(simulate, "_RATE_BOUND_FACTOR", 1.0)
        ones = singleton_strategies(two_state, n_steps=1)
        strategies = StrategyField(ones.grid, 10.0 * ones.mu, ones.nu)
        config = SimConfig(n_paths=200, rng_seed=5)
        with pytest.raises(SolverError, match="thinning bound violated"):
            estimate_J(two_state, strategies, 0.0, 0, config)


class TestGridFlowWalk:
    def test_constant_pieces_cross_at_half_cells(self, grid_flow):
        # mode "up": drift 0.8, width 1/24, anchored at cell 5
        pieces = flow_pieces(grid_flow, 5, 0.0, 0.2)
        assert pieces[0][2] == 5
        # first crossing where 5 + 0.8*24*t = 5.5  ->  t = 0.5/19.2
        assert pieces[0][1] == pytest.approx(0.5 / 19.2, abs=1e-12)
        assert pieces[1][2] == 6
        assert sum(b - a for a, b, _ in pieces) == pytest.approx(0.2, abs=1e-12)
        # the walk stays in cell 5 exactly that long: cost 1 there, 0 elsewhere
        model = jump_free_grid_flow(lambda x: 1.0 if x == 5 else 0.0, horizon=0.2)
        tr = simulate_path(model, singleton_strategies(model), 0.0, 5, 0, 0)
        assert tr.exponent == pytest.approx(model.lam * 0.5 / 19.2, abs=1e-12)

    def test_pieces_partition_and_match_flow(self, grid_flow):
        model = jump_free_grid_flow(lambda x: 1.0 + 0.1 * x)
        for start in (0, 3, 20, 30, 47):
            pieces = flow_pieces(grid_flow, start, 0.0, 1.0)
            for a, b, state in pieces:
                mid = 0.5 * (a + b)
                assert grid_flow.states.flow_map(mid)[start] == state
            # the walk integrates the cost over exactly these pieces
            exact = sum((b - a) * (1.0 + 0.1 * state) for a, b, state in pieces)
            tr = simulate_path(model, singleton_strategies(model), 0.0, start, 0, 0)
            assert tr.jumps == []
            assert tr.exponent == pytest.approx(model.lam * exact, abs=1e-12)

    def test_grid_estimate_matches_solver(self, grid_flow):
        field, strategies = backward_solve(grid_flow, SolverConfig(n_steps=500))
        fine, _ = backward_solve(grid_flow, SolverConfig(n_steps=1000))
        x0 = 12
        est = estimate_J(grid_flow, strategies, 0.0, x0, SimConfig(n_paths=3000, rng_seed=202))
        disc = 3.0 * abs(field.phi[0, x0] - fine.phi[0, x0]) + 1e-9
        assert abs(est.mean - field.phi[0, x0]) <= 3.0 * est.stderr + disc

    def test_trajectory_dump_alignment(self, grid_flow):
        strategies = singleton_strategies(grid_flow, n_steps=1)
        for i in range(50):
            tr = simulate_path(grid_flow, strategies, 0.0, 5, 31, i)
            assert len(tr.jumps) == len(tr.jump_exponents)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0, rng_seed=1)


SEEDS = (0, 707, 2**64 - 1)
PATHS = (0, 1, 2**40)


class TestPhilox:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("path", PATHS)
    def test_stream_matches_numpy(self, seed, path):
        ref = np.random.Philox(key=np.array([seed, path], dtype=np.uint64)).random_raw(16)
        got = philox_raw(seed, path, np.arange(1, 5))
        assert got.shape == (4, 4)
        assert np.array_equal(got.ravel(), ref)

    def test_stream_of_many_paths_at_once(self):
        paths = np.array(PATHS, dtype=np.uint64)
        got = philox_raw(707, paths[:, None], np.arange(1, 4))  # (paths, blocks, words)
        for path, row in zip(PATHS, got):
            ref = np.random.Philox(key=np.array([707, path], dtype=np.uint64)).random_raw(12)
            assert np.array_equal(row.ravel(), ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_match_generator(self, seed):
        for path in PATHS:
            gen = np.random.Generator(np.random.Philox(key=np.array([seed, path], dtype=np.uint64)))
            got = philox_uniforms(philox_raw(seed, path, np.arange(1, 4))).ravel()
            assert np.array_equal(got, gen.random(12))


class TestOneWalk:
    @pytest.fixture(scope="class")
    def saddles(self, controlled):
        grid = demos.build("grid_flow")
        return [(controlled, backward_solve(controlled, SolverConfig(n_steps=50))[1], 0),
                (grid, backward_solve(grid, SolverConfig(n_steps=50))[1], 5)]

    def exponents(self, model, strategies, x0, n, seed=3):
        est = estimate_J(model, strategies, 0.0, x0, SimConfig(n_paths=n, rng_seed=seed), record=n)
        return [tr.exponent for tr in est.trajectories]

    def test_paths_do_not_depend_on_batch(self, saddles, monkeypatch):
        for model, strategies, x0 in saddles:
            k = 12
            alone = self.exponents(model, strategies, x0, k)
            monkeypatch.setattr(simulate, "_BATCH", 5)  # batch boundaries at 5, 10, 15
            assert self.exponents(model, strategies, x0, k) == alone
            assert self.exponents(model, strategies, x0, 40)[:k] == alone
            monkeypatch.undo()

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_paths_do_not_depend_on_crossing_chunks(self, saddles, monkeypatch, chunk):
        # 300 paths: summing a chunk's pieces in any other order than one
        # after another changes the last bit of some 20 of them
        model, strategies, x0 = saddles[1]
        whole = self.exponents(model, strategies, x0, 300)
        monkeypatch.setattr(simulate, "_CROSSINGS", chunk)
        assert self.exponents(model, strategies, x0, 300) == whole

    def test_walk_reads_the_numpy_stream(self, two_state):
        # block 1 of key (seed, i): word 0 sets the first candidate gap
        # -log1p(-u)/q_bar and word 1 its acceptance (rate 1 under q_bar 1.25)
        strategies = singleton_strategies(two_state)
        est = estimate_J(two_state, strategies, 0.0, 0, SimConfig(n_paths=40, rng_seed=707), record=40)
        checked = 0
        for i, tr in enumerate(est.trajectories):
            u = np.random.Generator(np.random.Philox(key=np.array([707, i], dtype=np.uint64))).random(4)
            gap = -math.log1p(-u[0]) / 1.25
            if gap < 1.0 and u[1] < 1.0 / 1.25:
                # a wrong stream would put the jump anywhere; libm's log1p may differ by an ulp
                assert len(tr.jumps) == 1 and tr.jumps[0][1] == 1
                assert tr.jumps[0][0] == pytest.approx(gap, rel=1e-14)
                checked += 1
        assert checked > 10

    def test_estimate_averages_the_recorded_walks(self, saddles):
        for model, strategies, x0 in saddles:
            est = estimate_J(model, strategies, 0.0, x0, SimConfig(n_paths=50, rng_seed=9), record=50)
            samples = np.exp([tr.exponent for tr in est.trajectories])
            assert est.mean == float(samples.mean())
            assert est.jumps == sum(len(tr.jumps) for tr in est.trajectories)
            for i in (0, 17, 49):
                assert simulate_path(model, strategies, 0.0, x0, 9, i) == est.trajectories[i]

    def test_counts(self, const_cost, two_state, saddles):
        est = estimate_J(const_cost, singleton_strategies(const_cost), 0.0, 0, SimConfig(20, 1))
        assert (est.candidates, est.jumps, est.rejections) == (0, 0, 0)
        # two_state leaves state 0 at rate 1 for the absorbing state 1: one
        # jump on {tau <= 1}, and the candidates before it run at rate 1.25
        est = estimate_J(two_state, singleton_strategies(two_state), 0.0, 0, SimConfig(4000, 2))
        assert est.jumps == pytest.approx(4000 * (1.0 - math.exp(-1.0)), rel=0.05)
        assert est.candidates == pytest.approx(1.25 * est.jumps, rel=0.05)
        for model, strategies, x0 in saddles:
            est = estimate_J(model, strategies, 0.0, x0, SimConfig(300, 4))
            assert est.candidates == est.jumps + est.rejections > 0
