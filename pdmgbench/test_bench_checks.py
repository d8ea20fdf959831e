"""The benchmark's checkers accept exact answers and reject perturbed ones.

These tests use no pdmg code: the references are checked against closed
forms and brute force, and each checker is shown a correct output and a
perturbed copy (phi scaled by 1 + 1e-3, a mixture off the simplex, a Monte
Carlo mean moved by 5 standard errors, ...), at the step counts the
workloads run.
"""

import json
import os

import numpy as np
import pytest

import refs
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def demo(name):
    return workloads.demo_doc(ROOT, name)


def solution_text(times, phi, lam, mu, nu):
    """A solution CSV in pdmg's layout (t, state, phi, risk_value, mu.., nu..)."""
    lines = ["t,state,phi,risk_value," + ",".join(f"mu_{i}" for i in range(len(mu))) + ","
             + ",".join(f"nu_{i}" for i in range(len(nu)))]
    for k, t in enumerate(times):
        for x in range(phi.shape[1]):
            row = [f"{t:.12g}", str(x), f"{phi[k, x]:.12g}", f"{np.log(phi[k, x]) / lam:.12g}"]
            lines.append(",".join(row + [f"{v:.12g}" for v in mu] + [f"{v:.12g}" for v in nu]))
    return "\n".join(lines) + "\n"


class TestGameValue:
    def test_mixed_closed_form(self):
        assert refs.game_value(np.array([[3.0, 1.0], [0.0, 2.0]])) == pytest.approx(1.5, abs=1e-15)

    def test_pure_saddle(self):
        assert refs.game_value(np.array([[4.0, 2.0], [1.0, 0.0]])) == 2.0

    def test_singletons(self):
        assert refs.game_value(np.array([[3.0, -1.0, 2.0]])) == -1.0
        assert refs.game_value(np.array([[3.0], [5.0]])) == 5.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        p = np.linspace(0.0, 1.0, 20001)
        for _ in range(50):
            A = rng.uniform(-3.0, 3.0, (2, 2))
            row = np.stack([p, 1.0 - p], 1) @ A  # payoff of each column per row mixture
            brute = row.min(axis=1).max()  # maximin over a grid of row mixtures: <= value
            assert brute - 1e-12 <= refs.game_value(A) <= brute + 12.0 / len(p)


class TestShapleyODE:
    def test_two_state_closed_form(self):
        t, phi = refs.shapley_ode(demo("two_state"), 1000)
        assert np.abs(phi - refs.two_state_phi(t)).max() <= 1e-9

    def test_const_cost_closed_form(self):
        t, phi = refs.shapley_ode(demo("const_cost"), 1000)
        assert np.abs(phi - refs.const_cost_phi(t)).max() <= 1e-9

    def test_matching_pennies_is_flat(self):
        _, phi = refs.shapley_ode(demo("matching_pennies"), 200)
        assert np.abs(phi - 1.0).max() <= 1e-12

    def test_rk4_is_converged(self):
        doc = demo("controlled_two_state")
        coarse = refs.shapley_ode(doc, 500)
        fine = refs.shapley_ode(doc, 2000)
        assert np.abs(refs.at_times(fine, coarse[0]) - coarse[1]).max() <= 1e-8



def first_order(want, times, n, c=0.05):
    """An N-step first-order answer, exact at T: want*(1 + c*(Delta + Delta^2)*(T - t))."""
    delta = times[-1] / n
    return want * (1.0 + c * (delta + delta**2) * (times[-1] - times)[:, None])


class TestRichardson:
    """The Richardson check accepts a first-order scheme and rejects phi
    scaled by 1 + 1e-3 off the terminal slice, at the workloads' own N."""

    @pytest.mark.parametrize("model,n", [("controlled_two_state", 200), ("signed_cost", 200),
                                         ("nonneg_ladder", 2000), ("controlled_two_state", 40)])
    def test_against_ode(self, model, n):
        ref = refs.shapley_ode(demo(model), 2000)
        t_n, t_2n = np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0, 2 * n + 1)
        want = refs.at_times(ref, t_n)
        phi_n = first_order(want, t_n, n)
        phi_2n = first_order(refs.at_times(ref, t_2n), t_2n, 2 * n)[::2]
        assert refs.check_richardson(phi_n, phi_2n, want, "phi") == []
        bent = phi_n.copy()
        bent[:-1] *= 1.0 + 1e-3
        assert refs.check_richardson(bent, phi_2n, want, "phi")
        bent = phi_n.copy()
        bent[:-1] *= 1.0 - 1e-3
        assert refs.check_richardson(bent, phi_2n, want, "phi")

    def test_exact_scheme(self):
        t = np.linspace(0.0, 1.0, 2001)
        want = refs.two_state_phi(t)
        assert refs.check_richardson(want * (1 + 1e-13), want, want, "phi") == []
        bent = want.copy()
        bent[:-1] *= 1.0 + 1e-3
        assert refs.check_richardson(bent, want, want, "phi")

    def test_zeroth_order_error_is_rejected(self):
        t = np.linspace(0.0, 1.0, 201)
        want = refs.two_state_phi(t)
        assert refs.check_richardson(want + 1e-3, want + 1e-3, want, "phi")


class TestArtifactCheckers:
    def test_solution_shape(self):
        times = np.linspace(0.0, 1.0, 5)
        phi = refs.two_state_phi(times)
        good = refs.read_solution_csv(solution_text(times, phi, 1.0, [1.0], [1.0]))
        assert refs.check_solution_shape(good, 1.0, np.zeros(2)) == []
        bad_mix = refs.read_solution_csv(solution_text(times, phi, 1.0, [1.5, -0.5], [1.0]))
        assert refs.check_solution_shape(bad_mix, 1.0, np.zeros(2))
        not_one = refs.read_solution_csv(solution_text(times, phi, 1.0, [0.6, 0.6], [1.0]))
        assert refs.check_solution_shape(not_one, 1.0, np.zeros(2))
        assert refs.check_solution_shape(good, 1.0, np.array([0.1, 0.0]))  # wrong terminal
        good["risk"] = good["risk"] + 1e-6
        assert refs.check_solution_shape(good, 1.0, np.zeros(2))

    def test_replay_is_tight(self):
        phi = np.array([2.0, 1.0, 1.5])
        assert refs.check_rel(phi * (1 + 1e-13), phi, refs.CSV_REL, "replay") == []
        assert refs.check_rel(phi * (1 + 1e-3), phi, refs.CSV_REL, "replay")

    def test_sandwich(self):
        mid = np.array([1.2, 1.3])
        assert refs.check_sandwich(mid - 0.01, mid, mid + 0.01, "br") == []
        assert refs.check_sandwich(mid * (1 + 1e-3), mid, mid + 0.01, "br")
        assert refs.check_sandwich(mid - 0.01, mid, mid * (1 - 1e-3), "br")

    def test_monte_carlo(self):
        assert refs.check_mc(1.0 + 3.0 * 0.01, 0.01, 1.0, 0.0) == []
        assert refs.check_mc(1.0 + 5.0 * 0.01, 0.01, 1.0, 0.0)
        assert refs.check_mc(1.0 - 5.0 * 0.01, 0.01, 1.0, 0.0)
        assert refs.check_mc(float("nan"), 0.01, 1.0, 0.0)

    def test_ladder_monotone(self):
        assert refs.check_monotone([[1.0], [1.2], [1.2]], "nondecreasing") == []
        assert refs.check_monotone([[1.0], [1.2], [1.1]], "nondecreasing")
        assert refs.check_monotone([[3.0], [2.0]], "nonincreasing") == []
        assert refs.check_monotone([[2.0], [3.0]], "nonincreasing")

    def test_trajectories(self):
        head = "path_id,jump_index,time,state,exponent_so_far\n"
        good = head + "0,0,0.2,1,0.2\n0,1,0.5,0,0.2\n1,0,0.9,1,0.9\n"
        assert refs.check_trajectories(good, 1.0, 2, 0, True) == []
        assert refs.check_trajectories(head + "0,0,0.5,1,0.5\n0,1,0.4,0,0.5\n", 1.0, 2, 0, True)
        assert refs.check_trajectories(head + "0,0,0.5,0,0.5\n", 1.0, 2, 0, True)
        assert refs.check_trajectories(head + "0,0,1.5,1,0.5\n", 1.0, 2, 0, True)


class TestInputs:
    def test_shifted_doc_raises_every_cost(self):
        base = demo("controlled_two_state")
        shifted = workloads.shifted_doc(base, 20.0)
        _, _, g, costs, rates = refs.finite_tables(shifted)
        _, _, g0, costs0, rates0 = refs.finite_tables(base)
        assert all(np.array_equal(c, c0 + 20.0) for c, c0 in zip(costs, costs0))
        assert np.array_equal(g, g0 + 20.0)
        assert all(np.array_equal(r, r0) for r, r0 in zip(rates, rates0))

    def test_generated_grid_is_seeded(self):
        a = json.dumps(workloads.controlled_grid_doc(3))
        assert a == json.dumps(workloads.controlled_grid_doc(3))
        assert a != json.dumps(workloads.controlled_grid_doc(4))


class TestWorkloadCheckers:
    """The checkers a workload runs read the right artifacts and reject
    perturbed ones (artifacts are written by hand, no pdmg involved)."""

    @pytest.fixture()
    def ctx(self, tmp_path):
        ctx = workloads.Context(str(tmp_path), None)  # no pdmg: the CSV round trip is skipped
        docs = {m: demo(m) for m in ("two_state", "controlled_two_state", "matching_pennies", "nonneg_ladder")}
        docs["controlled_grid"] = workloads.controlled_grid_doc(3)
        ctx.w = workloads.Workload(docs, [])
        return ctx

    def write(self, ctx, path, text):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
        ctx._cache.clear()

    def op(self, ctx, op, name, text, kind="solve", paths=0):
        self.write(ctx, os.path.join(ctx.out(op), name), text)
        return workloads.Result(workloads.Op(op, kind, [], paths=paths), 0, ctx.out(op))

    def solved(self, ctx, model, scheme, n, phi_of_t, lam, mix=(1.0,)):
        """A reference solve at n steps with phi = phi_of_t(knot times)."""
        t = np.linspace(0.0, 1.0, n + 1)
        self.write(ctx, ctx.solution(model, scheme, n), solution_text(t, phi_of_t(t), lam, mix, mix))

    @pytest.mark.parametrize("model,n,lam,mix", [("controlled_two_state", 200, 0.5, [0.5, 0.5]),
                                                 ("nonneg_ladder", 2000, 0.5, [1.0]),
                                                 ("two_state", 2000, 1.0, [1.0])])
    def test_solution_at_workload_n(self, ctx, model, n, lam, mix):
        ode = refs.shapley_ode(ctx.w.docs[model], 2000)
        truth = (lambda t: refs.two_state_phi(t)) if model == "two_state" else (lambda t: refs.at_times(ode, t))
        self.solved(ctx, model, "backward", 2 * n, lambda t: first_order(truth(t), t, 2 * n), lam, mix)
        t = np.linspace(0.0, 1.0, n + 1)
        phi = first_order(truth(t), t, n)
        check = workloads.chk_solution(model, n)
        res = self.op(ctx, "s", "solution.csv", solution_text(t, phi, lam, mix, mix))
        assert check(ctx, res) == []
        bent = phi.copy()
        bent[:-1] *= 1 + 1e-3  # terminal slice kept exact
        res = self.op(ctx, "s", "solution.csv", solution_text(t, bent, lam, mix, mix))
        assert check(ctx, res)

    def test_picard_on_grid_against_backward(self, ctx):
        """A grid flow's truth is the extrapolated backward solve."""
        m, n, S = "controlled_grid", 50, 16
        shape = np.linspace(1.0, 1.3, S)

        def limit(t):
            return np.exp(0.2 * np.outer(1.0 - t, shape))

        for k in (50, 100):
            self.solved(ctx, m, "backward", k, lambda t, k=k: first_order(limit(t), t, k, 0.08), 0.5, [0.5, 0.5])
        self.solved(ctx, m, "picard", 100, lambda t: first_order(limit(t), t, 100, -0.05), 0.5, [0.5, 0.5])
        t = np.linspace(0.0, 1.0, n + 1)
        phi = first_order(limit(t), t, n, -0.05)
        check = workloads.chk_solution(m, n, "picard")
        res = self.op(ctx, "p", "solution.csv", solution_text(t, phi, 0.5, [0.5, 0.5], [0.5, 0.5]))
        assert check(ctx, res) == []
        phi[:-1] *= 1 + 1e-3
        res = self.op(ctx, "p", "solution.csv", solution_text(t, phi, 0.5, [0.5, 0.5], [0.5, 0.5]))
        assert check(ctx, res)

    def test_pennies_mixtures(self, ctx):
        t = np.linspace(0.0, 1.0, 11)
        one = np.ones((11, 1))
        check = workloads.chk_solution("matching_pennies", 10, truth=False)
        res = self.op(ctx, "s", "solution.csv", solution_text(t, one, 1.0, [0.5, 0.5], [0.5, 0.5]))
        assert check(ctx, res) == []
        res = self.op(ctx, "s", "solution.csv", solution_text(t, one, 1.0, [0.6, 0.4], [0.5, 0.5]))
        assert check(ctx, res)

    def test_oracle(self, ctx):
        m, n = "controlled_two_state", 20
        ode = refs.shapley_ode(ctx.w.docs[m], 2000)
        for scheme, k, c in (("backward", 40, 0.05), ("backward", 80, 0.05), ("picard", 80, -0.03)):
            self.solved(ctx, m, scheme, k, lambda t, k=k, c=c: first_order(refs.at_times(ode, t), t, k, c), 0.5,
                        [0.5, 0.5])
        want = ode[1][0]

        def report(coarse_c=0.05, scale=1.0, key=None):
            vals = {"coarse": (20, coarse_c), "fine_backward": (40, 0.05), "fine_picard": (40, -0.03)}
            rows = []
            for x in (0, 1):
                row = {"t": 0.0, "state": x}
                for name, (k, c) in vals.items():
                    row[name] = float(first_order(want[None, :], np.array([0.0, 1.0]), k, c)[0, x])
                    row[name] *= scale if key in (None, name) else 1.0
                rows.append(row)
            dev_b = max(abs(r["coarse"] - r["fine_backward"]) for r in rows)
            dev_p = max(abs(r["coarse"] - r["fine_picard"]) for r in rows)
            return json.dumps({"probe_values": rows, "max_dev_backward": dev_b, "max_dev_picard": dev_p})

        check = workloads.chk_oracle(m, n, 2)
        assert check(ctx, self.op(ctx, "o", "oracle.json", report())) == []
        rounded = json.loads(report())  # the report rounds every figure to 12 digits
        for row in rounded["probe_values"]:
            row["fine_picard"] = float(f"{row['fine_picard']:.12g}") + 4e-12
        rounded["max_dev_picard"] = float(f"{rounded['max_dev_picard']:.12g}") - 4e-12
        assert check(ctx, self.op(ctx, "o", "oracle.json", json.dumps(rounded))) == []
        rounded["max_dev_picard"] *= 0.9
        assert check(ctx, self.op(ctx, "o", "oracle.json", json.dumps(rounded)))
        for key in ("coarse", "fine_backward", "fine_picard", None):
            assert check(ctx, self.op(ctx, "o", "oracle.json", report(scale=1 + 1e-3, key=key))), key

    def test_replay(self, ctx):
        t = np.linspace(0.0, 1.0, 5)
        phi = refs.two_state_phi(t)
        self.op(ctx, "s", "solution.csv", solution_text(t, phi, 1.0, [1.0], [1.0]))
        check = workloads.chk_replay("two_state", os.path.join(ctx.out("s"), "solution.csv"))
        res = self.op(ctx, "e", "evaluation.csv", solution_text(t, phi, 1.0, [1.0], [1.0]))
        assert check(ctx, res) == []
        res = self.op(ctx, "e", "evaluation.csv", solution_text(t, phi * (1 + 1e-3), 1.0, [1.0], [1.0]))
        assert check(ctx, res)

    def test_best_responses(self, ctx):
        t = np.linspace(0.0, 1.0, 5)
        phi = refs.two_state_phi(t)
        csv = os.path.join(ctx.out("s"), "solution.csv")
        self.op(ctx, "s", "solution.csv", solution_text(t, phi, 1.0, [1.0], [1.0]))
        check = workloads.chk_best_response("two_state", csv, "hi")
        self.op(ctx, "hi", "best_response.csv", solution_text(t, phi * 1.01, 1.0, [1.0], [1.0]))
        res = self.op(ctx, "lo", "best_response.csv", solution_text(t, phi * 0.99, 1.0, [1.0], [1.0]))
        assert check(ctx, res) == []
        res = self.op(ctx, "lo", "best_response.csv", solution_text(t, phi * (1 + 1e-3), 1.0, [1.0], [1.0]))
        assert check(ctx, res)

    def test_verify_report(self, ctx):
        check = workloads.chk_verify("two_state")
        ok = {"passed": True, "exploitability": {"gap": 1e-4, "tolerance": 2e-3}}
        assert check(ctx, self.op(ctx, "v", "report.json", json.dumps(ok))) == []
        bad = {"passed": True, "exploitability": {"gap": 3e-3, "tolerance": 2e-3}}
        assert check(ctx, self.op(ctx, "v", "report.json", json.dumps(bad)))

    def test_monte_carlo_estimate(self, ctx):
        for n in (10, 20):
            self.solved(ctx, "two_state", "backward", n, refs.two_state_phi, 1.0)
        check = workloads.chk_mc("two_state", 10, 0)
        for shift, ok in ((3.0, True), (5.0, False), (-5.0, False)):
            mean = 2.0 + shift * 0.01
            est = {"mean": mean, "stderr": 0.01, "n_paths": 1000, "risk_value": float(np.log(mean))}
            res = self.op(ctx, "m", "estimate.json", json.dumps(est), "mc_table", 1000)
            assert (check(ctx, res) == []) == ok

    def test_ladder_and_shift_identity(self, ctx):
        check = workloads.chk_ladder("two_state")
        rep = {"monotone_ok": True, "direction": "nondecreasing", "phi_at_probe": [[1.5], [1.9], [2.0]]}
        self.op(ctx, "l", "manifest.json", json.dumps({"shift_identity_rel_err": 1e-14}))
        res = self.op(ctx, "l", "ladder.json", json.dumps(rep))
        assert check(ctx, res) == []
        self.op(ctx, "l", "manifest.json", json.dumps({"shift_identity_rel_err": 1e-9}))
        assert check(ctx, res)
        self.op(ctx, "l", "manifest.json", json.dumps({"shift_identity_rel_err": 1e-14}))
        rep["phi_at_probe"] = [[1.5], [2.0], [1.9]]
        assert check(ctx, self.op(ctx, "l", "ladder.json", json.dumps(rep)))

    def test_shifted_solve(self, ctx):
        t = np.linspace(0.0, 1.0, 3)
        base = np.array([[1.2, 1.3], [1.1, 1.2], [1.0, 1.0]])
        fac = np.exp(0.5 * 2.0 * 20.0)
        self.op(ctx, "b", "solution.csv", solution_text(t, base, 0.5, [0.5, 0.5], [0.5, 0.5]))
        check = workloads.chk_shifted("controlled_two_state", "b", 20.0)
        shifted = base * np.exp(0.5 * 20.0 * (2.0 - t))[:, None]
        assert shifted[0, 0] == pytest.approx(base[0, 0] * fac)
        res = self.op(ctx, "x", "solution.csv", solution_text(t, shifted, 0.5, [0.5, 0.5], [0.5, 0.5]))
        assert check(ctx, res) == []
        res = self.op(ctx, "x", "solution.csv", solution_text(t, shifted * (1 + 1e-3), 0.5, [0.5, 0.5], [0.5, 0.5]))
        assert check(ctx, res)
