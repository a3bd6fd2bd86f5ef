"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
runtime budget, and prints a single PASS line when it holds.
"""

import time

import numpy as np
import pytest

from wta import (
    IntegratorOptions,
    OptimizeProblem,
    classify_equilibrium,
    connected_components,
    evaluate_choice,
    exhaustive_search,
    greedy_search,
    is_independent_set,
    laplacian,
    linearize_at,
    new_graph,
    perturb_and_escape,
    random_graph,
    reverse_vector_field,
    run_experiment,
    simulate,
    simulate_reverse,
    sweep_initial_value,
)


def _report(label):
    print(f"ACCEPTANCE {label}: PASS")


def _connected(n, p, seed):
    for k in range(100):
        g = random_graph(n, p, "unit", seed=seed + 1000 * k)
        if len(connected_components(g)) == 1:
            return g
    raise AssertionError("no connected instance found")


@pytest.fixture(scope="module")
def conservation_suite():
    """Shared 50-run batch used by criteria 1, 2 and 5."""
    start = time.perf_counter()
    runs = []
    opts = IntegratorOptions(dt=1e-3, t_end=1.0)
    for trial in range(50):
        g = random_graph(100, 0.05, "unit", seed=trial)
        x0 = np.random.default_rng(trial + 10_000).uniform(0.0, 1.0, 100)
        traj, audit = simulate(g, x0, opts)
        runs.append((g, x0, traj, audit))
    return runs, time.perf_counter() - start


class TestAcceptance:
    def test_1_conservation(self, conservation_suite):
        runs, elapsed = conservation_suite
        for _g, x0, traj, _audit in runs:
            mass0 = x0.sum()
            assert np.abs(traj.mass - mass0).max() <= 1e-9 * mass0
        assert elapsed < 30.0
        _report(f"1 conservation (50 runs, {elapsed:.1f}s)")

    def test_2_positivity(self, conservation_suite):
        runs, _ = conservation_suite
        for _g, _x0, traj, _audit in runs:
            assert np.all(traj.states >= 0.0)
        _report("2 positivity (50 runs, zero violations)")

    def test_3_convergence_to_stable_equilibria(self):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        opts = IntegratorOptions(
            dt=1e-2, t_end=500.0, record_stride=100,
            stop_on_equilibrium=True, equilibrium_tol=1e-10,
        )
        for trial in range(100):
            n = int(rng.integers(3, 21))
            g = _connected(n, 0.5, seed=trial)
            x0 = rng.uniform(0.25, 1.0, n)
            assert len(set(x0.tolist())) == n
            traj, _ = simulate(g, x0, opts)
            assert traj.metadata["stopped_at_equilibrium"]
            rep = classify_equilibrium(g, traj.final_state, zero_tol=1e-5)
            assert rep.klass == "E_s"
            assert is_independent_set(g, rep.winners)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        _report(f"3 convergence/independent winners (100 runs, {elapsed:.1f}s)")

    def test_4_two_agent_oracle(self):
        start = time.perf_counter()
        g = new_graph(2, [(0, 1, 1.0)])
        opts = IntegratorOptions(dt=1e-3, t_end=10.0, record_stride=10,
                                 stop_on_equilibrium=True,
                                 equilibrium_tol=1e-10)
        fwd, _ = simulate(g, [2.0, 1.0], opts)
        assert np.abs(fwd.final_state - [3.0, 0.0]).max() < 1e-6
        rev, _ = simulate_reverse(g, [2.0, 1.0], opts)
        assert np.abs(rev.final_state - [1.5, 1.5]).max() < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        _report(f"4 two-agent oracle ({elapsed:.2f}s)")

    def test_5_monotone_extremes_and_entropy(self, conservation_suite):
        runs, _ = conservation_suite
        for _g, _x0, traj, _audit in runs:
            assert np.all(np.diff(traj.state_max) >= -1e-9)
            assert np.all(np.diff(traj.state_min) <= 1e-9)
            assert np.all(np.diff(traj.entropy) >= -1e-9)
        opts = IntegratorOptions(dt=1e-2, t_end=40.0, record_stride=10)
        for trial in range(5):
            g = _connected(10, 0.6, seed=trial + 300)
            y0 = np.random.default_rng(trial).uniform(0.2, 1.0, 10)
            traj, _ = simulate_reverse(g, y0, opts)
            spread = traj.state_max - traj.state_min
            assert np.all(np.diff(spread) <= 1e-9)
            assert traj.entropy[-1] < 1e-10
        _report("5 monotone extremes/entropy + reverse consensus")

    def test_6_unstable_equilibria(self):
        start = time.perf_counter()
        cases = [
            ("edge", new_graph(2, [(0, 1, 1.0)])),
            ("triangle", new_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])),
            ("path3", new_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])),
            ("random8", _connected(8, 0.4, seed=2026)),
        ]
        expected = {"triangle": [0.0, 3.0, 3.0], "path3": [0.0, 1.0, 3.0]}
        for name, g in cases:
            x_eq = np.ones(g.n)
            rep = classify_equilibrium(g, x_eq)
            assert rep.klass == "E_u"
            spec = linearize_at(g, rep)
            eigs = np.asarray(spec.eigenvalues)
            assert eigs[0] < 1e-10
            assert np.all(eigs[1:] > 0.0)
            if name in expected:
                assert np.abs(eigs - expected[name]).max() <= 1e-10
                # independent brute-force oracle for the same matrix
                w = np.array([[sum(g.weights[i]) if i == j else -g.weights[i][j]
                               for j in range(g.n)] for i in range(g.n)])
                ref = np.linalg.eigvalsh(w)
                assert np.abs(eigs - ref).max() <= 1e-10
            escape = perturb_and_escape(g, x_eq, seed=5)
            assert escape.escaped
            assert escape.max_deviation > 100.0 * escape.delta
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        _report(f"6 unstable-equilibrium spectra + escape ({elapsed:.1f}s)")

    def test_7_optimizer(self):
        start = time.perf_counter()
        arena = _connected(9, 0.4, seed=40)
        alpha = 0
        base = new_graph(
            9, [(i, j, w) for i, j, w in arena.edges() if alpha not in (i, j)]
        )
        x0 = np.random.default_rng(41).uniform(0.05, 1.0, 9)
        problem = OptimizeProblem(
            base_graph=base,
            alpha=alpha,
            x_alpha0=float(x0[alpha]),
            x0_others=tuple(float(v) for v in x0[1:]),
            horizon=5.0,
            dt=1e-2,
            equilibrium_tol=1e-9,
        )
        exh = exhaustive_search(problem)
        assert exh.evaluations == 2**8
        assert exh.table[0] == problem.x_alpha0
        cap = problem.total_mass() + 1e-6
        assert all(0.0 <= v <= cap for v in exh.table)
        grd = greedy_search(problem, restarts=8, seed=0)
        assert grd.best_value <= exh.best_value + 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0

        # reported, not asserted: shape of the initial-value sweep
        sweep = sweep_initial_value(problem, np.linspace(0.0, 1.5, 16))
        lo, hi = sweep.values.min(), sweep.values.max()
        total = problem.total_mass()
        print(
            "ACCEPTANCE 7 sweep report (not asserted): "
            f"min outcome {lo:.3g}, max outcome {hi:.3g}, "
            f"near-zero point exists: {lo < 0.05 * total}, "
            f"near-total-mass point exists: {hi > 0.8 * total}"
        )
        _report(f"7 optimizer exhaustive/greedy ({elapsed:.1f}s)")

    def test_8_experiment_reproducibility(self, tmp_path):
        small = {
            "fig1_bars": {"agents": 30, "edge_prob": 0.5, "t_end": 1.0},
            "fig2_trajectories": {"agents": 30, "edge_prob": 0.5, "t_end": 1.0},
            "fig3_entropy": {"agents": 30, "edge_prob": 0.8, "t_end": 1.0},
            "fig4_nine_agents": {"t_end": 3.0},
            "fig5_sweep": {"agents": 6, "horizon": 2.0, "grid_count": 5},
        }
        for name, overrides in small.items():
            out_a = tmp_path / name / "a"
            out_b = tmp_path / name / "b"
            run_experiment(name, out_a, seed=1, overrides=overrides)
            run_experiment(name, out_b, seed=1, overrides=overrides)
            files_a = sorted(p.name for p in out_a.iterdir())
            assert files_a == sorted(p.name for p in out_b.iterdir())
            for fname in files_a:
                assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes()
        _report("8 byte-identical experiment reruns (5 manifests)")

    def test_9_laplacian_identity(self):
        rng = np.random.default_rng(90)
        for trial in range(1000):
            n = int(rng.integers(2, 15))
            g = random_graph(n, 0.5, ("uniform", 0.1, 2.0), seed=trial)
            y = rng.uniform(0.0, 2.0, n)
            L = laplacian(g, y)
            assert np.abs(L.sum(axis=1)).max() <= 1e-12
            diff = np.abs(-L @ y - reverse_vector_field(g, y))
            assert diff.max() <= 1e-12 * n * max(np.abs(y).max(), 1e-300)
        _report("9 Laplacian identity (1000 instances)")
