import hashlib
import math

import numpy as np
import pytest

from wta import (
    IntegratorOptions,
    new_graph,
    random_graph,
    simulate,
    simulate_reverse,
    step,
    vector_field,
)
import wta.dynamics
from wta.dynamics import _dense_field, _edge_field, _field, _field_kernel
from wta.errors import ConfigError, NonFiniteStateError, PositivityFailureError, WtaError
from wta.integrate import _HISTORY_ROWS, Trajectory, _raw_step, _simulate


def pair():
    return new_graph(2, [(0, 1, 1.0)])


class TestStep:
    def test_uniform_state_unchanged(self):
        g = random_graph(6, 0.7, "unit", seed=1)
        x = np.full(6, 0.9)
        out, used = step(g, x, 0.05)
        assert np.array_equal(out, x)
        assert used == 0.05

    def test_euler_hand_step(self):
        out, used = step(pair(), [2.0, 1.0], 0.1, method="euler")
        assert out[0] == pytest.approx(2.2, abs=1e-15)
        assert out[1] == pytest.approx(0.8, abs=1e-15)
        assert used == 0.1

    def test_zero_component_stays_zero(self):
        g = random_graph(5, 0.8, "unit", seed=2)
        x = np.random.default_rng(3).uniform(0.1, 1, 5)
        x[2] = 0.0
        for method in ("euler", "rk4"):
            out, _ = step(g, x, 0.01, method=method)
            assert out[2] == 0.0

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            step(pair(), [1.0, 1.0], 0.1, method="rk45")

    def test_halving_preserves_positivity(self):
        # a deliberately huge Euler step overshoots the boundary; the step
        # must shrink instead of going negative
        out, used = step(pair(), [5.0, 1.0], 1.0, method="euler")
        assert used < 1.0
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_overflow_raises_without_warnings(self, method):
        # the suite turns warnings into errors, so numpy's overflow warnings
        # would fail this test before the PositivityFailureError
        g = new_graph(2, [(0, 1, 1e300)])
        with pytest.raises(PositivityFailureError, match="overflowed"):
            step(g, [1e100, 2e100], 1e-3, method=method)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def textbook_rk4(field, x, h):
    """RK4 as written, every intermediate a new array."""
    k1 = field(x)
    k2 = field(x + (0.5 * h) * k1)
    k3 = field(x + (0.5 * h) * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def plain_field(g):
    """The forward field of g through the plain form of its kernel."""
    if _field_kernel(g) == "dense":
        W = g.weights
        return lambda x: _dense_field(W, x)
    return lambda x: _edge_field(g.edge_src, g.edge_dst, g.edge_w, x)


# (graph, kernel): unit and weighted graphs on each field kernel
ORACLE_GRAPHS = {
    "edge-unit": (lambda: random_graph(12, 0.4, "unit", seed=1), "edge"),
    "edge-weighted": (lambda: random_graph(12, 0.4, ("uniform", 0.2, 2.0), seed=2), "edge"),
    "dense-unit": (lambda: random_graph(40, 0.5, "unit", seed=3), "dense"),
    "dense-weighted": (lambda: random_graph(40, 0.5, ("uniform", 0.2, 2.0), seed=4), "dense"),
}


class TestStepOracle:
    """The integrator's RK4 step, with its reused buffers and in-place
    products, gives the bits of textbook RK4 on fresh arrays."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_raw_step_is_textbook_rk4(self, name, reverse):
        make, kernel = ORACLE_GRAPHS[name]
        g = make()
        assert _field_kernel(g) == kernel
        plain = plain_field(g)
        ref = (lambda x: -plain(x)) if reverse else plain
        f = _field(g, reverse=reverse)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.uniform(0.1, 1.0, g.n)
            x[rng.integers(g.n)] = 0.0
            x_before = x.copy()
            k1 = f(x)
            assert same_bits(k1, ref(x))
            k1_before = k1.copy()
            # one step size, and one per entry as a halving retry passes it
            for h in (0.01, rng.uniform(0.001, 0.02, g.n)):
                assert same_bits(_raw_step(f, x, h, "rk4", k1), textbook_rk4(ref, x, h))
                assert same_bits(_raw_step(f, x, h, "euler", k1), x + h * k1)
            assert same_bits(x, x_before) and same_bits(k1, k1_before)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_step_is_textbook_rk4(self, name):
        g = ORACLE_GRAPHS[name][0]()
        x = np.random.default_rng(6).uniform(0.1, 1.0, g.n)
        out, used = step(g, x, 0.01)
        assert used == 0.01 and np.all(out > 0.0)
        assert same_bits(out, textbook_rk4(plain_field(g), x, 0.01))

    def test_lane_block_field_is_the_edge_sum(self):
        g = random_graph(9, 0.5, ("uniform", 0.2, 2.0), seed=7)
        rng = np.random.default_rng(8)
        keep = rng.random((3, g.num_edges)) < 0.7
        x = rng.uniform(0.0, 1.0, 3 * g.n)
        both = np.hstack((keep, keep))
        offset = g.n * np.arange(3)[:, None]
        src, dst = (g.edge_src + offset)[both], (g.edge_dst + offset)[both]
        w = np.broadcast_to(g.edge_w, both.shape)[both]
        assert same_bits(_field(g, keep=keep)(x), _edge_field(src, dst, w, x))


class TestMassAudit:
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    @pytest.mark.parametrize("t_end, stop", [(30.0, False), (30.0, True), (0.5, False)],
                             ids=["full", "stopped", "short"])
    def test_drift_is_max_over_every_step(self, direction, t_end, stop):
        # full and stopped runs take more steps than one history block and
        # end inside a block; the short run ends inside its first block
        # (seed 22: the largest deviation lies above the initial mass in
        # some of these runs and below it in others)
        g = random_graph(20, 0.4, ("uniform", 0.2, 2.0), seed=22)
        x0 = np.random.default_rng(23).uniform(0.0, 3.0, 20)
        opts = IntegratorOptions(dt=1e-2, t_end=t_end, record_stride=1,
                                 stop_on_equilibrium=stop, equilibrium_tol=1e-7)
        run = simulate if direction == "forward" else simulate_reverse
        traj, audit = run(g, x0, opts)
        steps = traj.metadata["steps_taken"]
        assert steps % _HISTORY_ROWS != 0 and (steps > _HISTORY_ROWS) == (t_end > 1.0)
        assert traj.metadata["stopped_at_equilibrium"] == stop
        assert len(traj.times) == steps + 1
        drift = np.abs(traj.states.sum(axis=1) - audit.initial_mass).max()
        assert drift > 0.0
        assert audit.max_abs_drift == drift


class TestOptions:
    def test_step_count_is_bounded(self):
        assert IntegratorOptions(dt=0.5, t_end=5e7).t_end == 5e7  # 10^8 steps
        for dt, t_end in [(0.5, 5e7 + 0.5), (1e-3, 2.0**64), (5e-324, 1.0)]:
            with pytest.raises(ConfigError, match="steps"):
                IntegratorOptions(dt=dt, t_end=t_end)


class TestSimulateForward:
    def test_two_agent_oracle(self):
        # conserved mass 3, larger agent wins: limit (3, 0); cross-checked
        # below against the closed-form solution
        traj, audit = simulate(pair(), [2.0, 1.0], IntegratorOptions(dt=1e-3, t_end=10.0))
        assert abs(traj.final_state[0] - 3.0) < 1e-6
        assert abs(traj.final_state[1]) < 1e-6
        ref = _reference_two_agent(2.0, 1.0, t=10.0)
        assert np.abs(traj.final_state - ref).max() < 1e-8

    def test_origin_is_fixed(self):
        traj, audit = simulate(pair(), [0.0, 0.0], IntegratorOptions(t_end=1.0))
        assert not traj.states.any()
        assert audit.max_abs_drift == 0.0

    def test_uniform_positive_state_constant(self):
        g = random_graph(6, 0.9, "unit", seed=4)
        traj, _ = simulate(g, np.full(6, 0.5), IntegratorOptions(t_end=1.0))
        assert np.all(traj.states == 0.5)

    def test_determinism(self):
        g = random_graph(10, 0.4, "unit", seed=6)
        x0 = np.random.default_rng(7).uniform(0, 1, 10)
        opts = IntegratorOptions(dt=1e-3, t_end=2.0, record_stride=10)
        a, _ = simulate(g, x0, opts)
        b, _ = simulate(g, x0, opts)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_conservation_and_positivity(self):
        for trial in range(5):
            g = random_graph(30, 0.15, "unit", seed=trial)
            x0 = np.random.default_rng(trial + 50).uniform(0, 1, 30)
            traj, audit = simulate(g, x0, IntegratorOptions(dt=1e-3, t_end=2.0))
            assert audit.max_abs_drift <= 1e-9 * audit.initial_mass
            assert np.all(traj.states >= 0.0)

    def test_monotone_extremes_and_entropy(self):
        g = random_graph(20, 0.3, "unit", seed=9)
        x0 = np.random.default_rng(10).uniform(0, 1, 20)
        traj, _ = simulate(g, x0, IntegratorOptions(dt=1e-3, t_end=3.0))
        assert np.all(np.diff(traj.state_max) >= -1e-9)
        assert np.all(np.diff(traj.state_min) <= 1e-9)
        assert np.all(np.diff(traj.entropy) >= -1e-9)

    def test_entropy_slope_matches_edge_formula(self):
        # dH/dt along the flow equals (2/n) sum_edges a_ij x_i x_j (x_i-x_j)^2;
        # checked against a centered finite difference of H along the flow
        g = random_graph(12, 0.5, ("uniform", 0.2, 1.5), seed=11)
        x = np.random.default_rng(12).uniform(0.1, 1, 12)
        formula = 0.0
        for i, j, w in g.edges():
            formula += w * x[i] * x[j] * (x[i] - x[j]) ** 2
        formula *= 2.0 / g.n
        from wta import entropy

        eps = 1e-6
        dx = vector_field(g, x)
        slope = (entropy(x + eps * dx) - entropy(x - eps * dx)) / (2 * eps)
        assert slope == pytest.approx(formula, rel=1e-6)
        assert formula >= 0.0

    def test_stop_on_equilibrium(self):
        traj, _ = simulate(
            pair(),
            [2.0, 1.0],
            IntegratorOptions(dt=1e-3, t_end=100.0, stop_on_equilibrium=True,
                              equilibrium_tol=1e-10),
        )
        assert traj.metadata["stopped_at_equilibrium"]
        assert traj.metadata["final_time"] < 100.0
        assert traj.residual[-1] < 1e-10

    def test_renormalize_mode(self):
        g = random_graph(10, 0.4, "unit", seed=13)
        x0 = np.random.default_rng(14).uniform(0, 1, 10)
        traj, audit = simulate(
            g, x0, IntegratorOptions(dt=1e-2, t_end=2.0,
                                     conservation_mode="renormalize")
        )
        assert np.abs(traj.mass - x0.sum()).max() <= 1e-12 * x0.sum()
        assert audit.max_abs_drift >= 0.0


class TestSimulateReverse:
    def test_two_agent_consensus_oracle(self):
        traj, _ = simulate_reverse(pair(), [2.0, 1.0], IntegratorOptions(dt=1e-3, t_end=10.0))
        assert np.abs(traj.final_state - 1.5).max() < 1e-6
        ref = _reference_two_agent(2.0, 1.0, t=10.0, sign=-1.0)
        assert np.abs(traj.final_state - ref).max() < 1e-8

    def test_uniform_already_consensus(self):
        g = random_graph(5, 1.0, "unit", seed=0)
        traj, _ = simulate_reverse(g, np.full(5, 0.4), IntegratorOptions(t_end=1.0))
        assert np.all(traj.states == 0.4)

    def test_zero_component_stays_zero(self):
        g = new_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        traj, _ = simulate_reverse(g, [0.0, 0.5, 1.0], IntegratorOptions(t_end=2.0))
        assert np.all(traj.states[:, 0] == 0.0)

    def test_spread_contracts_on_connected_graphs(self):
        for trial in range(5):
            g = random_graph(8, 0.9, "unit", seed=trial + 20)
            y0 = np.random.default_rng(trial).uniform(0.2, 1.0, 8)
            traj, _ = simulate_reverse(g, y0, IntegratorOptions(dt=1e-3, t_end=5.0))
            spread = traj.state_max - traj.state_min
            assert np.all(np.diff(spread) <= 1e-9)


class TestNonFiniteState:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejected_before_integrating(self, bad):
        for run in (simulate, simulate_reverse):
            with pytest.raises(NonFiniteStateError):
                run(pair(), [bad, 1.0], IntegratorOptions(t_end=0.1))
        with pytest.raises(WtaError):
            step(pair(), [1.0, bad], 0.1)


def assert_lanes_match_single_runs(g, x0, opts, keep=None):
    """Run the rows of x0 as one block (every lane on all of g unless keep
    says otherwise) and check each lane against its own simulate call on g
    restricted to its kept edges."""
    if keep is None:
        keep = np.ones((len(x0), g.num_edges), dtype=bool)
    run = _simulate(g, x0, opts, "forward", None, keep=keep)
    for lane, x in enumerate(x0):
        lane_g = new_graph(g.n, [e for e, k in zip(g.edges(), keep[lane]) if k])
        traj, audit = simulate(lane_g, x, opts)
        assert np.array_equal(run.states[lane], traj.final_state)
        assert run.steps[lane] == traj.metadata["steps_taken"]
        assert run.stopped[lane] == traj.metadata["stopped_at_equilibrium"]
        assert run.final_time[lane] == traj.metadata["final_time"]
        assert run.max_drift[lane] == audit.max_abs_drift
        assert np.all(run.states[lane] >= 0.0)
        assert abs(run.states[lane].sum() - x.sum()) <= 1e-9 * x.sum()
    return run


class TestLaneBlock:
    def test_one_lane_halves_while_another_does_not(self):
        x0 = np.array([[5.0, 1.0], [1.0, 0.9], [0.0, 1.0]])
        opts = IntegratorOptions(dt=0.5, t_end=2.0, method="euler")
        assert step(pair(), x0[0], 0.5, method="euler")[1] < 0.5
        assert step(pair(), x0[1], 0.5, method="euler")[1] == 0.5
        assert_lanes_match_single_runs(pair(), x0, opts)

    def test_lanes_stop_on_different_steps(self):
        g = random_graph(5, 0.8, "unit", seed=3)
        rng = np.random.default_rng(4)
        x0 = np.vstack([rng.uniform(0.1, 1.0, (3, 5)), np.full((1, 5), 0.5)])
        x0[1, :3] = 0.0
        opts = IntegratorOptions(dt=1e-2, t_end=30.0, stop_on_equilibrium=True,
                                 equilibrium_tol=1e-9)
        run = assert_lanes_match_single_runs(g, x0, opts)
        assert run.stopped.all()
        assert len(set(run.steps.tolist())) == len(x0)

    def test_lanes_stop_mid_history_block_beside_zero_losers(self):
        g = random_graph(8, 0.6, ("uniform", 0.3, 1.5), seed=11)
        rng = np.random.default_rng(12)
        x0 = rng.uniform(0.1, 1.0, (6, 8))
        x0[3:, 2:7] = 0.0  # five exact-zero losers in each of the last lanes
        opts = IntegratorOptions(dt=1e-2, t_end=40.0, stop_on_equilibrium=True,
                                 equilibrium_tol=1e-9)
        run = assert_lanes_match_single_runs(g, x0, opts)
        steps = run.steps.tolist()
        assert run.stopped.all() and len(set(steps)) == len(steps)
        # every lane stops inside a history block
        assert all(k % _HISTORY_ROWS for k in steps)

    def test_block_shrinks_from_paired_to_unpaired(self, monkeypatch, paired_builds):
        # the rule patched down so that the block of six lanes and the five
        # left after the first stop are paired, and the smaller ones are not
        g = random_graph(8, 0.6, ("uniform", 0.3, 1.5), seed=11)
        rng = np.random.default_rng(12)
        x0 = rng.uniform(0.1, 1.0, (6, 8))
        x0[3:, 2:7] = 0.0
        entries = g.edge_src.size
        monkeypatch.setattr(wta.dynamics, "PAIRED_MIN_ENTRIES", 5 * entries)
        opts = IntegratorOptions(dt=1e-2, t_end=40.0, stop_on_equilibrium=True,
                                 equilibrium_tol=1e-9)
        run = assert_lanes_match_single_runs(g, x0, opts)
        assert run.stopped.all() and len(set(run.steps.tolist())) == len(x0)
        assert paired_builds == [6 * entries, 5 * entries]

    def test_renormalize_block_with_lane_edge_subsets(self):
        g = random_graph(7, 0.7, ("uniform", 0.3, 1.5), seed=5)
        rng = np.random.default_rng(6)
        x0 = rng.uniform(0.0, 1.0, (4, 7))
        undirected = rng.random((4, g.n, g.n)) < 0.6
        m = g.num_edges
        keep = undirected[:, g.edge_src[m:], g.edge_dst[m:]]
        opts = IntegratorOptions(dt=5e-2, t_end=3.0, conservation_mode="renormalize",
                                 stop_on_equilibrium=True, equilibrium_tol=1e-7)
        assert_lanes_match_single_runs(g, x0, opts, keep=keep)


def fig2_instance():
    """The fig2_trajectories preset at seed 0: n=100, p=0.8, x0 ~ U(0, 1)."""
    g = random_graph(100, 0.8, "unit", seed=0)
    return g, np.random.default_rng(1).uniform(0.0, 1.0, 100)


class TestDenseKernel:
    def test_matches_forced_edge_run(self, monkeypatch):
        g, x0 = fig2_instance()
        opts = IntegratorOptions(dt=1e-3, t_end=1.0, record_stride=100)
        runs = {}
        for kernel in ("dense", "edge"):
            if kernel == "edge":
                monkeypatch.setattr(wta.dynamics, "DENSE_MIN_N", g.n + 1)
            for run in (simulate, simulate_reverse):
                traj, audit = run(g, x0, opts)
                assert traj.metadata["field_kernel"] == kernel
                assert audit.max_abs_drift <= 1e-9 * audit.initial_mass
                runs[kernel, run] = traj
        for run in (simulate, simulate_reverse):
            dense, edge = runs["dense", run], runs["edge", run]
            assert np.array_equal(dense.times, edge.times)
            assert np.abs(dense.final_state - edge.final_state).max() <= 1e-10

    def test_zero_component_stays_zero(self):
        g, x0 = fig2_instance()
        x0[::9] = 0.0
        opts = IntegratorOptions(dt=1e-3, t_end=0.2, record_stride=1)
        for run in (simulate, simulate_reverse):
            traj, _ = run(g, x0, opts)
            assert traj.metadata["field_kernel"] == "dense"
            assert np.all(traj.states[:, ::9] == 0.0)
            assert np.all(traj.states >= 0.0)

    def test_integrator_uses_the_vector_field_kernel(self):
        g, x0 = fig2_instance()
        euler = x0 + 1e-3 * vector_field(g, x0)
        opts = IntegratorOptions(dt=1e-3, t_end=1e-3, method="euler")
        assert np.array_equal(simulate(g, x0, opts)[0].final_state, euler)
        assert np.array_equal(step(g, x0, 1e-3, method="euler")[0], euler)

    def test_metadata_names_the_kernel(self):
        opts = IntegratorOptions(dt=1e-3, t_end=0.002)
        g, x0 = fig2_instance()
        assert simulate(g, x0, opts)[0].metadata["field_kernel"] == "dense"
        sparse = random_graph(1000, 5 / 999, "unit", seed=0)
        x = np.random.default_rng(2).uniform(0, 1, 1000)
        assert simulate(sparse, x, opts)[0].metadata["field_kernel"] == "edge"


class TestPairedKernel:
    def test_sparse_large_run_is_pinned(self, paired_builds):
        # the sparse_large shape runs the paired layout; its state arithmetic
        # is elementwise ufuncs and bincount in edge order, so these bytes
        # do not depend on the CPU, and they are those of the unpaired kernel
        g = random_graph(1000, 5 / 999, "unit", seed=0)
        x0 = np.random.default_rng(1).uniform(0.0, 1.0, 1000)
        x0[::10] = 0.0
        traj, _ = simulate(g, x0, IntegratorOptions(dt=1e-3, t_end=0.1))
        assert paired_builds == [g.edge_src.size] and traj.metadata["field_kernel"] == "edge"
        assert hashlib.sha256(traj.final_state.tobytes()).hexdigest() == (
            "3cedfc6d555b08d125fd9787825e39d5dfb9ff297127847b14e4b145aabaf6cd")


class TestTrajectoryCsv:
    def test_same_bytes_as_per_value_formatting(self, tmp_path):
        values = np.array([[0.0, -0.0, 5e-324, 1e300],
                           [0.1, 1 / 3, 2.2250738585072014e-308, -1e300]])
        traj = Trajectory(
            times=np.array([0.0, 0.5]), states=values, mass=values.sum(axis=1),
            entropy=np.array([1e-17, 3.0]), state_max=values.max(axis=1),
            state_min=values.min(axis=1), residual=np.array([-0.0, 7.25]),
            direction="forward",
        )
        path = tmp_path / "t.csv"
        traj.write_csv(path)
        cols = np.column_stack([traj.times, traj.states, traj.mass, traj.entropy,
                                traj.state_max, traj.state_min, traj.residual])
        rows = [",".join(f"{v:.17g}" for v in row) for row in cols]
        header = "t,x_0,x_1,x_2,x_3,mass,entropy,max,min,residual"
        assert path.read_text() == "\n".join([header, *rows]) + "\n"


    def test_round_trip_17_digits(self, tmp_path):
        g = random_graph(4, 0.8, ("uniform", 0.3, 1.2), seed=30)
        x0 = np.random.default_rng(31).uniform(0, 1, 4)
        traj, _ = simulate(g, x0, IntegratorOptions(dt=1e-2, t_end=0.5, record_stride=5))
        path = tmp_path / "t.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_0,x_1,x_2,x_3,mass,entropy,max,min,residual"
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:5], traj.states)
        assert np.array_equal(data[:, 5], traj.mass)


def _reference_two_agent(a, b, t, sign=1.0):
    """Closed-form state at time t of the single-edge pair started at (a, b),
    forward (sign=+1) or reverse (sign=-1), built separately from the
    library integrator.

    With mass M = a + b and gap u = x0 - x1, the gap obeys
    u' = sign * u (M^2 - u^2) / 2, so q = u^2 / (M^2 - u^2) grows as
    q0 * exp(sign * M^2 * t). The smaller agent, (M - |u|) / 2, is written
    without the cancellation of that difference.
    """
    m = a + b
    q = (a - b) ** 2 / (m * m - (a - b) ** 2) * math.exp(sign * m * m * t)
    small = (m / 2) / ((1 + q) * (1 + math.sqrt(q / (1 + q))))
    return np.array([m - small, small] if a >= b else [small, m - small])
