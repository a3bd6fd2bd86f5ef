import numpy as np
import pytest

import wta.optimize
from wta import (
    IntegratorOptions,
    OptimizeProblem,
    connected_components,
    evaluate_choice,
    exhaustive_search,
    greedy_search,
    new_graph,
    random_graph,
    sweep_initial_value,
)
from wta.errors import ConfigError, TooManyCandidatesError
from wta.optimize import TIE_TOL, SweepResult, mask_to_bits


def two_agent_problem(x_alpha0=2.0, other=1.0, horizon=10.0):
    return OptimizeProblem(
        base_graph=new_graph(2, []),
        alpha=0,
        x_alpha0=x_alpha0,
        x0_others=(other,),
        horizon=horizon,
        options=IntegratorOptions(dt=1e-3, stop_on_equilibrium=True),
    )


def nine_agent_problem(seed=0, horizon=5.0):
    # fixed arena among the eight others; alpha joins via the mask
    g = random_graph(9, 0.4, "unit", seed=seed)
    alpha = 0
    edges = [(i, j, w) for i, j, w in g.edges() if alpha not in (i, j)]
    base = new_graph(9, edges)
    x0 = np.random.default_rng(seed + 1).uniform(0.05, 1.0, 9)
    return OptimizeProblem(
        base_graph=base,
        alpha=alpha,
        x_alpha0=float(x0[alpha]),
        x0_others=tuple(float(v) for v in x0[1:]),
        horizon=horizon,
        options=IntegratorOptions(dt=1e-2, stop_on_equilibrium=True,
                                  equilibrium_tol=1e-9),
    )


def acceptance_seven_problem():
    # the instance of tests/test_acceptance.py::test_7_optimizer
    for k in range(100):
        arena = random_graph(9, 0.4, "unit", seed=40 + 1000 * k)
        if len(connected_components(arena)) == 1:
            break
    base = new_graph(9, [(i, j, w) for i, j, w in arena.edges() if 0 not in (i, j)])
    x0 = np.random.default_rng(41).uniform(0.05, 1.0, 9)
    return OptimizeProblem(
        base_graph=base,
        alpha=0,
        x_alpha0=float(x0[0]),
        x0_others=tuple(float(v) for v in x0[1:]),
        horizon=5.0,
        options=IntegratorOptions(dt=1e-2, stop_on_equilibrium=True,
                                  equilibrium_tol=1e-9),
    )


def scalar_argmax(values):
    """The ascending-mask tie-break reduction, as a one-mask-at-a-time loop."""
    best_mask, best_value, tie = 0, -np.inf, False
    for mask, v in enumerate(values):
        if v > best_value + TIE_TOL:
            best_mask, best_value = mask, v
        elif v >= best_value - TIE_TOL:
            tie = True
            best_value = max(best_value, v)
            if (bin(mask).count("1"), mask) < (bin(best_mask).count("1"), best_mask):
                best_mask = mask
    return best_mask, best_value, tie


class TestProblem:
    def test_alpha_edges_in_base_graph_rejected(self):
        with pytest.raises(ConfigError):
            OptimizeProblem(
                base_graph=new_graph(2, [(0, 1, 1.0)]),
                alpha=0,
                x_alpha0=1.0,
                x0_others=(1.0,),
                horizon=1.0,
            )

    @pytest.mark.parametrize("x_alpha0, others", [
        (float("nan"), (1.0,)), (float("inf"), (1.0,)), (1.0, (float("nan"),)),
    ])
    def test_non_finite_initial_values_rejected(self, x_alpha0, others):
        with pytest.raises(ConfigError):
            OptimizeProblem(
                base_graph=new_graph(2, []),
                alpha=0,
                x_alpha0=x_alpha0,
                x0_others=others,
                horizon=1.0,
            )

    def test_mask_bits_round_trip(self):
        assert mask_to_bits(0b1011, 8) == "11010000"


def weighted_problem(n, alpha, seed, candidate_weight=1.7):
    # uniform base weights among the other agents, none of them 1
    g = random_graph(n, 0.5, ("uniform", 0.25, 3.0), seed=seed)
    base = new_graph(n, [(i, j, w) for i, j, w in g.edges() if alpha not in (i, j)])
    return OptimizeProblem(base_graph=base, alpha=alpha, x_alpha0=1.0,
                           x0_others=(1.0,) * (n - 1), horizon=1.0,
                           candidate_weight=candidate_weight)


def oracle_graph(p, mask):
    """The mask's graph built from scratch: the base edges plus an edge of
    candidate_weight from alpha to each candidate whose bit is set."""
    alpha_edges = [(min(p.alpha, j), max(p.alpha, j), p.candidate_weight)
                   for k, j in enumerate(p.candidates) if mask >> k & 1]
    return new_graph(p.base_graph.n, p.base_graph.edges() + alpha_edges)


def assert_same_graph(g, want):
    for name in ("edge_src", "edge_dst", "edge_w"):
        a, b = getattr(g, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert g.hash_hex == want.hash_hex


class TestGraphForMask:
    @pytest.mark.parametrize("n, alpha, seed", [
        (1, 0, 0), (2, 1, 1), (4, 2, 2), (5, 0, 3), (6, 5, 4), (7, 3, 5)])
    def test_every_mask_matches_oracle(self, n, alpha, seed):
        p = weighted_problem(n, alpha, seed)
        for mask in range(1 << p.num_candidates):
            assert_same_graph(p.graph_for_mask(mask), oracle_graph(p, mask))

    def test_masks_past_bit_63_match_oracle(self):
        p = weighted_problem(71, 40, 6, candidate_weight=0.3)
        assert p.num_candidates == 70
        for mask in (1 << 63, (1 << 69) | (1 << 64) | 0b1011, (1 << 70) - 1):
            assert_same_graph(p.graph_for_mask(mask), oracle_graph(p, mask))
        with pytest.raises(ConfigError):
            p.graph_for_mask(1 << 70)


class TestEvaluateChoice:
    def test_empty_mask_is_exactly_initial(self):
        p = nine_agent_problem()
        assert evaluate_choice(p, 0) == p.x_alpha0

    def test_two_agent_win(self):
        p = two_agent_problem(2.0, 1.0)
        assert evaluate_choice(p, 1) == pytest.approx(3.0, abs=1e-6)

    def test_conservation_cap(self):
        p = nine_agent_problem(seed=2)
        cap = p.total_mass() + 1e-6
        for mask in range(0, 256, 17):
            v = evaluate_choice(p, mask)
            assert 0.0 <= v <= cap


class TestExhaustive:
    def test_two_agent_table(self):
        p = two_agent_problem(2.0, 1.0)
        res = exhaustive_search(p)
        assert res.best_mask == 1
        assert res.best_value == pytest.approx(3.0, abs=1e-6)
        assert dict(res.table)[0] == p.x_alpha0
        assert res.evaluations == 2

    def test_smaller_agent_prefers_isolation(self):
        p = two_agent_problem(0.5, 1.0, horizon=30.0)
        res = exhaustive_search(p)
        assert res.best_mask == 0
        assert res.best_value == 0.5

    def test_zero_opponents_tie_breaks_to_empty_mask(self):
        p = OptimizeProblem(
            base_graph=new_graph(4, []),
            alpha=0,
            x_alpha0=1.0,
            x0_others=(0.0, 0.0, 0.0),
            horizon=2.0,
        )
        res = exhaustive_search(p)
        assert res.best_mask == 0
        assert res.tie_break_applied
        assert res.best_value == 1.0

    def test_lanes_bit_identical_to_evaluate_choice(self):
        # exhaustive search integrates its masks as lanes of one block; every
        # value, the argmax and the tie flag must equal the one-mask-at-a-time
        # evaluation and reduction exactly
        p = acceptance_seven_problem()
        res = exhaustive_search(p)
        scalar = [evaluate_choice(p, mask) for mask in range(256)]
        assert [v for _mask, v in res.table] == scalar
        assert [mask for mask, _v in res.table] == list(range(256))
        best_mask, best_value, tie = scalar_argmax(scalar)
        assert (res.best_mask, res.best_value, res.tie_break_applied) == (
            best_mask, best_value, tie)
        assert (res.value_min, res.value_max) == (min(scalar), max(scalar))

    def test_guard(self):
        with pytest.raises(TooManyCandidatesError):
            exhaustive_search(
                OptimizeProblem(
                    base_graph=new_graph(26, []),
                    alpha=0,
                    x_alpha0=1.0,
                    x0_others=(1.0,) * 25,
                    horizon=1.0,
                )
            )


class TestGreedy:
    def test_two_agent_finds_optimum(self):
        p = two_agent_problem(2.0, 1.0)
        res = greedy_search(p, restarts=2, seed=0)
        assert res.best_value == pytest.approx(3.0, abs=1e-6)

    def test_determinism(self):
        p = nine_agent_problem(seed=3)
        a = greedy_search(p, restarts=4, seed=11)
        b = greedy_search(p, restarts=4, seed=11)
        assert a == b

    def test_never_exceeds_exhaustive(self):
        p = nine_agent_problem(seed=4, horizon=3.0)
        exh = exhaustive_search(p)
        grd = greedy_search(p, restarts=4, seed=1)
        assert grd.best_value <= exh.best_value + 1e-12

    def test_restarts_are_bounded(self, monkeypatch):
        p = two_agent_problem(2.0, 1.0)
        # the bound is inclusive
        monkeypatch.setattr(wta.optimize, "MAX_RESTARTS", 3)
        assert greedy_search(p, restarts=3).best_mask == 1
        with pytest.raises(ConfigError, match="restarts"):
            greedy_search(p, restarts=4)
        # 10^12 restarts ran for minutes; refused before the first one
        monkeypatch.undo()
        with pytest.raises(ConfigError, match="restarts"):
            greedy_search(p, restarts=10**12)


class TestSweep:
    def test_zero_initial_value_stays_zero(self):
        p = two_agent_problem(2.0, 1.0, horizon=2.0)
        sweep = sweep_initial_value(p, [0.0])
        assert all(v == 0.0 for _x0, _mask, v in sweep.rows)

    def test_lanes_bit_identical_to_evaluate_choice(self):
        g = random_graph(6, 0.6, ("uniform", 0.5, 1.5), seed=8)
        base = new_graph(6, [(i, j, w) for i, j, w in g.edges() if 2 not in (i, j)])
        x0 = np.random.default_rng(9).uniform(0.05, 1.0, 6)
        p = OptimizeProblem(
            base_graph=base,
            alpha=2,
            x_alpha0=float(x0[2]),
            x0_others=tuple(float(v) for j, v in enumerate(x0) if j != 2),
            horizon=2.0,
            candidate_weight=0.7,
            options=IntegratorOptions(dt=2e-2, stop_on_equilibrium=True,
                                      equilibrium_tol=1e-9),
        )
        grid = [0.0, 0.25, 0.8, 1.6]
        sweep = sweep_initial_value(p, grid)
        assert [(x0, mask) for x0, mask, _v in sweep.rows] == [
            (x0, mask) for x0 in grid for mask in range(32)]
        for x0, mask, v in sweep.rows:
            assert v == evaluate_choice(p, mask, x_alpha0=x0)

    def test_non_finite_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep_initial_value(two_agent_problem(), [0.5, float("nan")])

    @pytest.mark.parametrize("grid", [[0.5] * 2**17, (0.5,) * 2**17, np.full(2**17, 0.5)])
    def test_guard_counts_the_grid_before_reading_it(self, grid, monkeypatch):
        # 2^17 grid points x 2^8 masks: refused with no value read
        def no_read(*args, **kwargs):
            raise AssertionError("the grid was read before the guard counted it")

        p = nine_agent_problem()
        monkeypatch.setattr(wta.optimize, "read_numbers", no_read)
        with pytest.raises(TooManyCandidatesError):
            sweep_initial_value(p, grid)

    @pytest.mark.parametrize("grid", [0.5, np.array(0.5), np.full((2, 2), 0.5), "0.5"])
    def test_grid_that_is_not_a_list_is_rejected(self, grid):
        with pytest.raises(ConfigError):
            sweep_initial_value(two_agent_problem(), grid)

    def test_cap_and_csv(self, tmp_path):
        p = two_agent_problem(2.0, 1.0, horizon=2.0)
        sweep = sweep_initial_value(p, [0.0, 0.5, 1.5])
        for x0, _mask, v in sweep.rows:
            assert 0.0 <= v <= x0 + sum(p.x0_others) + 1e-6
        path = tmp_path / "sweep.csv"
        sweep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_alpha0,mask,final_value"
        assert len(lines) == 1 + len(sweep.rows)

    def test_csv_same_bytes_as_per_value_formatting(self, tmp_path):
        rows = ((0.0, 0, -0.0), (5e-324, 5, 1e300), (1 / 3, 6, 2.2250738585072014e-308))
        sweep = SweepResult(alpha=0, grid=(0.0, 5e-324, 1 / 3), num_candidates=3, rows=rows,
                            others_mass=1.0)
        path = tmp_path / "sweep.csv"
        sweep.write_csv(path)
        lines = [f"{x0:.17g},{mask_to_bits(mask, 3)},{v:.17g}" for x0, mask, v in rows]
        assert path.read_text() == "\n".join(["x_alpha0,mask,final_value", *lines]) + "\n"
        assert lines[:2] == ["0,000,-0", "4.9406564584124654e-324,101,1.0000000000000001e+300"]
