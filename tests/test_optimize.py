import tracemalloc

import numpy as np
import pytest

import wta.optimize
from wta import (
    OptimizeProblem,
    classify_equilibrium,
    connected_components,
    evaluate_choice,
    exhaustive_search,
    greedy_search,
    linearize_at,
    new_graph,
    random_graph,
    sweep_initial_value,
)
from wta.dynamics import _field_kernel
from wta.errors import ConfigError, TooManyCandidatesError
from wta.optimize import TIE_TOL, SweepResult, mask_to_bits

import conftest
from conftest import reference_greedy


def two_agent_problem(x_alpha0=2.0, other=1.0, horizon=10.0):
    return OptimizeProblem(
        base_graph=new_graph(2, []),
        alpha=0,
        x_alpha0=x_alpha0,
        x0_others=(other,),
        horizon=horizon,
        dt=1e-3,
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
        dt=1e-2,
        equilibrium_tol=1e-9,
    )


def seeded_arena_problem(n=9, p_edge=0.4, horizon=5.0):
    # the first connected G(n, p) from seeds 40, 1040, ..., x0 from seed 41:
    # at the defaults the instance of tests/test_acceptance.py::test_7_optimizer,
    # at (6, 0.5, 1.25) the benchmark's arena_search arena before relabelling
    for k in range(100):
        arena = random_graph(n, p_edge, "unit", seed=40 + 1000 * k)
        if len(connected_components(arena)) == 1:
            break
    base = new_graph(n, [(i, j, w) for i, j, w in arena.edges() if 0 not in (i, j)])
    x0 = np.random.default_rng(41).uniform(0.05, 1.0, n)
    return OptimizeProblem(
        base_graph=base,
        alpha=0,
        x_alpha0=float(x0[0]),
        x0_others=tuple(float(v) for v in x0[1:]),
        horizon=horizon,
        dt=1e-2,
        equilibrium_tol=1e-9,
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

    @pytest.mark.parametrize("m", [0, 10, 12])
    def test_table_masks_spelled_as_mask_to_bits(self, m):
        """to_json_dict lists [mask_to_bits(mask), table[mask]] in mask order."""
        table = np.random.default_rng(m).random(1 << m)
        result = wta.optimize.OptimizeResult(0, 0, 0.0, 1 << m, False, "exhaustive",
                                             tuple(range(1, m + 1)), 0.0, 1.0, table)
        assert result.to_json_dict()["table"] == [[mask_to_bits(mask, m), v]
                                                  for mask, v in enumerate(table.tolist())]


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
        assert res.table[0] == p.x_alpha0
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
        p = seeded_arena_problem()
        res = exhaustive_search(p)
        scalar = [evaluate_choice(p, mask) for mask in range(256)]
        assert res.table.tolist() == scalar
        best_mask, best_value, tie = scalar_argmax(scalar)
        assert (res.best_mask, res.best_value, res.tie_break_applied) == (
            best_mask, best_value, tie)
        assert (res.value_min, res.value_max) == (min(scalar), max(scalar))

    def test_row_is_the_sweep_at_alpha_initial_value(self):
        p = seeded_arena_problem(6, 0.5, 1.25)
        row = exhaustive_search(p).table
        assert row.dtype == np.float64
        assert row.tobytes() == sweep_initial_value(p, [p.x_alpha0]).values[0].tobytes()

    def test_no_table_past_the_limit(self, monkeypatch):
        # a 5-candidate arena stands in for one past 2^16 masks: the result
        # drops its table and keeps its fold and extremes
        p = seeded_arena_problem(6, 0.5, 1.25)
        kept = exhaustive_search(p)
        monkeypatch.setattr(wta.optimize, "TABLE_LIMIT_BITS", p.num_candidates - 1)
        res = exhaustive_search(p)
        assert kept.table is not None and res.table is None
        assert (res.best_mask, res.best_value, res.tie_break_applied) == (
            kept.best_mask, kept.best_value, kept.tie_break_applied)
        assert (res.value_min, res.value_max) == (kept.value_min, kept.value_max)
        assert res.to_json_dict() == {k: v for k, v in kept.to_json_dict().items()
                                      if k != "table"}

    def test_results_compare_and_hash(self):
        p = seeded_arena_problem(6, 0.5, 1.25)
        a, b = exhaustive_search(p), exhaustive_search(p)
        assert a == b and hash(a) == hash(b)

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

    @pytest.mark.parametrize("n, p_edge, seed, restarts", [
        (3, 0.5, 0, 8), (4, 0.5, 1, 8), (5, 0.6, 2, 8), (6, 0.5, 3, 64), (7, 0.4, 4, 8),
        (8, 0.5, 5, 8), (9, 0.4, 6, 16), (9, 0.4, 6, 1), (13, 0.3, 7, 4), (6, 0.5, 8, 300),
        (40, 0.235, 2, 2)],
        ids=["3", "4", "5", "6", "7", "8", "9", "9-one-restart", "12-candidates",
             "6-past-one-window", "40-dense-and-edge"])
    def test_matches_one_mask_at_a_time(self, n, p_edge, seed, restarts, monkeypatch):
        # greedy climbs its restarts in lockstep and evaluates their asks as
        # lanes; the result must be the plain memo's to the bit (past
        # LANE_BLOCK restarts too), every call must still make a public
        # simulate call through evaluate_choice, and every lane must be a
        # mask the climbs ask for
        g = random_graph(n, p_edge, ("uniform", 0.5, 1.5) if n % 2 else "unit", seed=seed)
        x0 = np.random.default_rng(seed + 1).uniform(0.05, 1.0, n)
        p = OptimizeProblem(
            base_graph=new_graph(n, [(i, j, w) for i, j, w in g.edges() if 0 not in (i, j)]),
            alpha=0,
            x_alpha0=float(x0[0]),
            x0_others=tuple(float(v) for v in x0[1:]),
            horizon=0.3 if n == 40 else 2.0,
            candidate_weight=0.8 if n % 2 else 1.0,
            dt=1e-2,
            equilibrium_tol=1e-9,
        )
        want, asked = reference_greedy(p, restarts=restarts, seed=seed)
        calls, lanes = [], []
        evaluate, lane_values = wta.optimize.evaluate_choice, wta.optimize._lane_values
        monkeypatch.setattr(wta.optimize, "evaluate_choice",
                            lambda *args: calls.append(args) or evaluate(*args))
        monkeypatch.setattr(wta.optimize, "_lane_values", lambda p, pairs: lane_values(
            p, [lanes.append(mask) or (x0, mask) for x0, mask in pairs]))
        assert greedy_search(p, restarts=restarts, seed=seed) == want
        assert calls
        assert len(set(lanes)) == len(lanes)
        assert set(lanes) <= asked
        if n == 40:
            # masks whose own graph runs the dense kernel, which lanes would
            # change in low bits, and masks on the edge kernel
            kernels = [_field_kernel(p.graph_for_mask(mask)) for mask in asked]
            assert kernels.count("dense") >= 10 and kernels.count("edge") >= 10

    def test_end_points_fold_in_restart_order(self, monkeypatch):
        # every arena above has one local optimum, so all its restarts end on
        # one mask; on a rugged stand-in objective whose optima lie within
        # TIE_TOL of each other _fold is order-sensitive, and past
        # LANE_BLOCK restarts every end point must still fold in restart
        # order, as in the one-at-a-time reference
        rng = np.random.default_rng(0)
        table = (rng.integers(0, 4, 256) + rng.integers(0, 3, 256) * 0.6 * TIE_TOL).tolist()
        for module in (wta.optimize, conftest):
            monkeypatch.setattr(module, "evaluate_choice", lambda p, mask: table[mask])
        monkeypatch.setattr(wta.optimize, "_lane_values", lambda p, pairs: (
            table[mask] for _x0, mask in pairs))
        fold, want_ends, ends = wta.optimize._fold, [], []
        monkeypatch.setattr(conftest, "_fold",
                            lambda best, *end: want_ends.append(end) or fold(best, *end))
        p = seeded_arena_problem()  # 8 candidates: the table's 256 masks
        want, _asked = reference_greedy(p, restarts=600, seed=5)
        monkeypatch.setattr(wta.optimize, "_fold",
                            lambda best, *end: ends.append(end) or fold(best, *end))
        assert greedy_search(p, restarts=600, seed=5) == want
        assert ends == want_ends and len(set(ends)) > 10

    def test_later_start_masks_ride_the_first_block(self, monkeypatch):
        # on the benchmark's arena only the first start mask runs alone: every
        # later one is a lane of the first round's block
        p = seeded_arena_problem(6, 0.5, horizon=1.25)
        want, _asked = reference_greedy(p, restarts=64, seed=0)
        rng = np.random.default_rng(0)
        starts = [int(rng.integers(0, 1 << 5)) for _ in range(64)]
        calls, blocks = [], []
        evaluate, lane_values = wta.optimize.evaluate_choice, wta.optimize._lane_values

        def record_block(p, pairs):
            pairs = list(pairs)
            blocks.append({mask for _x0, mask in pairs})
            return lane_values(p, pairs)

        monkeypatch.setattr(wta.optimize, "evaluate_choice",
                            lambda *args: calls.append(args) or evaluate(*args))
        monkeypatch.setattr(wta.optimize, "_lane_values", record_block)
        assert greedy_search(p, restarts=64, seed=0) == want
        assert len(calls) == 1
        assert set(starts) - {starts[0]} <= blocks[0]

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


def test_searches_and_linearization_build_no_graph_text(monkeypatch):
    """The graphs a search or a linearization builds for itself leave
    hash_hex unread, so none of them spells its edges as text."""
    p = seeded_arena_problem(6, 0.5, 1.25)
    g = random_graph(6, 1.0)
    report = classify_equilibrium(g, np.ones(6))

    def no_text(*_args):
        raise AssertionError("graph text built")

    monkeypatch.setattr(wta.graph, "_edge_text", no_text)
    exhaustive_search(p)
    greedy_search(p, restarts=4)
    assert linearize_at(g, report).verdict == "unstable"


class TestSweep:
    def test_zero_initial_value_stays_zero(self):
        p = two_agent_problem(2.0, 1.0, horizon=2.0)
        sweep = sweep_initial_value(p, [0.0])
        assert sweep.values.shape == (1, 2) and (sweep.values == 0.0).all()

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
            dt=2e-2,
            equilibrium_tol=1e-9,
        )
        grid = [0.0, 0.25, 0.8, 1.6]
        sweep = sweep_initial_value(p, grid)
        assert sweep.grid == tuple(grid) and sweep.values.shape == (len(grid), 32)
        for i, x0 in enumerate(grid):
            for mask in range(32):
                assert sweep.values[i, mask] == evaluate_choice(p, mask, x_alpha0=x0)

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
        for x0, row in zip(sweep.grid, sweep.values):
            assert all(0.0 <= v <= x0 + sum(p.x0_others) + 1e-6 for v in row)
        path = tmp_path / "sweep.csv"
        sweep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_alpha0,mask,final_value"
        assert len(lines) == 1 + sweep.values.size

    @staticmethod
    def per_value_lines(sweep):
        """The sweep's CSV body, value by value: numbers as '%.17g' writes
        them, and character k of a mask its bit k."""
        width = sweep.num_candidates
        return [f"{x0:.17g},{''.join(str(mask >> k & 1) for k in range(width))},{v:.17g}"
                for x0, row in zip(sweep.grid, sweep.values.tolist())
                for mask, v in enumerate(row)]

    def test_csv_same_bytes_as_per_value_formatting(self, tmp_path):
        values = np.linspace(0.1, 2.3, 24).reshape(3, 8)
        values[0, 0], values[1, 5], values[2, 6] = -0.0, 1e300, 2.2250738585072014e-308
        sweep = SweepResult(alpha=0, grid=(0.0, 5e-324, 1 / 3), num_candidates=3,
                            values=values, others_mass=1.0)
        path = tmp_path / "sweep.csv"
        sweep.write_csv(path)
        lines = self.per_value_lines(sweep)
        assert path.read_text() == "\n".join(["x_alpha0,mask,final_value", *lines]) + "\n"
        assert lines[0] == "0,000,-0"
        assert lines[8 + 5] == "4.9406564584124654e-324,101,1.0000000000000001e+300"

    def test_csv_masks_in_blocks_same_bytes(self, tmp_path):
        """Mask text made a slice of rows at a time from the masks' bytes:
        widths 0 and 9 (two bytes), tables past one 512-row CSV chunk; an
        empty grid writes the header alone."""
        for width, points in ((0, 1500), (9, 3)):
            grid = tuple(0.5 * k for k in range(points))
            values = 1.0 / np.arange(1.0, 1 + (points << width)).reshape(points, 1 << width)
            sweep = SweepResult(alpha=0, grid=grid, num_candidates=width, values=values,
                                others_mass=1.0)
            sweep.write_csv(tmp_path / "sweep.csv")
            assert (tmp_path / "sweep.csv").read_text() == "\n".join(
                ["x_alpha0,mask,final_value", *self.per_value_lines(sweep)]) + "\n"
        empty = SweepResult(alpha=0, grid=(), num_candidates=3, values=np.empty((0, 8)),
                            others_mass=1.0)
        empty.write_csv(tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_text() == "x_alpha0,mask,final_value\n"

    def test_memory_is_one_float_an_evaluation(self):
        """A 2^16-evaluation sweep holds its table as float64: the tracemalloc
        peak stays under 4 MiB, where one tuple a row took about 9 MiB."""
        p = nine_agent_problem(horizon=0.02)  # 8 candidates x 256 grid points
        tracemalloc.start()
        try:
            sweep = sweep_initial_value(p, np.linspace(0.0, 1.5, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sweep.values.shape == (256, 256)
        assert peak < 4 * 2**20
