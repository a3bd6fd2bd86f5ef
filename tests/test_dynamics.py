import numpy as np
import pytest

from wta import (
    check_interactions,
    interaction_from_names,
    laplacian,
    new_graph,
    random_graph,
    reverse_vector_field,
    vector_field,
)
import wta.dynamics
from wta.dynamics import (
    DENSE_MIN_N,
    PAIRED_MIN_ENTRIES,
    InteractionSpec,
    _field,
    _field_kernel,
    prepare_state,
)
from wta.errors import DimensionMismatchError, NegativeStateError

from conftest import _edge_field


def pair():
    return new_graph(2, [(0, 1, 1.0)])


def generalized_field(g, x, spec):
    """dx_i = sum_j a_ij f(x_i - x_j) g(x_i, x_j), the field simulate runs
    under spec."""
    return _field(g, spec)(prepare_state(x, g.n))


class TestVectorField:
    def test_hand_substitution_two_agents(self):
        # (x0 - x1) x0 x1 = (2-1)*2*1 = 2
        dx = vector_field(pair(), [2.0, 1.0])
        assert dx[0] == pytest.approx(2.0, abs=1e-15)
        assert dx[1] == pytest.approx(-2.0, abs=1e-15)

    def test_uniform_state_is_fixed(self):
        g = random_graph(8, 0.6, "unit", seed=2)
        dx = vector_field(g, np.full(8, 0.7))
        assert np.all(dx == 0.0)

    def test_boundary_stasis_exact(self):
        g = random_graph(8, 0.6, "unit", seed=3)
        x = np.random.default_rng(4).uniform(0, 1, 8)
        x[3] = 0.0
        assert vector_field(g, x)[3] == 0.0

    def test_zero_sum(self):
        for trial in range(50):
            g = random_graph(15, 0.4, ("uniform", 0.2, 2.0), seed=trial)
            x = np.random.default_rng(trial + 100).uniform(0, 1, 15)
            dx = vector_field(g, x)
            scale = np.abs(dx).max()
            assert abs(dx.sum()) <= 1e-10 * g.n * max(scale, 1e-300)

    @pytest.mark.parametrize("field", [
        vector_field,
        reverse_vector_field,
        lambda g, x: generalized_field(g, x, interaction_from_names("cubic")),
        lambda g, x: generalized_field(g, x, interaction_from_names()),
    ], ids=["forward", "reverse", "generalized-cubic", "generalized-default"])
    def test_edgeless_graph_field_is_float_zeros(self, field):
        # np.bincount over no edges returns integers; the field must not
        dx = field(new_graph(3, []), [1.0, 2.0, 3.0])
        assert dx.dtype == np.float64 and dx.tolist() == [0.0, 0.0, 0.0]

    def test_lanes_without_edges_give_float_zeros(self):
        dx = _field(pair(), keep=np.zeros((2, 1), dtype=bool))(np.ones(4))
        assert dx.dtype == np.float64 and dx.tolist() == [0.0] * 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            vector_field(pair(), [1.0, 2.0, 3.0])

    def test_negative_state_rejected_but_roundoff_clamped(self):
        with pytest.raises(NegativeStateError):
            vector_field(pair(), [1.0, -1e-9])
        dx = vector_field(pair(), [1.0, -1e-13])  # inside the clamp window
        assert np.all(dx == 0.0)

    def test_equilibrium_states_have_zero_field(self):
        # winners positive and equal across winner-winner edges, losers zero
        rng = np.random.default_rng(9)
        for trial in range(30):
            g = random_graph(10, 0.35, "unit", seed=trial)
            from wta import connected_components, induced_subgraph

            winners = sorted(
                rng.choice(10, size=rng.integers(1, 10), replace=False).tolist()
            )
            x = np.zeros(10)
            sub, mapping = induced_subgraph(g, winners)
            for comp in connected_components(sub):
                c = rng.uniform(0.5, 2.0)
                for i in comp:
                    x[mapping[i]] = c
            assert np.abs(vector_field(g, x)).max() <= 1e-12


class TestReverseField:
    def test_negation_of_forward_example(self):
        dy = reverse_vector_field(pair(), [2.0, 1.0])
        assert dy[0] == -2.0 and dy[1] == 2.0

    def test_bit_exact_negation(self):
        for trial in range(30):
            g = random_graph(12, 0.5, ("uniform", 0.1, 3.0), seed=trial)
            y = np.random.default_rng(trial).uniform(0, 2, 12)
            assert np.array_equal(reverse_vector_field(g, y), -vector_field(g, y))

    def test_boundary_stasis_in_reverse(self):
        g = random_graph(6, 0.8, "unit", seed=1)
        y = np.random.default_rng(2).uniform(0.1, 1, 6)
        y[0] = 0.0
        assert reverse_vector_field(g, y)[0] == 0.0


class TestLaplacian:
    def test_hand_two_agent(self):
        L = laplacian(pair(), [2.0, 1.0])
        assert np.array_equal(L, np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert np.array_equal(-L @ np.array([2.0, 1.0]), np.array([-2.0, 2.0]))

    def test_zero_state(self):
        assert not laplacian(pair(), [0.0, 0.0]).any()

    def test_same_bits_as_the_weight_matrix_form(self):
        for trial in range(50):
            g = random_graph(12, 0.4, ("uniform", 0.2, 2.0), seed=trial)
            y = np.random.default_rng(trial + 1).uniform(0, 2, 12)
            y[::5] = 0.0
            ref = -(g.weights * np.outer(y, y))
            np.fill_diagonal(ref, 0.0)
            np.fill_diagonal(ref, -ref.sum(axis=1))
            assert laplacian(g, y).tobytes() == ref.tobytes()

    def test_finite_where_only_non_neighbours_overflow(self):
        # y_0 * y_1 overflows, but agents 0 and 1 are not neighbours
        g = new_graph(3, [(0, 2, 1.0), (1, 2, 1.0)])
        L = laplacian(g, [1e200, 1e200, 1e-200])
        assert L.tolist() == [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]]

    def test_row_sums_and_reverse_identity(self):
        for trial in range(100):
            g = random_graph(12, 0.4, ("uniform", 0.2, 2.0), seed=trial)
            y = np.random.default_rng(trial + 1).uniform(0, 2, 12)
            L = laplacian(g, y)
            assert np.abs(L.sum(axis=1)).max() <= 1e-12
            assert np.array_equal(L, L.T)
            assert np.all(L - np.diag(np.diag(L)) <= 0.0)
            diff = np.abs(-L @ y - reverse_vector_field(g, y))
            assert diff.max() <= 1e-12 * g.n * max(np.abs(y).max(), 1e-300)


class TestGeneralized:
    def test_default_spec_bit_identical(self):
        spec = interaction_from_names()
        for trial in range(1000):
            g = random_graph(8, 0.5, ("uniform", 0.1, 2.0), seed=trial)
            x = np.random.default_rng(trial).uniform(0, 1.5, 8)
            assert np.array_equal(
                generalized_field(g, x, spec), vector_field(g, x)
            )

    def test_cubic_hand_substitution(self):
        spec = interaction_from_names("cubic", "product")
        dx = generalized_field(pair(), [2.0, 1.0], spec)
        assert dx[0] == pytest.approx(2.0, abs=1e-15)  # 1^3 * 2 * 1

    def test_uniform_state_fixed_for_any_valid_spec(self):
        for f, gname in [("identity", "product"), ("cubic", "scaled_product"),
                         ("tanh", "product")]:
            spec = interaction_from_names(f, gname)
            g = random_graph(7, 0.7, "unit", seed=5)
            dx = generalized_field(g, np.full(7, 1.3), spec)
            assert np.all(dx == 0.0)


    def test_custom_f_reusing_one_buffer(self, paired_builds):
        # f writes into one preallocated buffer on every call and hands it
        # back read-only: a kernel that worked in place on what f returns
        # would raise, and one that kept it would read a later call's values
        g = sparse_large(weighted=True)
        buf = np.empty(g.edge_src.size)

        def cube(a):
            buf.setflags(write=True)
            np.multiply(a, a, out=buf)
            np.multiply(buf, a, out=buf)
            buf.setflags(write=False)
            return buf

        spec = InteractionSpec(cube, lambda u, v: u * v)
        field = _field(g, spec)
        states = list(hard_states(g.n, 4, seed=9))
        refs = [_edge_field(g.edge_src, g.edge_dst, g.edge_w, x, cube, spec.g) for x in states]
        for x, ref in [*zip(states, refs), *zip(states, refs)]:
            assert field(x).tobytes() == ref.tobytes()
        assert paired_builds == []


def dense_graphs():
    """Graphs the dense kernel evaluates: n >= 32 at a fill the rule accepts."""
    for n, p, weights in [
        (32, 0.6, "unit"),
        (32, 1.0, ("uniform", 0.1, 2.0)),
        (64, 0.3, "unit"),
        (64, 0.5, ("uniform", 0.5, 1.5)),
        (100, 0.8, "unit"),
        (100, 0.8, ("uniform", 0.2, 3.0)),
    ]:
        g = random_graph(n, p, weights, seed=n)
        assert _field_kernel(g) == "dense"
        yield g


class TestDenseKernel:
    def test_agrees_with_edge_kernel(self):
        for g in dense_graphs():
            degree = g.weights.sum(axis=1).max()
            rng = np.random.default_rng(g.n)
            states = [rng.uniform(0, 1.5, g.n), rng.uniform(0, 100, g.n),
                      np.full(g.n, 0.7), np.full(g.n, 3.0)]
            for x in states:
                edge = _edge_field(g.edge_src, g.edge_dst, g.edge_w, x)
                dense = vector_field(g, x)
                tol = 1e-12 * np.abs(x).max() ** 3 * degree
                assert np.abs(dense - edge).max() <= tol

    def test_zero_stays_zero_exactly(self):
        for g in dense_graphs():
            x = np.random.default_rng(g.n + 1).uniform(0.1, 1, g.n)
            x[::7] = 0.0
            for dx in (vector_field(g, x), reverse_vector_field(g, x)):
                assert np.all(dx[::7] == 0.0)
            assert not np.signbit(vector_field(g, x)[::7]).any()

    def test_reverse_laplacian_identity(self):
        for g in dense_graphs():
            y = np.random.default_rng(g.n + 2).uniform(0, 2, g.n)
            rev = reverse_vector_field(g, y)
            assert np.array_equal(rev, -vector_field(g, y))
            diff = np.abs(-laplacian(g, y) @ y - rev)
            assert diff.max() <= 1e-12 * g.n * np.abs(y).max()

    def test_default_spec_bit_identical_on_dense_graph(self):
        spec = interaction_from_names()
        for trial in range(20):
            g = random_graph(100, 0.8, ("uniform", 0.1, 2.0), seed=trial)
            assert _field_kernel(g, spec) == "dense"
            x = np.random.default_rng(trial).uniform(0, 1.5, 100)
            assert np.array_equal(
                generalized_field(g, x, spec), vector_field(g, x)
            )

    def test_generalized_specs_stay_on_edge_kernel(self):
        g = random_graph(100, 0.8, "unit", seed=3)
        spec = interaction_from_names("cubic", "product")
        assert _field_kernel(g, spec) == "edge"
        x = np.random.default_rng(4).uniform(0, 1, 100)
        assert np.array_equal(
            generalized_field(g, x, spec),
            _edge_field(g.edge_src, g.edge_dst, g.edge_w, x, spec.f, spec.g),
        )

    def test_small_and_sparse_graphs_use_edge_kernel(self):
        for n in range(1, DENSE_MIN_N):
            assert _field_kernel(random_graph(n, 1.0, "unit", seed=0)) == "edge"
        # the sparse_large benchmark shape: n=1000, mean degree 5
        assert _field_kernel(random_graph(1000, 5 / 999, "unit", seed=0)) == "edge"

    def test_optimizer_arenas_are_below_the_dense_size(self):
        # exhaustive and sweep lanes run the edge kernel, so evaluate_choice
        # must too on their arenas (at most 25 agents) to stay bit-identical
        # to them; greedy arenas have no agent bound and may use the dense one
        from wta.optimize import EXHAUSTIVE_GUARD_BITS

        assert EXHAUSTIVE_GUARD_BITS + 1 < DENSE_MIN_N


def sparse_large(weighted=False):
    """The sparse_large benchmark shape, n=1000 at mean degree 5, about 5000
    directed entries; weighted, the same edges with weights in [0.2, 3)."""
    g = random_graph(1000, 5 / 999, "unit", seed=0)
    if not weighted:
        return g
    w = np.random.default_rng(1).uniform(0.2, 3.0, g.num_edges)
    return new_graph(g.n, [(i, j, wt) for (i, j, _), wt in zip(g.edges(), w.tolist())])


def hard_states(n, count, seed):
    """States with exact zeros, subnormals and runs of equal entries: terms
    that are zeros of either sign, and products that round to subnormals."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        x = rng.uniform(0.0, 2.0, n)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.05] = 5e-324 * rng.integers(1, 1000)
        x[rng.random(n) < 0.05] = 1e-310
        if k % 2:
            x[rng.random(n) < 0.3] = 0.7
        yield x


class TestPairedKernel:
    """Edge arrays of at least PAIRED_MIN_ENTRIES entries compute each
    edge's term once for both entries, with the bits of the plain sum."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_same_bits_as_edge_field(self, weighted, reverse, paired_builds):
        g = sparse_large(weighted)
        assert g.edge_src.size >= PAIRED_MIN_ENTRIES and _field_kernel(g) == "edge"
        f = _field(g, reverse=reverse)
        assert paired_builds == [g.edge_src.size]
        for x in hard_states(g.n, 30, seed=2 + weighted):
            ref = _edge_field(g.edge_src, g.edge_dst, g.edge_w, x)
            assert f(x).tobytes() == (-ref if reverse else ref).tobytes()

    def test_lane_block_same_bits_as_edge_field(self, paired_builds):
        g = sparse_large(weighted=True)
        rng = np.random.default_rng(3)
        # each lane keeps a random set of edges; the reference lays the
        # lanes out one after another, each lane's entries in g's order
        r = rng.random((3, g.n))
        m = g.num_edges
        keep = r[:, g.edge_src[m:]] + r[:, g.edge_dst[m:]] < 1.6
        both = np.hstack((keep, keep))
        offset = g.n * np.arange(3)[:, None]
        src, dst = (g.edge_src + offset)[both], (g.edge_dst + offset)[both]
        w = np.broadcast_to(g.edge_w, both.shape)[both]
        f = _field(g, keep=keep)
        assert paired_builds == [src.size]
        for x in hard_states(3 * g.n, 5, seed=4):
            assert f(x).tobytes() == _edge_field(src, dst, w, x).tobytes()

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
    def test_all_equal_state_sums_to_positive_zero(self, weighted, paired_builds):
        # every term is zero, and each a's term is the negation of b's, so
        # -0.0 where the unpaired closure has +0.0: the sums must not see it
        g = sparse_large(weighted)
        x = np.full(g.n, 0.5)
        f = _field(g)
        assert paired_builds == [g.edge_src.size]
        field = f(x)
        assert field.tobytes() == _edge_field(g.edge_src, g.edge_dst, g.edge_w, x).tobytes()
        assert field.tobytes() == np.zeros(g.n).tobytes()

    def test_rule_is_inclusive(self, monkeypatch, paired_builds):
        g = random_graph(12, 0.5, ("uniform", 0.2, 2.0), seed=5)
        entries = g.edge_src.size
        x = np.random.default_rng(6).uniform(0.0, 1.0, g.n)
        ref = _edge_field(g.edge_src, g.edge_dst, g.edge_w, x)
        for rule, paired in [(entries + 1, False), (entries, True)]:
            monkeypatch.setattr(wta.dynamics, "PAIRED_MIN_ENTRIES", rule)
            paired_builds.clear()
            assert vector_field(g, x).tobytes() == ref.tobytes()
            assert paired_builds == ([entries] if paired else [])


class TestCheckInteractions:
    def test_default_passes(self):
        assert check_interactions(interaction_from_names()).passed

    @pytest.mark.parametrize("f", ["cubic", "tanh"])
    def test_value_past_double_range_is_a_violation(self, f):
        # at samples near 1e200, a**3 raises OverflowError on a Python
        # float and u * v is inf; the check reports the first sample
        report = check_interactions(interaction_from_names(f, "product"), 4, (0, 1e200))
        assert not report.passed and len(report.violations) == 1
        a = np.random.default_rng(0).uniform(0, 1e200)
        assert "double range" in report.violations[0] and f"a={a}," in report.violations[0]

    def test_builtins_pass(self):
        for f in ("identity", "cubic", "tanh"):
            for gname in ("product", "scaled_product"):
                assert check_interactions(interaction_from_names(f, gname)).passed

    def test_even_f_fails_oddness(self):
        spec = InteractionSpec(lambda a: a**2, lambda u, v: u * v)
        report = check_interactions(spec)
        assert not report.passed
        assert "odd" in report.violations[0]

    def test_additive_g_fails_boundary(self):
        spec = InteractionSpec(lambda a: a, lambda u, v: u + v)
        report = check_interactions(spec)
        assert not report.passed
