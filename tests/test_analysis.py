import math

import numpy as np
import pytest

from wta import (
    classify_equilibrium,
    entropy,
    linearize_at,
    new_graph,
    perturb_and_escape,
    random_graph,
    symmetric_eigenvalues,
)
from wta.errors import (
    ComponentTooSmallError,
    ConfigError,
    EmptyStateError,
    NotEuError,
    NotSymmetricError,
)


def pair():
    return new_graph(2, [(0, 1, 1.0)])


def path3():
    return new_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def triangle():
    return new_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


class TestEntropy:
    def test_uniform_is_zero(self):
        assert entropy(np.full(8, 0.5)) == 0.0
        assert entropy(np.full(7, 3.2)) < 1e-30  # mean of 3.2 is not exact

    def test_hand_values(self):
        assert entropy([1.0, 0.0]) == pytest.approx(0.25, abs=1e-15)
        assert entropy([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.1875, abs=1e-15)

    def test_scale_covariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(0, 3, rng.integers(2, 30))
            alpha = rng.uniform(0.1, 10)
            assert entropy(alpha * x) == pytest.approx(
                alpha**2 * entropy(x), rel=1e-12
            )

    def test_empty_rejected(self):
        with pytest.raises(EmptyStateError):
            entropy([])

    def test_same_bits_as_two_pass_formula(self):
        # the hand-written two-pass variance np.var replaced, as the reference
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.uniform(0, rng.uniform(0.1, 100), rng.integers(1, 300))
            dev = x - x.sum() / x.size
            assert entropy(x) == (dev * dev).sum() / x.size

    def test_past_double_range_is_inf_without_warning(self):
        # the true variance, about 6.7e399, is past the double range; the
        # suite runs with warnings as errors, so an overflow warning fails it
        assert entropy([1e200, 2e200, 0.0]) == math.inf


class TestClassify:
    def test_independent_winners(self):
        rep = classify_equilibrium(path3(), [1.0, 0.0, 1.0])
        assert rep.klass == "E_s"
        assert rep.winners == (0, 2)
        assert rep.losers == (1,)

    def test_adjacent_equal_winners(self):
        rep = classify_equilibrium(pair(), [0.8, 0.8])
        assert rep.klass == "E_u"
        assert rep.winners == (0, 1)
        assert len(rep.winner_components) == 1
        assert rep.winner_components[0][1] == pytest.approx(0.8)

    def test_origin_is_stable_class(self):
        rep = classify_equilibrium(pair(), [0.0, 0.0])
        assert rep.klass == "E_s"
        assert rep.winners == ()

    def test_large_residual(self):
        rep = classify_equilibrium(pair(), [2.0, 1.0])
        assert rep.klass == "not_equilibrium"
        assert rep.residual == pytest.approx(2.0)

    def test_adjacent_unequal_winners_with_tiny_residual(self):
        # adjacent winners at visibly different values must not be force-fit
        # into an equilibrium class even if the field is small
        g = new_graph(2, [(0, 1, 1e-12)])
        rep = classify_equilibrium(g, [1.0, 0.5])
        assert rep.klass == "not_equilibrium"

    def test_constructed_equilibria_recovered(self):
        from wta import connected_components, induced_subgraph, is_independent_set

        rng = np.random.default_rng(21)
        for trial in range(40):
            g = random_graph(9, 0.35, "unit", seed=trial)
            winners = sorted(
                rng.choice(9, size=rng.integers(1, 9), replace=False).tolist()
            )
            x = np.zeros(9)
            sub, mapping = induced_subgraph(g, winners)
            for comp in connected_components(sub):
                c = rng.uniform(0.5, 2.0)
                for i in comp:
                    x[mapping[i]] = c
            rep = classify_equilibrium(g, x)
            assert rep.winners == tuple(winners)
            expected = "E_s" if is_independent_set(g, winners) else "E_u"
            assert rep.klass == expected

    @pytest.mark.parametrize("case", ["none", "all", "isolated", "random"])
    def test_components_match_induced_subgraph(self, case):
        # the winner components against those of the induced subgraph,
        # relabeled: the construction classify_equilibrium used to run
        from wta import connected_components, induced_subgraph

        def old_components(g, x, winners):
            if not winners:
                return (), False
            sub, mapping = induced_subgraph(g, winners)
            comps = [tuple(mapping[i] for i in c) for c in connected_components(sub)]
            return tuple((c, float(x[list(c)].mean())) for c in comps), sub.num_edges > 0

        rng = np.random.default_rng(["none", "all", "isolated", "random"].index(case))
        for trial in range(15):
            g = random_graph(12, 0.3, ("uniform", 0.5, 2.0), seed=trial)
            if case == "none":
                winners = []
            elif case == "all":
                winners = list(range(g.n))
            elif case == "isolated":
                # the nodes of no edge, and one end of an edge
                winners = sorted({i for i in range(g.n) if not g.neighbors(i)}
                                 | {g.edges()[0][0]})
            else:
                winners = np.flatnonzero(rng.random(g.n) < 0.5).tolist()
            # an equilibrium: each winner component at one value
            x = np.zeros(g.n)
            for nodes, _c in old_components(g, x, winners)[0]:
                x[list(nodes)] = rng.uniform(0.5, 2.0)
            want, winner_edge = old_components(g, x, winners)
            rep = classify_equilibrium(g, x)
            assert rep.winners == tuple(winners)
            assert rep.losers == tuple(sorted(set(range(g.n)) - set(winners)))
            assert rep.winner_components == want
            assert rep.klass == ("E_u" if winner_edge else "E_s")
            # off equilibrium the components and their means are the same
            noisy = x * rng.uniform(0.9, 1.1, g.n)
            rep = classify_equilibrium(g, noisy)
            assert rep.winner_components == old_components(g, noisy, winners)[0]
            assert rep.klass == ("not_equilibrium" if winner_edge else "E_s")

    def test_json_round_trip(self):
        import json

        rep = classify_equilibrium(path3(), [1.0, 0.0, 1.0])
        d = json.loads(json.dumps(rep.to_json_dict()))
        assert d["class"] == "E_s"
        assert d["zero_tol"] == 1e-8


class TestEigensolver:
    def test_diagonal(self):
        assert np.allclose(
            symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0]
        )

    def test_two_by_two_closed_form(self):
        assert np.allclose(
            symmetric_eigenvalues([[1.0, -1.0], [-1.0, 1.0]]), [0.0, 2.0],
            atol=1e-12,
        )

    def test_zero_matrix(self):
        assert np.array_equal(symmetric_eigenvalues(np.zeros((4, 4))), np.zeros(4))

    def test_empty_matrix_has_no_eigenvalues(self):
        assert symmetric_eigenvalues(np.zeros((0, 0))).shape == (0,)

    def test_against_numpy_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = rng.integers(2, 12)
            a = rng.standard_normal((n, n))
            m = a + a.T
            mine = symmetric_eigenvalues(m)
            ref = np.linalg.eigvalsh(m)
            assert np.abs(mine - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())
            fro = np.sqrt((m * m).sum())
            assert abs(mine.sum() - np.trace(m)) <= 1e-10 * max(fro, 1.0)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


class TestLinearization:
    def test_edge_spectrum(self):
        g = pair()
        rep = classify_equilibrium(g, [1.5, 1.5])
        spec = linearize_at(g, rep)
        assert np.allclose(spec.eigenvalues, [0.0, 4.5], atol=1e-10)
        assert spec.verdict == "unstable"

    def test_triangle_spectrum(self):
        g = triangle()
        rep = classify_equilibrium(g, [1.0, 1.0, 1.0])
        spec = linearize_at(g, rep)
        assert np.allclose(spec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-10)
        assert spec.verdict == "unstable"

    def test_path_spectrum(self):
        g = path3()
        rep = classify_equilibrium(g, [1.0, 1.0, 1.0])
        spec = linearize_at(g, rep)
        assert np.allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)
        assert spec.verdict == "unstable"

    def test_requires_unstable_class(self):
        g = path3()
        rep = classify_equilibrium(g, [1.0, 0.0, 1.0])
        with pytest.raises(NotEuError):
            linearize_at(g, rep)

    def test_component_too_small(self):
        # winners {0,1} adjacent plus isolated winner {3}: component 1 is a singleton
        g = new_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        rep = classify_equilibrium(g, [1.0, 1.0, 0.0, 0.7])
        assert rep.klass == "E_u"
        with pytest.raises(ComponentTooSmallError):
            linearize_at(g, rep, component_index=1)


class TestEscape:
    def test_edge_escape_to_single_winner(self):
        report = perturb_and_escape(pair(), [1.0, 1.0], magnitude=1e-4, seed=3)
        assert report.escaped
        final = np.array(report.final_state)
        # mass 2 conserved; the perturbed larger agent takes everything
        assert min(np.abs(final - [2.0, 0.0]).max(),
                   np.abs(final - [0.0, 2.0]).max()) < 1e-4
        assert report.final_class == "E_s"

    def test_triangle_escape(self):
        report = perturb_and_escape(triangle(), [1.0, 1.0, 1.0], seed=5)
        assert report.escaped
        assert report.final_class == "E_s"
        final = np.array(report.final_state)
        assert final.max() == pytest.approx(3.0, abs=1e-4)
        assert np.sort(final)[:2].max() < 1e-4

    def test_zero_magnitude_does_not_escape(self):
        report = perturb_and_escape(pair(), [1.0, 1.0], magnitude=0.0, seed=1)
        assert not report.escaped

    def test_requires_unstable_class(self):
        with pytest.raises(NotEuError):
            perturb_and_escape(path3(), [1.0, 0.0, 1.0])

    def test_mass_preserving_perturbation(self):
        # escape must not be attributable to a mass change
        report = perturb_and_escape(triangle(), [1.0, 1.0, 1.0], seed=9)
        assert sum(report.final_state) == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_small_winner_bounds_the_default_magnitude(self, seed):
        # an isolated winner below 1e-4 times the largest: the default
        # magnitude shrinks to it, so no winner is clipped at zero and the
        # perturbation adds no mass
        g = new_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        report = perturb_and_escape(g, [1.0, 1.0, 1.0, 1e-6], seed=seed)
        assert report.delta == 1e-6
        assert sum(report.final_state) == pytest.approx(3.000001, abs=1e-12)

    def test_magnitude_up_to_the_smallest_winner(self):
        # the bound is inclusive; one past it would clip a winner at zero
        report = perturb_and_escape(triangle(), [0.5, 0.5, 0.5], magnitude=0.5)
        assert sum(report.final_state) == pytest.approx(1.5, abs=1e-12)
        with pytest.raises(ConfigError, match="smallest winner"):
            perturb_and_escape(triangle(), [0.5, 0.5, 0.5], magnitude=0.5000001)
