import dataclasses
import io
import json
import time
import tracemalloc

import numpy as np
import pytest

import wta.graph
from wta import (
    connected_components,
    dump_graph,
    graph_from_json_dict,
    induced_subgraph,
    is_independent_set,
    load_graph,
    new_graph,
    random_graph,
)
from wta.errors import (
    ConfigError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidProbabilityError,
    NonpositiveWeightError,
    SelfLoopError,
    WtaError,
)

from conftest import edge_text, graph_to_json_dict


def path3():
    return new_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def triangle():
    return new_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


class TestConstruction:
    def test_single_edge(self):
        g = new_graph(2, [(0, 1, 1.0)])
        assert g.weights[0, 1] == 1.0
        assert g.weights[1, 0] == 1.0
        assert g.weights[0, 0] == 0.0 and g.weights[1, 1] == 0.0

    def test_empty_graph(self):
        g = new_graph(3, [])
        assert not g.weights.any()
        assert g.num_edges == 0

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            new_graph(3, [(0, 0, 1.0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NonpositiveWeightError):
            new_graph(2, [(0, 1, 0.0)])
        with pytest.raises(NonpositiveWeightError):
            new_graph(2, [(0, 1, -2.0)])

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            new_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
        # identical re-specification is tolerated
        g = new_graph(2, [(0, 1, 1.0), (1, 0, 1.0)])
        assert g.num_edges == 1

    @pytest.mark.parametrize("w", [float("inf"), float("nan")])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(WtaError):
            new_graph(2, [(0, 1, w)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            new_graph(2, [(0, 2, 1.0)])

    @pytest.mark.parametrize("n, edges", [
        (True, []),
        (2**20 + 1, []),
        (2, [(0, True, 1.0)]),
        (2, [(0.0, 1, 1.0)]),
        (2, [(0, 1, "2.5")]),
        (2, [(0, 1, True)]),
        (2, [(0, 1, 10**400)]),
        (2, [(0, 1, float("-inf"))]),
    ])
    def test_bad_input_is_config_error(self, n, edges):
        with pytest.raises(ConfigError):
            new_graph(n, edges)

    def test_matrix_and_adjacency_agree(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            g = random_graph(8, 0.5, ("uniform", 0.1, 2.0), seed=trial)
            for i in range(g.n):
                nbrs = dict(g.neighbors(i))
                for j in range(g.n):
                    assert nbrs.get(j, 0.0) == g.weights[i, j]
            assert np.array_equal(g.weights, g.weights.T)


class TestInducedSubgraph:
    def test_endpoints_must_both_lie_inside(self):
        sub, mapping = induced_subgraph(path3(), [0, 2])
        assert mapping == (0, 2)
        assert sub.num_edges == 0

    def test_identity(self):
        g = triangle()
        sub, mapping = induced_subgraph(g, range(3))
        assert mapping == (0, 1, 2)
        assert np.array_equal(sub.weights, g.weights)

    def test_keeps_internal_edge_and_weight(self):
        g = new_graph(3, [(0, 1, 1.0), (1, 2, 2.5), (0, 2, 1.0)])
        sub, mapping = induced_subgraph(g, [1, 2])
        assert mapping == (1, 2)
        assert sub.weights[0, 1] == 2.5

    @pytest.mark.parametrize("nodes", [[1.7], [True], ["1"]])
    def test_non_integer_node_rejected(self, nodes):
        with pytest.raises(ConfigError):
            induced_subgraph(path3(), nodes)

    def test_composition(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            g = random_graph(10, 0.4, "unit", seed=trial)
            s1 = sorted(rng.choice(10, size=7, replace=False).tolist())
            s2_local = sorted(rng.choice(7, size=4, replace=False).tolist())
            sub1, map1 = induced_subgraph(g, s1)
            sub12, map12 = induced_subgraph(sub1, s2_local)
            s_direct = [map1[i] for i in s2_local]
            direct, map_d = induced_subgraph(g, s_direct)
            assert map_d == tuple(sorted(s_direct))
            assert np.array_equal(sub12.weights, direct.weights)


class TestComponents:
    def test_connected_path(self):
        assert connected_components(path3()) == [(0, 1, 2)]

    def test_isolated_nodes(self):
        assert connected_components(new_graph(3, [])) == [(0,), (1,), (2,)]

    def test_two_pairs(self):
        g = new_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert connected_components(g) == [(0, 1), (2, 3)]

    def test_partition_against_bfs_oracle(self):
        for trial in range(25):
            g = random_graph(12, 0.18, "unit", seed=trial)
            comps = connected_components(g)
            # partition: disjoint and covering
            flat = [i for c in comps for i in c]
            assert sorted(flat) == list(range(g.n))
            # oracle: naive reachability by matrix powers
            reach = (g.weights > 0).astype(int) + np.eye(g.n, dtype=int)
            closure = np.linalg.matrix_power(reach, g.n) > 0
            for comp in comps:
                for i in comp:
                    assert set(np.nonzero(closure[i])[0].tolist()) == set(comp)
            # no positive edge between distinct components
            label = {}
            for k, comp in enumerate(comps):
                for i in comp:
                    label[i] = k
            for i, j, _w in g.edges():
                assert label[i] == label[j]


def layout_graphs():
    """Graphs from every builder: random unit and uniform, edgeless, one
    agent, induced subgraphs and the optimizer's per-mask graphs."""
    from wta import OptimizeProblem

    uniform = random_graph(25, 0.4, ("uniform", 0.2, 1.5), seed=3)
    base = new_graph(6, [(i, j, w) for i, j, w in random_graph(6, 0.6, seed=4).edges()
                         if 2 not in (i, j)])
    problem = OptimizeProblem(base_graph=base, alpha=2, x_alpha0=1.0,
                              x0_others=(1.0,) * 5, horizon=1.0, candidate_weight=0.5)
    return {
        "unit": random_graph(30, 0.2, "unit", seed=2),
        "uniform": uniform,
        "edgeless": new_graph(5, []),
        "one-agent": new_graph(1, []),
        "induced": induced_subgraph(uniform, range(3, 25, 2))[0],
        "induced-all": induced_subgraph(uniform, range(25))[0],
        **{f"mask-{k}": problem.graph_for_mask(k) for k in (0, 0b10110, 0b11111)},
    }


class TestPairMajorLayout:
    @pytest.mark.parametrize("g", [pytest.param(g, id=name)
                                   for name, g in layout_graphs().items()])
    def test_layout(self, g):
        src, dst, w, m = g.edge_src, g.edge_dst, g.edge_w, g.num_edges
        assert src.size == dst.size == w.size == 2 * m
        # entries k and m + k are the two directions of one edge
        assert np.array_equal(src[:m], dst[m:]) and np.array_equal(dst[:m], src[m:])
        assert np.array_equal(w[:m], w[m:])
        # the upper half is the edge list i < j in row-major order
        i, j = np.nonzero(np.triu(g.weights))
        assert np.array_equal(src[m:], i) and np.array_equal(dst[m:], j)
        assert np.array_equal(w[m:], g.weights[i, j])
        assert (src[m:] < dst[m:]).all()
        assert g.edges() == list(zip(i.tolist(), j.tolist(), w[m:].tolist()))
        # each node's entries, in array order, list its neighbours ascending
        for a in range(g.n):
            assert dst[src == a].tolist() == np.flatnonzero(g.weights[a]).tolist()


class TestIndependentSet:
    def test_path_ends(self):
        assert is_independent_set(path3(), [0, 2])

    def test_adjacent_pair(self):
        assert not is_independent_set(path3(), [0, 1])

    def test_empty_set_vacuous(self):
        assert is_independent_set(triangle(), [])


class TestRandomGraph:
    def test_p_zero_empty(self):
        assert random_graph(6, 0.0, "unit", seed=9).num_edges == 0

    def test_p_one_complete_unit(self):
        g = random_graph(4, 1.0, "unit", seed=1)
        expect = np.ones((4, 4)) - np.eye(4)
        assert np.array_equal(g.weights, expect)

    def test_determinism(self):
        a = random_graph(10, 0.5, ("uniform", 0.5, 1.5), seed=42)
        b = random_graph(10, 0.5, ("uniform", 0.5, 1.5), seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert a.hash_hex == b.hash_hex

    def test_equality_and_hash_follow_hash_hex(self):
        a = random_graph(5, 0.5, "unit", 1)
        b = random_graph(5, 0.5, "unit", 1)
        c = random_graph(5, 0.5, "unit", 2)
        assert a == b and hash(a) == hash(b)
        assert a != c and a.hash_hex != c.hash_hex
        assert len({a, b, c}) == 2
        assert a != a.hash_hex

    def test_bad_probability(self):
        with pytest.raises(InvalidProbabilityError):
            random_graph(3, 1.5, "unit", seed=0)

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, 10**10])
    def test_bad_agent_count(self, n):
        with pytest.raises(ConfigError):
            random_graph(n, 0.5, "unit", seed=0)

    @pytest.mark.parametrize("weights", ["unit", ("uniform", 0.5, 1.5)])
    def test_expected_edge_count_is_bounded(self, weights, monkeypatch):
        # 5.5e11 expected edges: refused before the first draw
        with pytest.raises(ConfigError, match="expects"):
            random_graph(wta.graph.MAX_AGENTS, 1.0, weights, seed=0)
        # the cap is on n(n - 1)/2 * p, inclusive
        monkeypatch.setattr(wta.graph, "MAX_EXPECTED_EDGES", 10)
        assert random_graph(5, 1.0, weights, seed=0).num_edges == 10
        assert random_graph(6, 10 / 15, weights, seed=0).n == 6
        with pytest.raises(ConfigError, match="expects"):
            random_graph(6, 1.0, weights, seed=0)

    @pytest.mark.parametrize("args", [(2**20, 1e-5), (92683, 1e-4, ("uniform", 0.5, 1.5))])
    def test_pair_count_is_refused_before_any_draw(self, args, monkeypatch):
        # within the expected-edge cap, but 5.5e11 and 4.3e9 pairs to visit:
        # half an hour and about 25 s of drawing
        def no_draw(seed):
            raise AssertionError("random_graph seeded a generator")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="pairs"):
            random_graph(*args)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("weights", ["unit", ("uniform", 0.5, 1.5)])
    def test_pair_cap_is_inclusive(self, weights, monkeypatch):
        # one cap for both modes
        monkeypatch.setattr(wta.graph, "MAX_PAIRS", 10)
        assert random_graph(5, 1.0, weights, seed=0).num_edges == 10
        with pytest.raises(ConfigError, match="pairs"):
            random_graph(6, 0.1, weights, seed=0)

    # hashes recorded from the dense-matrix generator that drew one pair at
    # a time; a changed stream or edge order changes them
    @pytest.mark.parametrize("args, digest", [
        ((1000, 5 / 999, "unit", 0),
         "6f3d0f2ff2de582a06d2d109510ba5520dba37fff9815e836babee89df4dc0f5"),
        ((1000, 5 / 999, "unit", 3),
         "f5b6995c4509278c657026b1cf16b5e82d3088323cd253531888ee3d97c2914b"),
        ((100, 0.8),
         "9263861569a9f23a8a0b1b471604850c4f6b081aeae262196d19eb86ca9dd442"),
        ((40, 0.5, ("uniform", 0.2, 1.5), 9),
         "4f0c22a9a14645ef52f229f740ffddc233b77178210158b8f8c137f610e1a05f"),
        ((10, 0.0, "unit", 2),
         "4a44dc15364204a80fe80e9039455cc1608281820fe2b24f1e5233ade6af1dd5"),
        ((10, 1.0, "unit", 2),
         "cc338da4232768f9ed31735da4042f5916adfa03ca2112c0dc5ecadf3df41961"),
        ((1, 0.5, "unit", 0),
         "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    ])
    def test_hash_pinned(self, args, digest):
        assert random_graph(*args).hash_hex == digest

    @pytest.mark.parametrize("chunk", [1, 999])
    def test_hash_chunk_size_keeps_digest(self, monkeypatch, chunk):
        whole = random_graph(100, 0.8)
        whole.hash_hex  # computed on first read: read it at the default chunk
        monkeypatch.setattr(wta.graph, "_TEXT_CHUNK", chunk)
        assert random_graph(100, 0.8).hash_hex == whole.hash_hex

    @pytest.mark.parametrize("chunk", [1, 999, 4096])
    def test_chunk_size_keeps_stream(self, monkeypatch, chunk):
        for mode in ["unit", ("uniform", 0.2, 1.5)]:
            whole = random_graph(300, 0.02, mode, seed=4)
            monkeypatch.setattr(wta.graph, "_DRAW_CHUNK", chunk)
            chunked = random_graph(300, 0.02, mode, seed=4)
            monkeypatch.undo()
            assert chunked.hash_hex == whole.hash_hex
            assert np.array_equal(chunked.edge_dst, whole.edge_dst)

    @staticmethod
    def one_pair_at_a_time(n, p, lo, hi, seed):
        """The uniform mode as a loop over the pairs: one draw a pair, and
        one more for the weight of a pair it includes."""
        rng = np.random.default_rng(seed)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, rng.uniform(lo, hi)))
        return new_graph(n, edges)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 2**16])
    def test_uniform_matches_one_pair_at_a_time(self, monkeypatch, chunk):
        monkeypatch.setattr(wta.graph, "_DRAW_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        # (3, 0.5, seed 0) draws 0.637, 0.270, 0.041, 0.017, 0.813: pair 1
        # hits with weight 0.041 and the final pair 2 with weight 0.813, so
        # chunks of 1-3 end on a hit's pair draw, and the last weight is one
        # draw past the pairs
        cases = [(3, 0.5, 0)] + [(n, p, 1) for n in (1, 2, 9) for p in (0.0, 1.0)]
        cases += [(int(rng.integers(2, 40)), float(rng.random()), t) for t in range(30)]
        for n, p, seed in cases:
            lo = float(rng.uniform(0.1, 2.0))
            hi = lo + float(rng.uniform(0.0, 3.0))
            g = random_graph(n, p, ("uniform", lo, hi), seed)
            want = self.one_pair_at_a_time(n, p, lo, hi, seed)
            assert g.hash_hex == want.hash_hex, (n, p, lo, hi, seed)
            assert np.array_equal(g.edge_src, want.edge_src)
        assert [(i, j) for i, j, _w in random_graph(3, 0.5, ("uniform", 1, 2)).edges()] == [
            (0, 2), (1, 2)]

    def test_draw_peak_memory(self):
        # the doubles of one draw, not of the whole graph, are held at once;
        # the first call imports numpy.random, which is not the draw's memory
        random_graph(1000, 5 / 999)
        tracemalloc.start()
        try:
            random_graph(1000, 5 / 999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_queries_against_dense_oracle(self):
        rng = np.random.default_rng(5)
        for trial, (n, p) in enumerate([(30, 0.1), (25, 0.4), (40, 0.05)]):
            mode = "unit" if trial % 2 == 0 else ("uniform", 0.2, 1.5)
            g = random_graph(n, p, mode, seed=trial)
            a = g.weights
            assert np.array_equal(a, a.T) and not a.diagonal().any()
            for i in range(n):
                # in ascending order: the field sums each row in this order
                assert g.neighbors(i) == [(j, a[i, j]) for j in np.flatnonzero(a[i])]
                for j in range(n):
                    assert g.has_edge(i, j) == (a[i, j] > 0.0)
            for _ in range(10):
                s = sorted(rng.choice(n, size=rng.integers(1, n), replace=False).tolist())
                sub, mapping = induced_subgraph(g, s)
                assert mapping == tuple(s)
                inner = a[np.ix_(s, s)]
                expect = new_graph(len(s), [(u, v, inner[u, v])
                                            for u, v in zip(*np.nonzero(np.triu(inner)))])
                assert sub.hash_hex == expect.hash_hex
                for name in ("edge_src", "edge_dst", "edge_w"):
                    assert np.array_equal(getattr(sub, name), getattr(expect, name))
                assert is_independent_set(g, s) == (not inner.any())

    def test_stores_no_dense_matrix(self):
        n = 2000
        g = random_graph(n, 5 / (n - 1), "unit", seed=1)
        for f in dataclasses.fields(g):
            value = getattr(g, f.name)
            assert not (isinstance(value, np.ndarray) and value.size >= n * n), f.name


class TestJson:
    def test_round_trip(self, tmp_path):
        g = new_graph(4, [(0, 1, 1.0), (1, 3, 0.25)])
        path = tmp_path / "g.json"
        dump_graph(g, path)
        h = load_graph(path)
        assert np.array_equal(g.weights, h.weights)

    @pytest.mark.parametrize("d", [
        {"n": True, "edges": []},
        {"n": 2, "edges": [[False, True, 1.0]]},
        {"n": 2, "edges": [[0, 1, True]]},
    ])
    def test_schema_rejects_booleans(self, d):
        with pytest.raises(ConfigError):
            graph_from_json_dict(d)

    @pytest.mark.parametrize("d", [
        {"n": 10**10, "edges": []},
        # new_graph rejects the endpoint before the i < j check compares it
        {"n": 2, "edges": [["a", 1, 1.0]]},
        # new_graph takes any entry that unpacks; graph JSON only a list
        {"n": 2, "edges": [np.array([0, 1, 1])]},
    ])
    def test_schema_rejects_bad_values(self, d):
        with pytest.raises(ConfigError):
            graph_from_json_dict(d)

    def test_schema_requires_i_less_than_j(self):
        with pytest.raises(ConfigError):
            graph_from_json_dict({"n": 2, "edges": [[1, 0, 1.0]]})

    def test_schema_error_taxonomy_matches_new_graph(self):
        with pytest.raises(SelfLoopError):
            graph_from_json_dict({"n": 2, "edges": [[1, 1, 1.0]]})
        with pytest.raises(NonpositiveWeightError):
            graph_from_json_dict({"n": 2, "edges": [[0, 1, -1.0]]})
        with pytest.raises(IndexOutOfRangeError):
            graph_from_json_dict({"n": 2, "edges": [[0, 5, 1.0]]})

    def test_dump_emits_sorted_edges(self, tmp_path):
        g = new_graph(3, [(1, 2, 2.0), (0, 1, 1.0)])
        d = graph_to_json_dict(g)
        assert d == {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]}
        path = tmp_path / "g.json"
        dump_graph(g, path)
        assert json.loads(path.read_text()) == d

    @pytest.mark.parametrize("build", [
        lambda: random_graph(100, 0.8, "unit", 0),
        lambda: new_graph(5, []),
        lambda: random_graph(40, 0.5, ("uniform", 0.2, 1.5), 9),
        lambda: random_graph(1000, 5 / 999, "unit", 0),
    ], ids=["dense", "edgeless", "uniform", "sparse"])
    def test_dump_same_bytes_as_streamed_json(self, tmp_path, monkeypatch, build):
        g = build()
        streamed = io.StringIO()
        json.dump(graph_to_json_dict(g), streamed, sort_keys=True)
        path = tmp_path / "g.json"
        # each chunk size in the test's own loop, so the test ids stay
        for chunk in (1, 999, wta.graph._TEXT_CHUNK):
            monkeypatch.setattr(wta.graph, "_TEXT_CHUNK", chunk)
            dump_graph(g, path)
            assert path.read_bytes() == (streamed.getvalue() + "\n").encode(), chunk
            assert load_graph(path).hash_hex == g.hash_hex

    def test_text_peak_memory(self, tmp_path):
        # graph JSON and the graph hash hold one chunk of edge text at a
        # time, not a tuple, list or string per edge: at n=100, p=0.8
        # (3,936 edges) dump_graph peaked at 1.44 MiB and random_graph with
        # its hash at 0.73 MiB when they did
        g, path = random_graph(100, 0.8), tmp_path / "g.json"
        tracemalloc.start()
        try:
            dump_graph(g, path)
            dump_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            random_graph(100, 0.8).hash_hex  # the hash is made on its first read
            draw_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dump_peak < 0.25 * 2**20
        assert draw_peak < 0.55 * 2**20


# a weight of each form its repr takes: subnormal, exponent below -4, fixed
# below 1, one and more digits, exponent from 16, 17 significant digits
WEIGHT_REPRS = [5e-324, 1e-05, 0.0001, 0.1, 2.5, 1e16, 1.2345678901234568e17]


def many_digit_ids():
    """A graph of 2^20 agents, each edge joining ids of 1 to 7 digits (up to
    2^20 - 1), its weights cycling through WEIGHT_REPRS."""
    ids = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**5 - 1, 10**5, 10**6 - 1, 10**6,
           2**20 - 1]
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:k + 4]]
    return new_graph(2**20, [(a, b, WEIGHT_REPRS[k % len(WEIGHT_REPRS)])
                             for k, (a, b) in enumerate(pairs)])


class TestEdgeText:
    @pytest.mark.parametrize("build", [
        many_digit_ids,
        lambda: new_graph(8, [(i, j, WEIGHT_REPRS[(i * j) % 7]) for i in range(8)
                              for j in range(i + 1, 8)]),
        lambda: random_graph(100, 0.8, ("uniform", 1e-3, 1e3), 3),
        lambda: random_graph(100, 0.8),
        lambda: random_graph(1000, 5 / 999, "unit", 0),
        lambda: new_graph(5, []),
    ], ids=["ids-1-to-7-digits", "weight-reprs", "uniform", "dense", "sparse", "edgeless"])
    @pytest.mark.parametrize("chunk", [1, 999, 1024])
    def test_same_bytes_as_percent_format(self, monkeypatch, build, chunk):
        """Each chunk's byte cells join to the %-format of every edge, for
        the hash's text and for graph JSON's."""
        g = build()
        m = g.num_edges
        edges = g.edge_src[m:], g.edge_dst[m:], g.edge_w[m:]
        monkeypatch.setattr(wta.graph, "_TEXT_CHUNK", chunk)
        for fmt, sep in (("%d,%d,%r;", ""), ("[%d, %d, %r]", ", ")):
            parts = list(wta.graph._edge_text(*edges, fmt, sep))
            assert len(parts) == -(-m // chunk)
            assert b"".join(parts) == edge_text(*edges, fmt, sep).encode()

    def test_text_is_not_O_n(self):
        # an id table over [0, n) would hold 1 MiB at n = 2^20
        g = many_digit_ids()
        tracemalloc.start()
        try:
            g.hash_hex
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
