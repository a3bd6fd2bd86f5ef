"""Weighted undirected simple graphs.

Node ids are dense integers in [0, n). A graph is stored once, as
compressed sparse rows: directed edge arrays in adjacency-list order plus
row offsets; the dense weight matrix is built on demand. Graphs are
immutable after construction.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidProbabilityError,
    NonpositiveWeightError,
    SelfLoopError,
)

__all__ = [
    "Graph",
    "new_graph",
    "random_graph",
    "induced_subgraph",
    "connected_components",
    "is_independent_set",
    "validate_nodes",
    "graph_to_json_dict",
    "graph_from_json_dict",
    "load_graph",
    "dump_graph",
]

# Most agents a graph may have, so that a typo such as n = 10^10 fails at
# once instead of allocating O(n) arrays of any size.
MAX_AGENTS = 1 << 20


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected graph without self-loops, stored as CSR.

    Graphs compare and hash by hash_hex, which covers n and every edge
    with its weight."""

    n: int
    # node i's edges are entries indptr[i]:indptr[i + 1] of the arrays below
    indptr: np.ndarray = field(repr=False)
    # directed edge arrays, ordered by source then target; each undirected
    # edge appears twice (once per endpoint). edge_dst is the CSR index array.
    edge_src: np.ndarray = field(repr=False)
    edge_dst: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)
    hash_hex: str = field(repr=False, default="")

    @property
    def weights(self) -> np.ndarray:
        """Dense (n, n) symmetric weight matrix, built from the edges on
        every access: O(n^2) time and memory, for small graphs and tests."""
        w = np.zeros(self.n * self.n)
        w[self.edge_src * self.n + self.edge_dst] = self.edge_w
        return w.reshape(self.n, self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.hash_hex == other.hash_hex

    def __hash__(self) -> int:
        return hash(self.hash_hex)

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        """Adjacency-list view of node i: list of (neighbor, weight)."""
        _check_node(i, self.n)
        row = slice(self.indptr[i], self.indptr[i + 1])
        return list(zip(self.edge_dst[row].tolist(), self.edge_w[row].tolist()))

    def edges(self) -> list[tuple[int, int, float]]:
        """Undirected edge list with i < j per entry."""
        sel = self.edge_src < self.edge_dst
        return list(
            zip(
                self.edge_src[sel].tolist(),
                self.edge_dst[sel].tolist(),
                self.edge_w[sel].tolist(),
            )
        )

    @property
    def num_edges(self) -> int:
        return len(self.edge_src) // 2

    def has_edge(self, i: int, j: int) -> bool:
        _check_node(j, self.n)
        return any(k == j for k, _w in self.neighbors(i))


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_agents(n) -> int:
    if not (_is_int(n) and 0 < n <= MAX_AGENTS):
        raise ConfigError(f"agent count must be an integer in [1, {MAX_AGENTS}], got {n!r}")
    return int(n)


def _check_node(i, n: int) -> int:
    if not _is_int(i):
        raise ConfigError(f"node id must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise IndexOutOfRangeError(f"node id {i!r} not in [0, {n})")
    return int(i)


def validate_nodes(nodes: Iterable[int], n: int) -> tuple[int, ...]:
    """Sorted, duplicate-free node set with type and range checking."""
    return tuple(sorted({_check_node(i, n) for i in nodes}))


def _finish(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> Graph:
    """Graph from undirected edges i < j (intp arrays), in (i, j) order."""
    src = np.concatenate((j, i))
    # a stable sort by source keeps each row's edges to lower ids (listed
    # first, ascending as i is) ahead of its edges to higher ids (ascending j)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.concatenate((i, j))[order]
    edge_w = np.concatenate((w, w))[order]
    indptr = np.searchsorted(src, np.arange(n + 1))
    for a in (indptr, src, dst, edge_w):
        a.setflags(write=False)
    digest = hashlib.sha256(str(n).encode())
    for u, v, wt in zip(i.tolist(), j.tolist(), w.tolist()):
        digest.update(f"{u},{v},{wt!r};".encode())
    return Graph(
        n=n,
        indptr=indptr,
        edge_src=src,
        edge_dst=dst,
        edge_w=edge_w,
        hash_hex=digest.hexdigest(),
    )


def new_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> Graph:
    """Build a graph from an undirected edge list (i, j, w): the one place
    that checks graph input. The agent count and the node ids must be
    integers (not bools), and each weight a finite positive real number
    (not a bool or a string)."""
    n = _check_agents(n)
    seen: dict[tuple[int, int], float] = {}
    for i, j, w in edges:
        i, j = _check_node(i, n), _check_node(j, n)
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        # abs(NaN) passes here, to fail the positivity check below
        if isinstance(w, bool) or not isinstance(w, numbers.Real) or abs(w) > sys.float_info.max:
            raise ConfigError(f"edge ({i},{j}) weight must be a finite number, got {w!r}")
        w = float(w)
        if not w > 0.0:
            raise NonpositiveWeightError(f"edge ({i},{j}) has weight {w} <= 0")
        key = (min(i, j), max(i, j))
        if seen.setdefault(key, w) != w:
            raise DuplicateEdgeError(
                f"edge {key} given twice with weights {seen[key]} and {w}"
            )
    keys = sorted(seen)
    i, j = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    return _finish(n, i, j, np.array([seen[k] for k in keys]))


_DRAW_CHUNK = 1 << 20  # most doubles one draw of random_graph holds in memory


def random_graph(
    n: int,
    edge_probability: float,
    weight_mode: str | tuple = "unit",
    seed: int = 0,
) -> Graph:
    """Seeded G(n, p) graph; each unordered pair is included independently.

    ``weight_mode`` is either "unit" or ("uniform", lo, hi) with lo > 0.
    Uses numpy's PCG64 generator; the same (n, p, weight_mode, seed) always
    produces the same graph. Pairs (i, j), i < j, are visited in row-major
    order, each included when its draw is below p; in uniform mode an
    included pair's weight comes from the draw right after its own.
    """
    n = _check_agents(n)
    p = float(edge_probability)
    if not (0.0 <= p <= 1.0):
        raise InvalidProbabilityError(f"edge probability {p} not in [0, 1]")
    rng = np.random.default_rng(seed)
    if weight_mode != "unit":
        try:
            mode, lo, hi = weight_mode
        except (TypeError, ValueError):
            raise ConfigError(f"bad weight_mode {weight_mode!r}")
        if mode != "uniform" or not (0.0 < float(lo) <= float(hi)):
            raise ConfigError(f"bad weight_mode {weight_mode!r}")
        lo, hi = float(lo), float(hi)
        # the weight draws interleave with the inclusion draws: one pair at a time
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j, rng.uniform(lo, hi)))
        return new_graph(n, edges)
    # Generator.random(k) yields the same doubles as k scalar calls, so
    # drawing the pairs in chunks keeps the scalar stream
    row_start = np.cumsum(np.arange(n, 0, -1)) - n  # flat index of pair (i, i + 1)
    pairs = n * (n - 1) // 2
    hits = [
        start + np.flatnonzero(rng.random(min(_DRAW_CHUNK, pairs - start)) < p)
        for start in range(0, pairs, _DRAW_CHUNK)
    ]
    k = np.concatenate(hits) if hits else np.zeros(0, dtype=np.intp)
    i = np.searchsorted(row_start, k, side="right") - 1
    j = k - row_start[i] + i + 1
    return _finish(n, i, j, np.ones(k.size))


def induced_subgraph(
    g: Graph, nodes: Iterable[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the given nodes, relabeled to [0, |s|).

    Returns (subgraph, mapping) where mapping[k] is the original id of new
    node k. Only edges with both endpoints inside the set are kept.
    """
    s = validate_nodes(nodes, g.n)
    if not s:
        raise ConfigError("induced subgraph over the empty node set")
    label = np.full(g.n, -1, dtype=np.intp)
    label[list(s)] = np.arange(len(s))
    i, j = label[g.edge_src], label[g.edge_dst]
    # labels rise with node ids, so the kept edges stay in row-major order
    keep = (i >= 0) & (i < j)
    return _finish(len(s), i[keep], j[keep], g.edge_w[keep]), s


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Partition of [0, n) into maximal connected node sets (BFS over
    positive-weight edges), ordered by smallest member."""
    indptr = g.indptr.tolist()
    targets = g.edge_dst.tolist()
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        members = []
        while queue:
            u = queue.pop()
            members.append(u)
            for v in targets[indptr[u]:indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(tuple(sorted(members)))
    return comps


def is_independent_set(g: Graph, nodes: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in the node set."""
    member = np.zeros(g.n, dtype=bool)
    member[list(validate_nodes(nodes, g.n))] = True
    return not (member[g.edge_src] & member[g.edge_dst]).any()


# --- JSON schema: {"n": int, "edges": [[i, j, w], ...]} with i < j ---


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges()]}


def graph_from_json_dict(d: dict) -> Graph:
    """Graph from its JSON object; new_graph checks the values."""
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise ConfigError('graph JSON must be {"n": int, "edges": [[i,j,w],...]}')
    edges = d["edges"]
    if not isinstance(edges, (list, tuple)):
        raise ConfigError(f'graph JSON field "edges" must be a list, got {edges!r}')
    for entry in edges:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ConfigError(f"bad edge entry {entry!r}")
    g = new_graph(d["n"], edges)
    # the endpoints are integers now, so they compare
    for entry in edges:
        if entry[0] > entry[1]:
            raise ConfigError(f"edge entry {entry!r} must have i < j")
    return g


def _read_json(path, what: str):
    """The JSON value in the file at path; a file that cannot be read or
    parsed raises ConfigError naming what it should hold."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def load_graph(path) -> Graph:
    return graph_from_json_dict(_read_json(path, "graph"))


def dump_graph(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_json_dict(g), fh, sort_keys=True)
        fh.write("\n")
