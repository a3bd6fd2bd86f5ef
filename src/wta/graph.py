"""Weighted undirected simple graphs.

Node ids are dense integers in [0, n). A graph is stored once, pair-major:
directed edge arrays whose entries k and m + k are the two directions of
the k-th undirected edge i < j in row-major order; the dense weight matrix
is built on demand. Graphs are immutable after construction.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    SEED_MAX,
    ConfigError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidProbabilityError,
    NonpositiveWeightError,
    SelfLoopError,
    read_integer,
    read_number,
    read_object,
    read_path,
    writing,
)

__all__ = [
    "Graph",
    "new_graph",
    "random_graph",
    "induced_subgraph",
    "connected_components",
    "is_independent_set",
    "graph_from_json_dict",
    "load_graph",
    "dump_graph",
]

# Most agents a graph may have, so that a typo such as n = 10^10 fails at
# once instead of allocating O(n) arrays of any size.
MAX_AGENTS = 1 << 20
# Most edges random_graph may expect to draw, n(n - 1)/2 * p: its directed
# edge arrays then stay near 400 MB, where n = 2^20 at p = 1 would ask for
# 5.5e11 pairs.
MAX_EXPECTED_EDGES = 1 << 23
# Most pairs random_graph may visit, whatever p is, so that no accepted
# graph draws for long: either weight mode reads one double a pair, plus
# one a hit in uniform mode, at about 5 ns a pair (2^32 pairs, 20-25 s).
MAX_PAIRS = 1 << 32


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable weighted undirected graph without self-loops, stored
    pair-major.

    Graphs compare and hash by hash_hex, which covers n and every edge
    with its weight. It is computed on its first read, so a graph whose
    hash nobody reads builds no text."""

    n: int
    # directed edge arrays of 2m entries: the m edges i < j in row-major
    # order are entries m:, (src, dst) = (i, j), and entries :m are the same
    # edges reversed, (j, i). Each node's entries, in array order, list its
    # neighbours ascending: those below it (first half), then those above.
    edge_src: np.ndarray = field(repr=False)
    edge_dst: np.ndarray = field(repr=False)
    edge_w: np.ndarray = field(repr=False)

    @functools.cached_property
    def hash_hex(self) -> str:
        """SHA-256 hex digest of n, then "i,j,w;" for every edge in edges()
        order, w by repr."""
        m = self.num_edges
        digest = hashlib.sha256(str(self.n).encode())
        for text in _edge_text(self.edge_src[m:], self.edge_dst[m:], self.edge_w[m:],
                               "%d,%d,%r;"):
            digest.update(text)
        return digest.hexdigest()

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
        """Adjacency-list view of node i: list of (neighbor, weight), with
        the neighbours ascending. An O(m) scan of the edge arrays."""
        row = self.edge_src == _check_node(i, self.n)
        return list(zip(self.edge_dst[row].tolist(), self.edge_w[row].tolist()))

    def edges(self) -> list[tuple[int, int, float]]:
        """Undirected edge list with i < j per entry, in row-major order."""
        m = self.num_edges
        return list(zip(self.edge_src[m:].tolist(), self.edge_dst[m:].tolist(),
                        self.edge_w[m:].tolist()))

    @property
    def num_edges(self) -> int:
        return len(self.edge_src) // 2

    def has_edge(self, i: int, j: int) -> bool:
        j = _check_node(j, self.n)
        i = _check_node(i, self.n)
        return bool(np.any((self.edge_src == i) & (self.edge_dst == j)))


def _check_node(i, n: int) -> int:
    i = read_integer(i, "node id")
    if not 0 <= i < n:
        raise IndexOutOfRangeError(f"node id {i!r} not in [0, {n})")
    return i


def _read_iterable(value, key: str):
    """An iterator over value, else ConfigError naming key."""
    try:
        return iter(value)
    except TypeError:
        raise ConfigError(f"{key} must be iterable, got {value!r}") from None


def _validate_nodes(nodes: Iterable[int], n: int) -> tuple[int, ...]:
    """Sorted, duplicate-free node set with type and range checking."""
    return tuple(sorted({_check_node(i, n) for i in _read_iterable(nodes, "node set")}))


# Most edges rendered as text at once, for the graph hash and graph JSON. A
# chunk's working memory is O(edges) in it: at n=100, p=0.8 (3,936 edges)
# dump_graph peaked at 0.14 MiB (tracemalloc), and at 0.19 MiB on a full
# chunk of 7-digit ids and distinct 23-character weights.
_TEXT_CHUNK = 1 << 10


# Hand-written because numpy's own int-to-text cast is slower: for 2,048
# ids, astype("S") took 338 us against 25 us here at two digits, and 385 us
# against 71 us at six (best of 31, 2 vCPUs, numpy 2.4.6).
def _digits(a: np.ndarray) -> np.ndarray:
    """The %d text of each int of a (nonempty, all >= 0) as an S array as
    wide as the longest text, each text right-aligned behind NUL bytes:
    one floor division by ten a digit column, for all of a at once."""
    width = len(str(int(a.max())))
    cells = np.empty((len(a), width), np.uint8)
    q = a
    for col in range(width - 1, -1, -1):
        q, r = q // 10, q
        np.subtract(r, q * 10, out=cells[:, col], casting="unsafe")
    cells += ord("0")
    for col in range(width - 1):  # a leading zero is a NUL; the last column never is one
        cells[:, col] *= a >= 10 ** (width - 1 - col)
    return cells.view(f"S{width}").ravel()


def _edge_text(i: np.ndarray, j: np.ndarray, w: np.ndarray, fmt: str, sep: str = ""):
    """The ASCII bytes of sep.join(fmt % (i[k], j[k], w[k]) for every edge
    k), for fmt of the form "a%db%dc%rd", int ids i, j >= 0 and float
    weights w: uint8 arrays of at most _TEXT_CHUNK edges each, in order.

    A chunk is a matrix of byte cells, a row an edge: sep + a, i's text, b,
    j's text, c, w's text and d, each text NUL padded to the chunk's widest.
    The ids are spelled by _digits; each distinct weight of the chunk is
    spelled once, by Python's repr, the text that json and f-strings give,
    left-aligned in an S array.
    One boolean compress drops the padding. Time and memory are O(edges)
    a chunk."""
    a, b, c, d = fmt.replace("%r", "%d").split("%d")
    for s in range(0, len(i), _TEXT_CHUNK):
        part = slice(s, s + _TEXT_CHUNK)
        k = len(i[part])
        id_text = _digits(np.concatenate((i[part], j[part])))
        ws, w_at = np.unique(w[part], return_inverse=True)
        w_text = np.array(list(map(repr, ws.tolist())), "S")
        cells = [sep + a, id_text[:k], b, id_text[k:], c, w_text.take(w_at), d]
        cells = [np.asarray(x, "S") for x in cells if len(x)]  # an empty literal takes no column
        rows = np.empty(k, [(str(n), x.dtype) for n, x in enumerate(cells)])
        for n, x in enumerate(cells):
            rows[str(n)] = x
        text = rows.view(np.uint8)
        text = text[text != 0]
        yield text[len(sep):] if s == 0 else text


def _finish(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> Graph:
    """Graph from undirected edges i < j (intp arrays) in row-major order:
    the pair-major arrays are the edges reversed, then the edges as given."""
    src, dst, edge_w = np.concatenate((j, i)), np.concatenate((i, j)), np.concatenate((w, w))
    for a in (src, dst, edge_w):
        a.setflags(write=False)
    return Graph(n=n, edge_src=src, edge_dst=dst, edge_w=edge_w)


def new_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> Graph:
    """Build a graph from an undirected edge list (i, j, w): the one place
    that checks graph input. The agent count and the node ids must be
    integers, and each weight a finite positive number, as the readers in
    wta.errors define them. edges is any iterable whose entries each
    unpack into (i, j, w)."""
    n = read_integer(n, "agent count", 1, MAX_AGENTS)
    seen: dict[tuple[int, int], float] = {}
    for entry in _read_iterable(edges, "edges"):
        try:
            i, j, w = entry
        except (TypeError, ValueError):
            raise ConfigError(f"bad edge entry {entry!r}: not (i, j, w)") from None
        i, j = _check_node(i, n), _check_node(j, n)
        if i == j:
            raise SelfLoopError(f"self-loop at node {i}")
        w = read_number(w, f"edge ({i},{j}) weight")
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


# Most doubles one draw of random_graph holds in memory. At n=1000 with
# mean degree 5 a graph's draw peaks at 0.59 MiB (tracemalloc) against
# 4.31 MiB at 2^20; at n=23171, p=1e-4 a pair took 4.3-5.2 ns in unit mode
# and 5.0-5.9 ns in uniform mode, against 4.0-5.0 and 4.1-5.4 ns at 2^20
# (medians of 5, five alternating runs, 2 vCPUs, numpy 2.4.6).
_DRAW_CHUNK = 1 << 16


def random_graph(
    n: int,
    edge_probability: float,
    weight_mode: str | tuple = "unit",
    seed: int = 0,
) -> Graph:
    """Seeded G(n, p) graph; each unordered pair is included independently.

    ``weight_mode`` is either "unit" or ("uniform", lo, hi) with lo > 0.
    The expected edge count n(n - 1)/2 * p may be at most
    MAX_EXPECTED_EDGES (2^23), and the pair count n(n - 1)/2 at most
    MAX_PAIRS (2^32) in either mode, each checked before any draw
    (ConfigError).
    Uses numpy's PCG64 generator; the same (n, p, weight_mode, seed) always
    produces the same graph. Pairs (i, j), i < j, are visited in row-major
    order, each included when its draw is below p; in uniform mode an
    included pair's weight is lo + (hi - lo) * d, Generator.uniform's
    arithmetic, for the double d right after its own draw.
    """
    n = read_integer(n, "agent count", 1, MAX_AGENTS)
    p = read_number(edge_probability, "edge probability")
    if not (0.0 <= p <= 1.0):
        raise InvalidProbabilityError(f"edge probability {p} not in [0, 1]")
    pairs = n * (n - 1) // 2
    if pairs * p > MAX_EXPECTED_EDGES:
        raise ConfigError(
            f"random graph with n={n}, p={p} expects {pairs * p:.4g} edges, "
            f"more than {MAX_EXPECTED_EDGES}"
        )
    uniform = not (isinstance(weight_mode, str) and weight_mode == "unit")
    if uniform:
        if not (isinstance(weight_mode, (list, tuple)) and len(weight_mode) == 3
                and isinstance(weight_mode[0], str) and weight_mode[0] == "uniform"):
            raise ConfigError(f"bad weight_mode {weight_mode!r}")
        lo = read_number(weight_mode[1], "uniform weight low", gt=0.0)
        hi = read_number(weight_mode[2], "uniform weight high", lo=lo)
    if pairs > MAX_PAIRS:
        raise ConfigError(f"random graph with n={n} has {pairs} pairs, more than {MAX_PAIRS}")
    rng = np.random.default_rng(read_integer(seed, "seed", 0, SEED_MAX))
    k, d = _draw_pairs(rng, pairs, p, uniform)
    row_start = np.cumsum(np.arange(n, 0, -1)) - n  # flat index of pair (i, i + 1)
    i = np.searchsorted(row_start, k, side="right") - 1
    j = k - row_start[i] + i + 1
    return _finish(n, i, j, lo + (hi - lo) * d if uniform else np.ones(k.size))


def _draw_pairs(rng, pairs: int, p: float, uniform: bool) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the pairs drawn below p and, in uniform mode, the
    doubles drawn for their weights: chunks of _DRAW_CHUNK into one buffer."""
    hits, draws = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    start, carry = 0, False  # carry: the next draw starts with the last hit's weight
    buf = np.empty(min(_DRAW_CHUNK, pairs) or 1)
    while start < pairs or carry:
        d = rng.random(out=buf[:min(_DRAW_CHUNK, pairs - start) or 1])
        at = np.flatnonzero(d < p)
        if not uniform:
            hits.append(start + at)
            start += d.size
            continue
        # the double after one >= p is a pair draw; in a run of doubles
        # below p, pair draws and their weights alternate from a pair draw.
        # A carried hit is the pair draw at -1, whose weight is d[0].
        at = np.concatenate(([-1], at)) if carry else at
        run = np.maximum.accumulate(np.where(np.diff(at, prepend=-3) != 1, at, -3))
        at = at[(at - run) % 2 == 0]  # the pair draws that hit
        carry = at.size > 0 and int(at[-1]) == d.size - 1
        draws.append(d[at[:at.size - carry] + 1])
        # a hit's pair is start + its position, less one weight for each
        # hit before it, the carried one included
        hits.append((start + at - np.arange(at.size))[at >= 0])
        start += d.size - at.size + carry
    return np.concatenate(hits), np.concatenate(draws)


def induced_subgraph(
    g: Graph, nodes: Iterable[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the given nodes, relabeled to [0, |s|).

    Returns (subgraph, mapping) where mapping[k] is the original id of new
    node k. Only edges with both endpoints inside the set are kept.
    """
    s = _validate_nodes(nodes, g.n)
    if not s:
        raise ConfigError("induced subgraph over the empty node set")
    label = np.full(g.n, -1, dtype=np.intp)
    label[list(s)] = np.arange(len(s))
    m = g.num_edges
    i, j = label[g.edge_src[m:]], label[g.edge_dst[m:]]
    # labels rise with node ids, so the kept edges stay in row-major order
    keep = (i >= 0) & (j >= 0)
    return _finish(len(s), i[keep], j[keep], g.edge_w[m:][keep]), s


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Partition of [0, n) into maximal connected node sets (BFS over
    positive-weight edges), ordered by smallest member: O(m log m) for the
    sort that groups the edges by node."""
    return _components(g, np.ones(g.n, dtype=bool))


def _components(g: Graph, member: np.ndarray) -> list[tuple[int, ...]]:
    """The connected components of the subgraph of g induced by the nodes
    where the bool array member is True, each sorted, ordered by smallest
    member: one BFS over those nodes and the edges between them."""
    inside = member[g.edge_src] & member[g.edge_dst]
    src = g.edge_src[inside]
    # node u's neighbours are targets[rows[u]:rows[u + 1]]; the components
    # do not depend on their order, so the sort need not be stable
    rows = [0] + np.bincount(src, minlength=g.n).cumsum().tolist()
    targets = g.edge_dst[inside][np.argsort(src)].tolist()
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for start in np.flatnonzero(member).tolist():
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        members = []
        while queue:
            u = queue.pop()
            members.append(u)
            for v in targets[rows[u]:rows[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(tuple(sorted(members)))
    return comps


def is_independent_set(g: Graph, nodes: Iterable[int]) -> bool:
    """True iff no edge of g has both endpoints in the node set."""
    member = np.zeros(g.n, dtype=bool)
    member[list(_validate_nodes(nodes, g.n))] = True
    return not (member[g.edge_src] & member[g.edge_dst]).any()


# --- JSON schema: {"n": int, "edges": [[i, j, w], ...]} with i < j ---


def graph_from_json_dict(d: dict) -> Graph:
    """Graph from its JSON object; new_graph checks the values."""
    if len(read_object(d, "graph JSON", ("n", "edges"))) != 2:  # both, as no other is taken
        raise ConfigError('graph JSON must be {"n": int, "edges": [[i,j,w],...]}')
    edges = d["edges"]
    if not isinstance(edges, (list, tuple)):
        raise ConfigError(f'graph JSON field "edges" must be a list, got {edges!r}')
    g = new_graph(d["n"], edges)
    # each entry unpacked into (i, j, w) with integer endpoints, so they compare
    for entry in edges:
        if not isinstance(entry, (list, tuple)) or entry[0] > entry[1]:
            raise ConfigError(f"edge entry {entry!r} must be a list [i, j, w] with i < j")
    return g


def _read_json(path, what: str):
    """The JSON value in the file at path; a file that cannot be read or
    parsed raises ConfigError naming what it should hold."""
    try:
        with open(read_path(path, f"{what} path")) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    # malformed JSON, bytes that are not UTF-8, or nesting deeper than the
    # parser's recursion limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def load_graph(path) -> Graph:
    return graph_from_json_dict(_read_json(path, "graph"))


def dump_graph(g: Graph, path) -> None:
    """Write g as graph JSON, a chunk of edges at a time: the text of
    json.dumps({"n": g.n, "edges": [[i, j, w], ...]}, sort_keys=True), the
    edges as g.edges() lists them, and a newline."""
    m = g.num_edges
    with writing(path, "graph path") as path, open(path, "w") as fh:
        fh.write('{"edges": [')
        for text in _edge_text(g.edge_src[m:], g.edge_dst[m:], g.edge_w[m:],
                               "[%d, %d, %r]", ", "):
            fh.write(text.tobytes().decode())
        fh.write(f'], "n": {g.n}}}\n')
