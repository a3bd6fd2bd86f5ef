import numpy as np
import pytest

import wta.dynamics
from wta.dynamics import _field, prepare_state
from wta.integrate import _substep
from wta.optimize import TIE_TOL, _fold, _result, evaluate_choice


def _edge_field(src, dst, w, x: np.ndarray, f=None, gfun=None) -> np.ndarray:
    """Accumulate per-edge terms w * f(x_i - x_j) * g(x_i, x_j) into dx_i
    over directed edge arrays (src, dst, w) indexing into x.

    Each undirected edge contributes twice, once per endpoint, keeping the
    per-agent sum literal. The default f/g path and the generalized path
    run the identical arithmetic, so identity/product specs are bit-equal
    to the plain field. Terms are summed per entry in edge order, so any
    edge arrays that list an entry's edges in the same order give the same
    bits. This plain form is the reference that every closure of
    wta.dynamics._edge_kernel is checked against.
    """
    xs = x[src]
    xd = x[dst]
    fd = (xs - xd) if f is None else f(xs - xd)
    gv = (xs * xd) if gfun is None else gfun(xs, xd)
    terms = (w * fd) * gv
    return np.bincount(src, weights=terms, minlength=x.size)


def rk4_step(g, x, dt):
    """One RK4 step of g's forward field from x through the integrator's
    _substep: the step is halved while the result leaves the orthant, and
    round-off negatives are clamped. Returns the new state and the step
    size used."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, used = _substep(_field(g), prepare_state(x, g.n), dt, g.n)
    return x, float(np.min(used))


def reference_greedy(p, restarts: int = 8, seed: int = 0):
    """greedy_search as a plain memo over evaluate_choice, one mask at a
    time, with the same first-improvement climb; the reference whose
    OptimizeResult greedy_search must equal. Returns the result and the
    masks it evaluated."""
    rng = np.random.default_rng(seed)
    m = p.num_candidates
    cache = {}

    def value(mask):
        if mask not in cache:
            cache[mask] = evaluate_choice(p, mask)
        return cache[mask]

    best = (0, -np.inf, False)
    for _ in range(restarts):
        mask = int(rng.integers(0, 1 << m))
        cur = value(mask)
        improved = True
        while improved:
            improved = False
            for k in range(m):
                cand = mask ^ (1 << k)
                v = value(cand)
                if v > cur + TIE_TOL:
                    mask, cur = cand, v
                    improved = True
        best = _fold(best, mask, cur)
    result = _result(p, "greedy", best, len(cache), min(cache.values()), max(cache.values()))
    return result, set(cache)


def graph_to_json_dict(g) -> dict:
    """g's graph JSON object: dump_graph writes json.dumps of it with
    sort_keys=True, and a newline."""
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges()]}


def edge_text(i, j, w, fmt: str, sep: str = "") -> str:
    """sep.join(fmt % (i[k], j[k], w[k]) for every edge k), as one %-format
    of a flat list of the edges' values: the reference that the byte cells
    of wta.graph._edge_text must match, byte for byte."""
    values = [None] * (3 * len(i))
    values[0::3], values[1::3], values[2::3] = i.tolist(), j.tolist(), w.tolist()
    return sep.join([fmt] * len(i)) % tuple(values)


@pytest.fixture
def paired_builds(monkeypatch) -> list:
    """The entry count of each closure wta.dynamics._paired_kernel builds
    while the test runs, in order."""
    built = []
    paired = wta.dynamics._paired_kernel

    def probe(src, w):
        built.append(src.size)
        return paired(src, w)

    monkeypatch.setattr(wta.dynamics, "_paired_kernel", probe)
    return built
