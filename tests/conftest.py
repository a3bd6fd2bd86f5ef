import numpy as np
import pytest

import wta.dynamics
from wta.dynamics import _field, prepare_state
from wta.integrate import _substep


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


def graph_to_json_dict(g) -> dict:
    """g's graph JSON object: dump_graph writes json.dumps of it with
    sort_keys=True, and a newline."""
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges()]}


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
