import numpy as np
import pytest

import wta.dynamics


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
