"""Vector fields of the winners-take-all dynamics.

Forward model: dx_i = sum_j a_ij (x_i - x_j) x_i x_j over neighbors j.
The reverse-time form is the exact negation and equals -L(y) y for a
state-dependent Laplacian with off-diagonal entries -a_ij y_i y_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (SEED_MAX, ConfigError, DimensionMismatchError, EmptyStateError,
                     NegativeStateError, NonFiniteStateError, read_array, read_choice,
                     read_integer, read_numbers)
from .graph import Graph

__all__ = [
    "CLAMP",
    "prepare_state",
    "vector_field",
    "reverse_vector_field",
    "laplacian",
    "InteractionSpec",
    "default_interaction",
    "interaction_from_names",
    "generalized_vector_field",
    "check_interactions",
    "InteractionCheck",
    "BUILTIN_F",
    "BUILTIN_G",
]

# Round-off absorption window: components in [-CLAMP, 0) are treated as 0,
# anything below -CLAMP is a genuine violation of the nonnegative orthant.
CLAMP = 1e-12


def prepare_state(x, n: int) -> np.ndarray:
    """Validate a state vector against a graph of size n.

    Returns a float array with tiny negative round-off clamped to zero.
    Raises ConfigError (not numbers) / DimensionMismatchError /
    NegativeStateError / EmptyStateError / NonFiniteStateError.
    """
    arr = read_array(x, "state")
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyStateError(f"state must be a nonempty 1-d vector, got shape {arr.shape}")
    if arr.shape[0] != n:
        raise DimensionMismatchError(f"state has length {arr.shape[0]}, graph has n={n}")
    # minimum propagates NaN, so the extremes are finite iff every entry is
    lo = np.minimum.reduce(arr)
    if not (math.isfinite(lo) and math.isfinite(np.maximum.reduce(arr))):
        raise NonFiniteStateError("state has a NaN or infinite component")
    if lo < -CLAMP:
        raise NegativeStateError(f"state component {lo} below -{CLAMP}")
    if lo < 0.0:
        arr = np.where(arr < 0.0, 0.0, arr)
    return arr


def _edge_field(src, dst, w, x: np.ndarray, f=None, gfun=None) -> np.ndarray:
    """Accumulate per-edge terms w * f(x_i - x_j) * g(x_i, x_j) into dx_i
    over directed edge arrays (src, dst, w) indexing into x.

    Each undirected edge contributes twice, once per endpoint, keeping the
    per-agent sum literal. The default f/g path and the generalized path
    run the identical arithmetic, so identity/product specs are bit-equal
    to the plain field. Terms are summed per entry in edge order, so any
    edge arrays that list an entry's edges in the same order give the same
    bits: a graph's own arrays and the pair-major arrays of a block of
    lanes (_field) share this kernel. Generalized specs run through it;
    the default interaction runs through _edge_kernel, whose bits the tests
    check against this plain form.
    """
    xs = x[src]
    xd = x[dst]
    fd = (xs - xd) if f is None else f(xs - xd)
    gv = (xs * xd) if gfun is None else gfun(xs, xd)
    terms = (w * fd) * gv
    return np.bincount(src, weights=terms, minlength=x.size)


def _edge_kernel(src, dst, w) -> Callable:
    """The default field over directed edge arrays as a closure: the
    arithmetic of _edge_field bit for bit, in fewer numpy calls. It
    multiplies the arrays it gathers in place and skips the w * multiply
    when every weight is 1, where it is an exact identity. The integrator
    calls it four times a RK4 step, and on small graphs the number of numpy
    calls, not the arithmetic, sets the cost of a call. Pair-major arrays
    of at least PAIRED_MIN_ENTRIES entries get _paired_kernel's closure
    instead. src must be writeable, as _field's arrays are."""
    if src.size >= PAIRED_MIN_ENTRIES:
        return _paired_kernel(src, w)
    unit = np.count_nonzero(w != 1.0) == 0

    def fn(x):
        xs = x[src]
        xd = x[dst]
        d = xs - xd
        if not unit:
            d *= w
        xs *= xd
        d *= xs
        return np.bincount(src, d, x.size)

    return fn


# _edge_kernel pairs the entries iff there are at least PAIRED_MIN_ENTRIES
# of them. Field time, paired over unpaired, by directed entries (median of
# 31 alternating timings, three runs, 2 vCPUs, numpy 2.4.6): 6 1.83-1.84;
# 256 1.33-1.35; 570 1.08-1.10; 1060 0.99-1.02; 1608 0.92-0.94; 2108
# 0.82-0.86; 3988 0.87-0.88; 4974 0.82-0.87, weighted 0.81-0.83; 24828
# 0.64-0.66. A paired build, a copy of the index and two buffers, took
# 6-9.5 us at 4974 entries, against 2-5 us unpaired, and a block of lanes
# rebuilds each time lanes stop: from 4096 entries the saving repays a
# rebuild within two RK4 steps, and the analysis graphs and optimizer
# arenas stay below it.
PAIRED_MIN_ENTRIES = 4096


def _paired_kernel(src, w) -> Callable:
    """_edge_kernel's closure over pair-major edge arrays (a graph's, or a
    block of lanes'), computing each undirected edge's term once for both
    of its entries. src must be writeable, as _field's arrays are.

    Entry m + k is the k-th pair a < b and entry k the same pair reversed,
    so src = concat(b, a) holds the agent of each term. Per call it gathers
    x over src into a buffer it owns, and the term of a is ((x_a - x_b) *
    w) * (x_a * x_b) and that of b ((x_b - x_a) * w) * (x_a * x_b): the
    arithmetic of the unpaired closure, as IEEE products commute. One
    bincount over src then sums each entry's terms in array order, as the
    unpaired closure does, so the bits are those of _edge_field."""
    m = src.size // 2
    w = w[:m]
    unit = np.count_nonzero(w != 1.0) == 0
    xe = np.empty(2 * m)
    xb, xa = xe[:m], xe[m:]
    terms = np.empty(2 * m)
    tb, ta = terms[:m], terms[m:]
    pairs = terms.reshape(2, m)

    def fn(x):
        # the default mode="raise" would gather into a temporary and copy
        # it to out; the indices are in range, so "clip" changes nothing
        np.take(x, src, out=xe, mode="clip")
        np.subtract(xb, xa, out=tb)
        np.subtract(xa, xb, out=ta)
        if not unit:
            np.multiply(pairs, w, out=pairs)
        np.multiply(xa, xb, out=xa)
        np.multiply(pairs, xa, out=pairs)
        return np.bincount(src, terms, x.size)

    return fn


def _dense_field(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The default field through the symmetric weight matrix W:
    x_i^2 (Wx)_i - x_i (W x^2)_i = sum_j a_ij (x_i - x_j) x_i x_j.

    Both terms carry a factor x_i and W, x >= 0, so an entry at zero gets
    exactly +0.0; the sum is zero up to rounding by symmetry of W.
    """
    x2 = x * x
    return x2 * (W @ x) - x * (W @ x2)


# The dense kernel is used iff n >= DENSE_MIN_N and the directed edges fill
# at least 1/DENSE_FILL_DIV of the n^2 entries. Field time in microseconds,
# edge vs dense, on 2 vCPUs with numpy 2.4.6: n=100 p=0.8 75.6 vs 8.8;
# n=64 p=0.5 18.5 vs 5.6; n=32 p=0.3 5.4 vs 4.6; n=16 p=0.8 4.6 vs 4.4;
# n=8 about 3.2 vs 4.3 at any p; n=1000 mean degree 5 28-34 (paired) vs
# 360-410.
DENSE_MIN_N = 32
DENSE_FILL_DIV = 4


def _field_kernel(g: Graph, spec: Optional[InteractionSpec] = None) -> str:
    """Kernel that evaluates the field of g under spec (None: the default
    interaction): "dense" for the default interaction on a graph that is
    large and dense enough, else "edge". Generalized specs use "edge"."""
    if spec is not None and not spec.is_default:
        return "edge"
    if g.n >= DENSE_MIN_N and 2 * g.num_edges * DENSE_FILL_DIV >= g.n * g.n:
        return "dense"
    return "edge"


def _field(g: Graph, spec: Optional[InteractionSpec] = None,
           keep: Optional[np.ndarray] = None, reverse: bool = False) -> Callable:
    """The field of g under spec (None: the default interaction) as a
    function of a clean state, negated for reverse runs: the one builder of
    every field closure.

    keep=None is the single lane of all of g, through the kernel
    _field_kernel picks; the dense one builds W once, here. Otherwise keep
    (B, num_edges) lays out a block of B lanes over a flat state: lane l
    is g restricted to the undirected edges its row of keep enables (in
    g.edges() order), acting on entries [l*n, (l+1)*n), always through the
    edge kernel. The block's arrays are pair-major across its lanes, so
    each lane's entries of an agent come in the order of its own graph's.
    """
    if keep is None and _field_kernel(g, spec) == "dense":
        W = g.weights
        fn = lambda x: _dense_field(W, x)
    else:
        src, dst, w = g.edge_src, g.edge_dst, g.edge_w
        if keep is None:
            # np.take(out=) and np.bincount copy a read-only index, such as
            # a graph's, on every call; a block's arrays are fresh already
            src = src.copy()
        else:
            # (half, lane, edge) in C order: each half of g's arrays, lane by lane
            offset = g.n * np.arange(len(keep))[:, None]
            both = np.broadcast_to(keep, (2, *keep.shape))
            src = (src.reshape(2, 1, -1) + offset)[both]
            dst = (dst.reshape(2, 1, -1) + offset)[both]
            w = np.broadcast_to(w.reshape(2, 1, -1), both.shape)[both]
        if not src.size:  # np.bincount over no edges gives integer zeros
            fn = lambda x: np.zeros(x.size)
        elif spec is None or spec.is_default:
            fn = _edge_kernel(src, dst, w)
        else:
            fn = lambda x: _edge_field(src, dst, w, x, spec.f, spec.g)
    if reverse:
        return lambda x: -fn(x)
    return fn


def vector_field(g: Graph, x) -> np.ndarray:
    """dx_i = sum_j a_ij (x_i - x_j) x_i x_j; zero-sum up to rounding."""
    return _field(g)(prepare_state(x, g.n))


def reverse_vector_field(g: Graph, y) -> np.ndarray:
    """Reverse-time (consensus) field: exact entrywise negation of the
    forward field, so dy = -dx holds bit-for-bit."""
    return _field(g, reverse=True)(prepare_state(y, g.n))


def laplacian(g: Graph, y) -> np.ndarray:
    """State-dependent Laplacian L with l_ij = -a_ij y_i y_j (i != j) and
    l_ii = -sum_j l_ij; every row sums to zero exactly and
    reverse_vector_field(g, y) == -L @ y up to rounding."""
    y = prepare_state(y, g.n)
    L = -(g.weights * np.outer(y, y))
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


# --- generalized f/g interactions ---


def _identity(a):
    return a


def _cubic(a):
    return a**3


def _product(u, v):
    return u * v


def _scaled_product(u, v):
    return 0.5 * (u * v)


BUILTIN_F: dict[str, Callable] = {
    "identity": _identity,
    "cubic": _cubic,
    "tanh": np.tanh,
}

BUILTIN_G: dict[str, Callable] = {
    "product": _product,
    "scaled_product": _scaled_product,
}


@dataclass(frozen=True)
class InteractionSpec:
    """Pluggable interaction: f acts on the state difference (odd, positive
    on positives), g on the state pair (symmetric, vanishing at the
    boundary). f_name and g_name label the pair in its repr, as the
    BUILTIN_F and BUILTIN_G keys of a builtin one; no output records them."""

    f: Callable
    g: Callable
    f_name: str = "custom"
    g_name: str = "custom"

    @property
    def is_default(self) -> bool:
        return self.f is _identity and self.g is _product


def default_interaction() -> InteractionSpec:
    return InteractionSpec(_identity, _product, "identity", "product")


def interaction_from_names(f: str = "identity", g: str = "product") -> InteractionSpec:
    """The builtin interaction with f a key of BUILTIN_F and g one of BUILTIN_G."""
    f = read_choice(f, "interaction.f", BUILTIN_F)
    g = read_choice(g, "interaction.g", BUILTIN_G)
    return InteractionSpec(BUILTIN_F[f], BUILTIN_G[g], f, g)


def generalized_vector_field(g: Graph, x, spec: InteractionSpec) -> np.ndarray:
    """dx_i = sum_j a_ij f(x_i - x_j) g(x_i, x_j)."""
    return _field(g, spec)(prepare_state(x, g.n))


@dataclass(frozen=True)
class InteractionCheck:
    passed: bool
    violations: tuple[str, ...]
    samples: int
    seed: int


def check_interactions(
    spec: InteractionSpec,
    samples: int = 256,
    sample_range: tuple[float, float] = (0.0, 10.0),
    seed: int = 0,
) -> InteractionCheck:
    """Sampled validation of the interaction hypotheses.

    Checks f odd and positive on positives, g symmetric and vanishing when
    either argument is zero. Violations are report content, not exceptions.
    samples is an integer >= 1, sample_range two numbers with 0 <= lo < hi
    and seed an integer in [0, 2^64 - 1].
    """
    samples = read_integer(samples, "samples", lo=1)
    seed = read_integer(seed, "seed", 0, SEED_MAX)
    bounds = read_numbers(sample_range, "sample_range", lo=0.0)
    if len(bounds) != 2 or bounds[1] <= bounds[0]:
        raise ConfigError(f"sample_range must be two numbers lo < hi, got {sample_range!r}")
    lo, hi = bounds
    rng = np.random.default_rng(seed)
    tol = 1e-12
    violations: list[str] = []
    for _ in range(samples):
        a = rng.uniform(lo, hi)
        u = rng.uniform(lo, hi)
        v = rng.uniform(lo, hi)
        fa = float(spec.f(a))
        fneg = float(spec.f(-a))
        if abs(fa + fneg) > tol * max(1.0, abs(fa)):
            violations.append(f"f not odd at a={a}: f(a)+f(-a)={fa + fneg}")
            break
        if a > 0.0 and not fa > 0.0:
            violations.append(f"f({a})={fa} not positive")
            break
        guv = float(spec.g(u, v))
        gvu = float(spec.g(v, u))
        if abs(guv - gvu) > tol * max(1.0, abs(guv)):
            violations.append(f"g not symmetric at ({u},{v}): {guv} vs {gvu}")
            break
        if abs(float(spec.g(0.0, a))) > tol or abs(float(spec.g(a, 0.0))) > tol:
            violations.append(f"g does not vanish at the boundary for a={a}")
            break
    return InteractionCheck(
        passed=not violations,
        violations=tuple(violations),
        samples=samples,
        seed=seed,
    )
