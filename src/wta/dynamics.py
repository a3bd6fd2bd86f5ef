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
                     NegativeStateError, NonFiniteStateError, PositivityFailureError,
                     read_array, read_choice, read_integer, read_numbers)
from .graph import Graph

__all__ = [
    "CLAMP",
    "prepare_state",
    "vector_field",
    "reverse_vector_field",
    "laplacian",
    "InteractionSpec",
    "interaction_from_names",
    "check_interactions",
    "InteractionCheck",
    "BUILTIN_F",
    "BUILTIN_G",
]

# Most samples check_interactions draws: a sample of a builtin interaction
# took 5.8-7.1 us (2 vCPUs, numpy 2.4.6), so 2^20 of them take about 6-7 s.
MAX_SAMPLES = 1 << 20

# Round-off absorption window: components in [-CLAMP, 0) are treated as 0,
# anything below -CLAMP is a genuine violation of the nonnegative orthant.
CLAMP = 1e-12

# A field or Laplacian past the double range holds inf or NaN: the public
# fields, the Laplacian and the integrator compute under _quiet_overflow and
# raise PositivityFailureError(OVERFLOW_MESSAGE) for it once, where numpy's
# warnings would repeat it. x_i * x_j overflows from about 1.3e154. It is
# only a decorator: numpy 2 lets one errstate enter a with block only once.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")
OVERFLOW_MESSAGE = "the field overflowed to NaN or infinity: the state or weights are too large"


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


def _edge_kernel(src, dst, w, spec: Optional[InteractionSpec] = None) -> Callable:
    """The field over directed edge arrays (src, dst, w) under spec (None:
    the default interaction) as a closure: the one builder of every edge
    closure. Each undirected edge gives a term to each endpoint, and one
    bincount sums each entry's terms in array order, so a graph's arrays
    and the pair-major arrays of a block of lanes (_field) give the same
    bits. Every closure has the bits of the plain form, _edge_field in
    tests/conftest.py, which a generalized spec runs as it is, with no
    in-place operation on what f or g return. The default interaction
    multiplies its gathered arrays in place and skips the w * multiply
    when every weight is 1, an exact identity: on small graphs the count
    of numpy calls sets the cost. From PAIRED_MIN_ENTRIES entries it takes
    _paired_kernel's closure, which computes each edge's term once; below
    that the unpaired closure is faster (the table above the rule). A
    custom f need not be odd bit for bit, so generalized specs are never
    paired. src must be writeable."""
    if spec is not None and not spec.is_default:
        f, g = spec.f, spec.g

        def generalized(x):
            xs = x[src]
            xd = x[dst]
            return np.bincount(src, (w * f(xs - xd)) * g(xs, xd), x.size)

        return generalized
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
# of them. Time paired over unpaired by directed entries, unit weights,
# under _simulate's errstate (median of 15 interleaved rounds, 2 vCPUs,
# numpy 2.4.6): per call 6 1.15; 64 1.24; 128 1.03; 160 0.98; 192 0.95;
# 256 0.94; 570 0.86; 1024 0.81; 4800 0.68 (weighted: 128 1.06, 192 0.99,
# 4800 0.71). A paired build, two buffers more, costs about 1-2 us more,
# and a block of lanes rebuilds each time lanes stop: with a build every
# 43 calls (fig5_sweep's mean) 128 1.05; 160 0.98; 192 0.97 (weighted
# 1.00); 256 0.95, and with one every 5 calls (a rebuild after every RK4
# step) 192 1.06; 256 1.03; 384 0.97. The rule sits at the smallest size
# that is no slower at a build every 43 calls, so eu_spectra's G(40, 0.15)
# and G(60, 0.15) pair and the triangle does not.
PAIRED_MIN_ENTRIES = 192


def _paired_kernel(src, w) -> Callable:
    """_edge_kernel's closure over pair-major edge arrays (a graph's, or a
    block of lanes'), computing each undirected edge's term once for both
    of its entries. src must be writeable, as _field's arrays are.

    Entry m + k is the k-th pair a < b and entry k the same pair reversed,
    so src = concat(b, a) holds the agent of each term. Per call it gathers
    x over src into a buffer it owns, computes b's term ((x_b - x_a) * w) *
    (x_a * x_b) once, on m entries, and writes a's as its negation. That is
    the unpaired closure's arithmetic up to sign: IEEE products commute, and
    rounding is symmetric, so x_a - x_b and its products are the exact
    negations of those of x_b - x_a. Only a zero term can take the other
    sign. One bincount over src then sums each entry's terms in array
    order, as the unpaired closure does, into an accumulator that starts at
    +0.0, where adding a zero of either sign changes no bit; so the sums
    are those of the plain form, _edge_field in tests/conftest.py. A NaN
    term only reaches the overflow error."""
    m = src.size // 2
    w = w[:m]
    unit = np.count_nonzero(w != 1.0) == 0
    xe = np.empty(2 * m)
    xb, xa = xe[:m], xe[m:]
    terms = np.empty(2 * m)
    tb, ta = terms[:m], terms[m:]

    def fn(x):
        # the default mode="raise" would gather into a temporary and copy
        # it to out; the indices are in range, so "clip" changes nothing
        x.take(src, None, xe, "clip")
        np.subtract(xb, xa, tb)
        if not unit:
            np.multiply(tb, w, tb)
        np.multiply(xa, xb, xa)
        np.multiply(tb, xa, tb)
        np.negative(tb, ta)
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


def _dense_fits(n: int, num_edges: int) -> bool:
    """Whether the default interaction on a graph of n agents and num_edges
    undirected edges runs the dense kernel: the rule _field_kernel applies."""
    return n >= DENSE_MIN_N and 2 * num_edges * DENSE_FILL_DIV >= n * n


def _field_kernel(g: Graph, spec: Optional[InteractionSpec] = None) -> str:
    """Kernel that evaluates the field of g under spec (None: the default
    interaction): "dense" for the default interaction on a graph that is
    large and dense enough, else "edge". Generalized specs use "edge"."""
    if spec is not None and not spec.is_default:
        return "edge"
    return "dense" if _dense_fits(g.n, g.num_edges) else "edge"


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
        else:
            fn = _edge_kernel(src, dst, w, spec)
    if reverse:
        return lambda x: -fn(x)
    return fn


def _finite(a: np.ndarray) -> np.ndarray:
    """a, or PositivityFailureError(OVERFLOW_MESSAGE) if an entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise PositivityFailureError(OVERFLOW_MESSAGE)
    return a


@_quiet_overflow
def vector_field(g: Graph, x) -> np.ndarray:
    """dx_i = sum_j a_ij (x_i - x_j) x_i x_j; zero-sum up to rounding.
    PositivityFailureError if it overflows double precision."""
    return _finite(_field(g)(prepare_state(x, g.n)))


@_quiet_overflow
def reverse_vector_field(g: Graph, y) -> np.ndarray:
    """Reverse-time (consensus) field: exact entrywise negation of the
    forward field, so dy = -dx holds bit-for-bit. PositivityFailureError if
    it overflows double precision."""
    return _finite(_field(g, reverse=True)(prepare_state(y, g.n)))


@_quiet_overflow
def laplacian(g: Graph, y) -> np.ndarray:
    """State-dependent Laplacian L with l_ij = -a_ij y_i y_j (i != j) and
    l_ii = -sum_j l_ij; every row sums to zero exactly and
    reverse_vector_field(g, y) == -L @ y up to rounding.
    PositivityFailureError if it overflows double precision."""
    y = prepare_state(y, g.n)
    # the bits of -(g.weights * np.outer(y, y)), whose products off the
    # edges would overflow to 0 * inf = NaN where the edges' do not
    L = np.full((g.n, g.n), -0.0)
    L[g.edge_src, g.edge_dst] = -(g.edge_w * (y[g.edge_src] * y[g.edge_dst]))
    np.fill_diagonal(L, 0.0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return _finite(L)


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
    boundary)."""

    f: Callable
    g: Callable

    @property
    def is_default(self) -> bool:
        return self.f is _identity and self.g is _product


def interaction_from_names(f: str = "identity", g: str = "product") -> InteractionSpec:
    """The builtin interaction with f a key of BUILTIN_F and g one of BUILTIN_G."""
    f = read_choice(f, "interaction.f", BUILTIN_F)
    g = read_choice(g, "interaction.g", BUILTIN_G)
    return InteractionSpec(BUILTIN_F[f], BUILTIN_G[g])


@dataclass(frozen=True)
class InteractionCheck:
    passed: bool
    violations: tuple[str, ...]
    samples: int
    seed: int


@_quiet_overflow
def check_interactions(
    spec: InteractionSpec,
    samples: int = 256,
    sample_range: tuple[float, float] = (0.0, 10.0),
    seed: int = 0,
) -> InteractionCheck:
    """Sampled validation of the interaction hypotheses.

    Checks f odd and positive on positives, g symmetric and vanishing when
    either argument is zero. Violations are report content, not exceptions;
    a value of f or g that is NaN or past the double range is one.
    samples is an integer in [1, MAX_SAMPLES], sample_range two numbers
    with 0 <= lo < hi and seed an integer in [0, 2^64 - 1].
    """
    samples = read_integer(samples, "samples", 1, MAX_SAMPLES)
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
        try:  # a Python float power past the double range raises
            values = (float(spec.f(a)), float(spec.f(-a)), float(spec.g(u, v)),
                      float(spec.g(v, u)), float(spec.g(0.0, a)), float(spec.g(a, 0.0)))
        except OverflowError:
            values = (math.nan,)
        if not all(map(math.isfinite, values)):
            violations.append(f"f or g is NaN or past the double range at a={a}, u={u}, v={v}")
            break
        fa, fneg, guv, gvu, g0a, ga0 = values
        if abs(fa + fneg) > tol * max(1.0, abs(fa)):
            violations.append(f"f not odd at a={a}: f(a)+f(-a)={fa + fneg}")
            break
        if a > 0.0 and not fa > 0.0:
            violations.append(f"f({a})={fa} not positive")
            break
        if abs(guv - gvu) > tol * max(1.0, abs(guv)):
            violations.append(f"g not symmetric at ({u},{v}): {guv} vs {gvu}")
            break
        if abs(g0a) > tol or abs(ga0) > tol:
            violations.append(f"g does not vanish at the boundary for a={a}")
            break
    return InteractionCheck(
        passed=not violations,
        violations=tuple(violations),
        samples=samples,
        seed=seed,
    )
