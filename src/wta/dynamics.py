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

from .errors import (
    DimensionMismatchError,
    EmptyStateError,
    NegativeStateError,
    NonFiniteStateError,
)
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
    Raises DimensionMismatchError / NegativeStateError / EmptyStateError /
    NonFiniteStateError.
    """
    arr = np.asarray(x, dtype=float)
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
    bits: a graph's own arrays and the lane-offset arrays of a block of
    lanes (_field) share this kernel.
    """
    xs = x[src]
    xd = x[dst]
    fd = (xs - xd) if f is None else f(xs - xd)
    gv = (xs * xd) if gfun is None else gfun(xs, xd)
    terms = (w * fd) * gv
    return np.bincount(src, weights=terms, minlength=x.size)


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
# n=8 about 3.2 vs 4.3 at any p; n=1000 mean degree 5 39 vs 430.
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
    (B, 2*num_edges) lays out a block of B lanes over a flat state: lane l
    is g restricted to the directed edges its row of keep enables, acting
    on entries [l*n, (l+1)*n), always through the edge kernel.
    """
    if keep is None and _field_kernel(g, spec) == "dense":
        W = g.weights
        fn = lambda x: _dense_field(W, x)
    else:
        f, gfun = (None, None) if spec is None or spec.is_default else (spec.f, spec.g)
        src, dst, w = g.edge_src, g.edge_dst, g.edge_w
        if keep is not None:
            offset = g.n * np.arange(len(keep))[:, None]
            src, dst = (src + offset)[keep], (dst + offset)[keep]
            w = np.broadcast_to(w, keep.shape)[keep]
        fn = lambda x: _edge_field(src, dst, w, x, f, gfun)
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
    boundary). Names are carried for provenance in outputs."""

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
    if f not in BUILTIN_F:
        raise KeyError(f"unknown interaction f {f!r}; choose from {sorted(BUILTIN_F)}")
    if g not in BUILTIN_G:
        raise KeyError(f"unknown interaction g {g!r}; choose from {sorted(BUILTIN_G)}")
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

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": list(self.violations),
            "samples": self.samples,
            "seed": self.seed,
        }


def check_interactions(
    spec: InteractionSpec,
    samples: int = 256,
    sample_range: tuple[float, float] = (0.0, 10.0),
    seed: int = 0,
) -> InteractionCheck:
    """Sampled validation of the interaction hypotheses.

    Checks f odd and positive on positives, g symmetric and vanishing when
    either argument is zero. Violations are report content, not exceptions.
    """
    lo, hi = float(sample_range[0]), float(sample_range[1])
    if lo < 0.0 or hi <= lo:
        raise ValueError(f"sample range must satisfy 0 <= lo < hi, got {sample_range}")
    if samples < 1:
        raise ValueError("need at least one sample")
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
