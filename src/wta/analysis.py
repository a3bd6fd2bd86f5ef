"""Equilibrium detection, classification, and stability analysis.

An equilibrium has losers at zero and winners positive, with equal values
across any edge joining two winners. Equilibria whose winner set is an
independent set are the stable class ("E_s"); those with at least one edge
between equal-valued winners are unstable ("E_u"), which the linearization
at the equilibrium and a perturbation run both witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _quiet_overflow, laplacian, prepare_state, vector_field
from .errors import (SEED_MAX, ComponentTooSmallError, ConfigError, EmptyStateError,
                     NonFiniteStateError, NotEuError, NotSymmetricError, read_array,
                     read_integer, read_number)
from .graph import Graph, _components, induced_subgraph
from .integrate import IntegratorOptions, _variance, simulate

__all__ = [
    "entropy",
    "EquilibriumReport",
    "classify_equilibrium",
    "SpectrumReport",
    "linearize_at",
    "symmetric_eigenvalues",
    "EscapeReport",
    "perturb_and_escape",
]


def entropy(x) -> float:
    """Population variance of the state: (1/n) sum_i (x_i - mean)^2,
    computed by np.var in two passes, mean first; inf when it is past the
    double range. x is a nonempty 1-d vector of finite numbers."""
    arr = read_array(x, "state")
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyStateError(f"entropy needs a nonempty 1-d vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteStateError("state has a NaN or infinite component")
    return float(_variance(arr))


@dataclass(frozen=True)
class EquilibriumReport:
    winners: tuple[int, ...]
    losers: tuple[int, ...]
    klass: str  # "E_s" | "E_u" | "not_equilibrium"
    residual: float
    winner_components: tuple[tuple[tuple[int, ...], float], ...]
    zero_tol: float
    equal_tol: float

    def to_json_dict(self) -> dict:
        return {
            "winners": list(self.winners),
            "losers": list(self.losers),
            "class": self.klass,
            "residual": self.residual,
            "winner_components": [
                {"nodes": list(nodes), "value": value}
                for nodes, value in self.winner_components
            ],
            "zero_tol": self.zero_tol,
            "equal_tol": self.equal_tol,
        }


def classify_equilibrium(
    g: Graph,
    x,
    zero_tol: float = 1e-8,
    equal_tol: float = 1e-6,
) -> EquilibriumReport:
    """Partition agents into winners/losers at the given state and decide
    whether it is an equilibrium and of which class.

    Losers are components below zero_tol; the state is not an equilibrium
    when the field residual is large or when adjacent winners disagree in
    value beyond equal_tol. Both tolerances are numbers >= 0.
    """
    zero_tol = read_number(zero_tol, "zero_tol", lo=0.0)
    equal_tol = read_number(equal_tol, "equal_tol", lo=0.0)
    x = prepare_state(x, g.n)
    won = x >= zero_tol
    losers = tuple(np.flatnonzero(~won).tolist())
    winners = tuple(np.flatnonzero(won).tolist())
    residual = float(np.abs(vector_field(g, x)).max())

    components: list[tuple[tuple[int, ...], float]] = []
    equal_ok = True
    for nodes in _components(g, won):
        values = x[list(nodes)]
        c = float(values.mean())
        if np.abs(values - c).max() > equal_tol * max(1.0, c):
            equal_ok = False
        components.append((nodes, c))

    if not residual < 1e-6 * (1.0 + float(x.max())) or not equal_ok:
        klass = "not_equilibrium"
    elif any(len(nodes) > 1 for nodes, _c in components):  # winners share an edge
        klass = "E_u"
    else:
        klass = "E_s"

    return EquilibriumReport(
        winners=winners,
        losers=losers,
        klass=klass,
        residual=residual,
        winner_components=tuple(components),
        zero_tol=zero_tol,
        equal_tol=equal_tol,
    )


@_quiet_overflow
def symmetric_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric real matrix, sorted ascending: numpy's
    ``eigvalsh`` of its symmetric part, once the matrix is found symmetric
    within 1e-12 relative to its largest entry. Every entry is finite, and
    so is every entry of a + a.T, else NonFiniteStateError."""
    a = read_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetricError(f"matrix must be square, got shape {a.shape}")
    twice = a + a.T  # NaN or infinite where an entry is, or past half the double range
    if not np.isfinite(twice).all():
        raise NonFiniteStateError("matrix has a NaN or infinite entry, or a + a.T overflows")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-12 * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-12 relative")
    return np.linalg.eigvalsh(0.5 * twice)


@dataclass(frozen=True)
class SpectrumReport:
    subgraph: tuple[int, ...]
    common_value: float
    eigenvalues: tuple[float, ...]
    verdict: str  # "unstable" | "inconclusive"


def linearize_at(
    g: Graph,
    report: EquilibriumReport,
    component_index: int = 0,
) -> SpectrumReport:
    """Spectrum of the linearized dynamics restricted to one connected
    winner component at an unstable-class equilibrium.

    The linearized system matrix is c^2 times the standard graph Laplacian
    of the induced winner subgraph; for a connected component of size >= 2
    it has one zero eigenvalue and the rest positive, hence instability.
    component_index is an integer >= 0.
    """
    component_index = read_integer(component_index, "component_index", lo=0)
    if report.klass != "E_u":
        raise NotEuError(f"linearization requires class E_u, got {report.klass!r}")
    try:
        nodes, c = report.winner_components[component_index]
    except IndexError:
        raise ComponentTooSmallError(
            f"no winner component at index {component_index}"
        ) from None
    if len(nodes) < 2:
        raise ComponentTooSmallError(
            f"winner component {nodes} has fewer than 2 nodes"
        )
    sub, _mapping = induced_subgraph(g, nodes)
    eigs = symmetric_eigenvalues(laplacian(sub, np.full(sub.n, c)))
    verdict = "unstable" if len(eigs) >= 2 and eigs[1] > 1e-10 else "inconclusive"
    return SpectrumReport(
        subgraph=nodes,
        common_value=c,
        eigenvalues=tuple(float(v) for v in eigs),
        verdict=verdict,
    )


@dataclass(frozen=True)
class EscapeReport:
    escaped: bool
    delta: float
    max_deviation: float
    final_class: str
    final_state: tuple[float, ...]
    seed: int


def perturb_and_escape(
    g: Graph,
    x_eq,
    magnitude: Optional[float] = None,
    seed: int = 0,
    t_end: float = 50.0,
) -> EscapeReport:
    """Dynamic instability witness for an E_u equilibrium.

    Applies a small zero-sum random perturbation to the winner nodes (so
    escape cannot be blamed on a mass change), simulates forward, and
    reports whether the trajectory left a 100*delta neighborhood. magnitude
    is a number >= 0 and at most the smallest winner, so no winner is
    pushed below zero (by default 1e-4 times the largest entry, or the
    smallest winner if that is less); seed is an integer in [0, 2^64 - 1].
    """
    if magnitude is not None:
        magnitude = read_number(magnitude, "magnitude", lo=0.0)
    seed = read_integer(seed, "seed", 0, SEED_MAX)
    x_eq = prepare_state(x_eq, g.n)
    report = classify_equilibrium(g, x_eq)
    if report.klass != "E_u":
        raise NotEuError(f"perturb_and_escape requires class E_u, got {report.klass!r}")
    widx = np.array(report.winners)
    smallest = float(x_eq[widx].min())
    if magnitude is None:
        delta = min(1e-4 * float(x_eq.max()), smallest)
    elif magnitude > smallest:
        raise ConfigError(f"magnitude must be <= {smallest!r}, the smallest winner, "
                          f"got {magnitude!r}")
    else:
        delta = magnitude

    perturbed = x_eq.copy()
    if delta > 0.0:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(len(widx))
        v -= v.mean()
        if np.abs(v).max() == 0.0:  # measure-zero draw; any zero-sum pattern works
            v = np.zeros(len(widx))
            v[0], v[1] = 1.0, -1.0
            v -= v.mean()
        v *= delta / np.abs(v).max()
        # delta <= every winner, so this clamp takes at most round-off
        perturbed[widx] = np.maximum(perturbed[widx] + v, 0.0)

    opts = IntegratorOptions(
        dt=1e-3,
        t_end=t_end,
        record_stride=10,
        stop_on_equilibrium=True,
        equilibrium_tol=1e-10,
    )
    traj, _audit = simulate(g, perturbed, opts)
    dev = float(np.abs(traj.states - x_eq[None, :]).max())
    final = traj.final_state
    final_report = classify_equilibrium(g, final)
    return EscapeReport(
        escaped=dev > 100.0 * delta,
        delta=delta,
        max_deviation=dev,
        final_class=final_report.klass,
        final_state=tuple(float(v) for v in final),
        seed=seed,
    )
