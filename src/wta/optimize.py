"""Opponent-selection optimization.

Agent alpha chooses which of the other agents to compete with (a binary
mask over candidate edges of fixed weight); the objective is alpha's final
value after integrating the dynamics to a fixed horizon. Exhaustive search
enumerates all masks (guarded), greedy search hill-climbs over bit flips,
and the initial-value sweep evaluates the whole mask table over a grid of
starting values for alpha. Exhaustive search and the sweep integrate their
(initial value, mask) pairs as lanes of one block (_lane_values), bit-for-bit
equal to evaluate_choice; greedy search evaluates one mask at a time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ConfigError, TooManyCandidatesError, read_integer, read_number,
                     read_numbers)
from .graph import Graph, new_graph
from .integrate import IntegratorOptions, _simulate, simulate

__all__ = [
    "OptimizeProblem",
    "OptimizeResult",
    "SweepResult",
    "evaluate_choice",
    "exhaustive_search",
    "greedy_search",
    "sweep_initial_value",
    "mask_to_bits",
]

EXHAUSTIVE_GUARD_BITS = 24
GRID_MAX = 1 << EXHAUSTIVE_GUARD_BITS  # most sweep grid points
TABLE_LIMIT_BITS = 16
TIE_TOL = 1e-12
# (initial value, mask) pairs integrated together as lanes of one block. It
# bounds the block's edge arrays at LANE_BLOCK * 2 * num_edges entries; on
# 9-agent arenas 256 lanes ran the 16 x 256 sweep about twice as fast as
# 1024, whose per-edge temporaries no longer stay in cache
LANE_BLOCK = 256


def mask_to_bits(mask: int, width: int) -> str:
    """Bitstring with character k for candidate k (ascending node id);
    '1' means the edge to that candidate is enabled."""
    return "".join("1" if mask >> k & 1 else "0" for k in range(width))


def bits_to_mask(bits: str) -> int:
    if not set(bits) <= {"0", "1"}:
        raise ConfigError(f"mask bitstring must be 0/1 characters, got {bits!r}")
    return sum(1 << k for k, ch in enumerate(bits) if ch == "1")


@dataclass(frozen=True)
class OptimizeProblem:
    """Fixed arena for the opponent-selection search.

    base_graph carries the edges among the other agents; it must have no
    edges at alpha (those are what the search chooses). x0_others lists the
    other agents' initial values in ascending node-id order.
    """

    base_graph: Graph
    alpha: int
    x_alpha0: float
    x0_others: tuple[float, ...]
    horizon: float
    candidate_weight: float = 1.0
    options: IntegratorOptions = field(
        default_factory=lambda: IntegratorOptions(dt=1e-2, stop_on_equilibrium=True)
    )

    def __post_init__(self):
        n = self.base_graph.n
        # each field is checked under its own name, which is its config key
        checked = {
            "alpha": read_integer(self.alpha, "alpha", 0, n - 1),
            "x_alpha0": read_number(self.x_alpha0, "x_alpha0", lo=0.0),
            "x0_others": tuple(read_numbers(self.x0_others, "x0_others", lo=0.0)),
            "horizon": read_number(self.horizon, "horizon", gt=0.0),
            "candidate_weight": read_number(self.candidate_weight, "candidate_weight", gt=0.0),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.base_graph.neighbors(self.alpha):
            raise ConfigError("base graph must not contain edges at agent alpha")
        if len(self.x0_others) != n - 1:
            raise ConfigError(
                f"x0_others has {len(self.x0_others)} entries, expected {n - 1}"
            )

    @property
    def candidates(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.base_graph.n) if j != self.alpha)

    @property
    def num_candidates(self) -> int:
        return self.base_graph.n - 1

    def initial_state(self, x_alpha0: Optional[float] = None) -> np.ndarray:
        x = np.empty(self.base_graph.n)
        x[list(self.candidates)] = self.x0_others
        x[self.alpha] = self.x_alpha0 if x_alpha0 is None else float(x_alpha0)
        return x

    def total_mass(self, x_alpha0: Optional[float] = None) -> float:
        return float(self.initial_state(x_alpha0).sum())

    def graph_for_mask(self, mask: int) -> Graph:
        if not (0 <= mask < 1 << self.num_candidates):
            raise ConfigError(f"mask {mask} outside [0, 2^{self.num_candidates})")
        edges = self.base_graph.edges()
        for k, j in enumerate(self.candidates):
            if mask >> k & 1:
                a, b = min(self.alpha, j), max(self.alpha, j)
                edges.append((a, b, self.candidate_weight))
        return new_graph(self.base_graph.n, edges)


def evaluate_choice(
    p: OptimizeProblem, mask: int, x_alpha0: Optional[float] = None
) -> float:
    """Final value of agent alpha after simulating with the given mask."""
    g = p.graph_for_mask(mask)
    opts = dataclasses.replace(p.options, t_end=p.horizon)
    traj, _audit = simulate(g, p.initial_state(x_alpha0), opts)
    return float(traj.final_state[p.alpha])


def _lane_values(p: OptimizeProblem, grid: tuple[float, ...]):
    """Yield (x_alpha0, mask, evaluate_choice(p, mask, x_alpha0)) for every
    grid value and mask, grid-major with masks ascending.

    Up to LANE_BLOCK pairs run as lanes of one _simulate block on the
    all-candidates graph, each lane keeping its base edges and the alpha
    edges its mask enables, in that graph's edge order; so each value is
    the same bits evaluate_choice gives.
    """
    m = p.num_candidates
    g = p.graph_for_mask((1 << m) - 1)
    # candidate bit of each directed edge at alpha, -1 for base edges
    other = np.where(g.edge_src == p.alpha, g.edge_dst,
                     np.where(g.edge_dst == p.alpha, g.edge_src, -1))
    bit = np.where(other < 0, -1, other - (other > p.alpha))
    opts = dataclasses.replace(p.options, t_end=p.horizon)
    x = p.initial_state()
    grid_arr = np.array(grid, dtype=float)
    total = len(grid) << m
    for start in range(0, total, LANE_BLOCK):
        pair = np.arange(start, min(start + LANE_BLOCK, total))
        masks = pair & ((1 << m) - 1)
        x_alpha0 = grid_arr[pair >> m]
        keep = (bit < 0) | ((masks[:, None] >> np.maximum(bit, 0)) & 1 == 1)
        x0 = np.tile(x, (len(pair), 1))
        x0[:, p.alpha] = x_alpha0
        final = _simulate(g, x0, opts, "forward", None, keep=keep).states
        yield from zip(x_alpha0.tolist(), masks.tolist(), final[:, p.alpha].tolist())


@dataclass(frozen=True)
class OptimizeResult:
    alpha: int
    best_mask: int
    best_value: float
    evaluations: int
    tie_break_applied: bool
    mode: str  # "exhaustive" | "greedy"
    num_candidates: int
    candidates: tuple[int, ...]
    value_min: float
    value_max: float
    table: Optional[tuple[tuple[int, float], ...]] = None

    @property
    def best_mask_bits(self) -> str:
        return mask_to_bits(self.best_mask, self.num_candidates)

    def to_json_dict(self) -> dict:
        d = {
            "alpha": self.alpha,
            "best_mask": self.best_mask_bits,
            "best_value": self.best_value,
            "evaluations": self.evaluations,
            "tie_break_applied": self.tie_break_applied,
            "mode": self.mode,
            "candidates": list(self.candidates),
            "value_min": self.value_min,
            "value_max": self.value_max,
        }
        if self.table is not None:
            d["table"] = [
                [mask_to_bits(m, self.num_candidates), v] for m, v in self.table
            ]
        return d


def _tie_key(mask: int) -> tuple[int, int]:
    # fewer enabled opponents first, then lexicographically smallest mask
    return (bin(mask).count("1"), mask)


def _fold(best: tuple[int, float, bool], mask: int, v: float) -> tuple[int, float, bool]:
    """Fold (mask, v) into the running (best mask, best value, tie applied):
    a value more than TIE_TOL above the best replaces it; one within TIE_TOL
    is a tie, which keeps the larger value and the mask first by _tie_key."""
    best_mask, best_value, tie = best
    if v > best_value + TIE_TOL:
        return mask, v, tie
    if v >= best_value - TIE_TOL:
        return min(best_mask, mask, key=_tie_key), max(best_value, v), True
    return best


def exhaustive_search(p: OptimizeProblem) -> OptimizeResult:
    """Evaluate every opponent mask and return the argmax.

    Ties within 1e-12 are broken by fewer set bits, then by the smaller
    mask. The full per-mask table is kept up to 2^16 masks; beyond that only
    streamed statistics survive. Guarded at 2^24 evaluations.
    """
    m = p.num_candidates
    if m > EXHAUSTIVE_GUARD_BITS:
        raise TooManyCandidatesError(
            f"{m} candidates means 2^{m} evaluations; guard is 2^{EXHAUSTIVE_GUARD_BITS}"
        )
    keep_table = m <= TABLE_LIMIT_BITS
    table: list[tuple[int, float]] = []
    best = (0, -np.inf, False)
    vmin, vmax = np.inf, -np.inf
    for _x0, mask, v in _lane_values(p, (p.x_alpha0,)):
        if keep_table:
            table.append((mask, v))
        vmin = min(vmin, v)
        vmax = max(vmax, v)
        best = _fold(best, mask, v)
    best_mask, best_value, tie_applied = best
    return OptimizeResult(
        alpha=p.alpha,
        best_mask=best_mask,
        best_value=best_value,
        evaluations=1 << m,
        tie_break_applied=tie_applied,
        mode="exhaustive",
        num_candidates=m,
        candidates=p.candidates,
        value_min=vmin,
        value_max=vmax,
        table=tuple(table) if keep_table else None,
    )


def greedy_search(
    p: OptimizeProblem, restarts: int = 8, seed: int = 0
) -> OptimizeResult:
    """Hill-climbing over single-bit flips from seeded random start masks.

    Heuristic: never exceeds the exhaustive optimum (same objective), and is
    deterministic for a fixed seed. Evaluations are memoized across restarts;
    restarts is an integer >= 1.
    """
    restarts = read_integer(restarts, "restarts", lo=1)
    m = p.num_candidates
    rng = np.random.default_rng(seed)
    cache: dict[int, float] = {}

    def value(mask: int) -> float:
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
    best_mask, best_value, tie_applied = best
    values = list(cache.values())
    return OptimizeResult(
        alpha=p.alpha,
        best_mask=best_mask,
        best_value=best_value,
        evaluations=len(cache),
        tie_break_applied=tie_applied,
        mode="greedy",
        num_candidates=m,
        candidates=p.candidates,
        value_min=min(values),
        value_max=max(values),
        table=None,
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-(initial value, mask) final values: the scatter behind the
    final-vs-initial figure."""

    alpha: int
    grid: tuple[float, ...]
    num_candidates: int
    rows: tuple[tuple[float, int, float], ...]  # (x_alpha0, mask, final value)
    others_mass: float  # sum of the fixed agents' initial values

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("x_alpha0,mask,final_value\n")
            for x0, mask, v in self.rows:
                fh.write(
                    f"{x0:.17g},{mask_to_bits(mask, self.num_candidates)},{v:.17g}\n"
                )


def sweep_initial_value(p: OptimizeProblem, x_alpha0_grid) -> SweepResult:
    """Evaluate every mask at every grid value of alpha's initial state:
    a list, tuple or 1-d array of finite nonnegative numbers.

    Guarded at 2^24 evaluations in all: grid points times 2^m masks.
    """
    m = p.num_candidates
    if len(x_alpha0_grid) << m > 1 << EXHAUSTIVE_GUARD_BITS:
        raise TooManyCandidatesError(
            f"{len(x_alpha0_grid)} grid points x 2^{m} masks is more than the "
            f"2^{EXHAUSTIVE_GUARD_BITS} evaluations the guard allows"
        )
    grid = tuple(read_numbers(x_alpha0_grid, "x_alpha0_grid", lo=0.0))
    return SweepResult(
        alpha=p.alpha,
        grid=grid,
        num_candidates=m,
        rows=tuple(_lane_values(p, grid)),
        others_mass=float(sum(p.x0_others)),
    )
