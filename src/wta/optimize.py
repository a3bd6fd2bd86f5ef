"""Opponent-selection optimization.

Agent alpha chooses which of the other agents to compete with (a binary
mask over candidate edges of fixed weight); the objective is alpha's final
value after integrating the dynamics to a fixed horizon. Exhaustive search
enumerates all masks (guarded), greedy search hill-climbs over bit flips,
and the initial-value sweep evaluates the whole mask table over a grid of
starting values for alpha. Each problem builds its arena once: the graph
with every candidate edge, from which a mask keeps its base edges and the
alpha edges it enables. Exhaustive search, the sweep and greedy search
integrate their (initial value, mask) pairs as lanes of blocks on the arena
(_lane_values), bit-for-bit equal to evaluate_choice: exhaustive search and
the sweep send every pair; greedy search climbs up to LANE_BLOCK restarts
in lockstep and sends each round's new asks as one block. Greedy's first
start mask and its dense-kernel masks run alone through evaluate_choice.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import _dense_fits
from .errors import (SEED_MAX, ConfigError, TooManyCandidatesError, read_integer,
                     read_number, read_numbers)
from .graph import MAX_AGENTS, Graph, _finish, new_graph
from .integrate import MAX_STEPS, IntegratorOptions, _simulate, _write_csv, simulate
from . import svg

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
# Most restarts greedy_search takes. A restart whose masks are all memoized
# took about 3.3 us on a 3-agent arena and 3.9 us on the README's 9-agent
# one (2 vCPUs, numpy 2.4.6; process time from 2^12 to 2^16 restarts, the
# least of 7 runs each), and 2^16 restarts took 0.24 s and 0.49 s in all;
# each mask not yet evaluated adds one lane, or one run if its graph fits
# the dense kernel. Restarts climb LANE_BLOCK at a time, which bounds each
# round's block and the climbs held at once.
MAX_RESTARTS = 1 << 16
# (initial value, mask) pairs integrated together as lanes of one block. It
# bounds the block's edge arrays at LANE_BLOCK * 2 * num_edges entries; on
# 9-agent arenas 256 lanes ran the 16 x 256 sweep about twice as fast as
# 1024, whose per-edge temporaries no longer stay in cache
LANE_BLOCK = 256


def mask_to_bits(mask: int, width: int) -> str:
    """Bitstring with character k for candidate k (ascending node id);
    '1' means the edge to that candidate is enabled. mask is an integer in
    [0, 2^width) and width one in [0, MAX_AGENTS]."""
    mask = read_integer(mask, "mask", lo=0)
    width = read_integer(width, "width", 0, MAX_AGENTS)
    if mask >> width:
        raise ConfigError(f"mask must be below 2^width = 2^{width}, got {mask}")
    return "".join("1" if mask >> k & 1 else "0" for k in range(width))


class _MaskBits:
    """A column of masks as text, mask_to_bits of each, made a slice of
    rows at a time from the masks' bytes: a text column for _write_csv."""

    def __init__(self, masks: Sequence[int], width: int):
        self.masks = masks
        self.width = read_integer(width, "width", 0, MAX_AGENTS)

    def __getitem__(self, rows: slice) -> np.ndarray:
        width = self.width
        masks = [m if type(m) is int else read_integer(m, "mask", lo=0)
                 for m in self.masks[rows]]
        size = width // 8 + 1  # a byte past the bits, where a mask >= 2^width shows
        try:
            raw = b"".join(m.to_bytes(size, "little") for m in masks)
        except OverflowError:  # below 0, or at least 2^(8 * size)
            raw = b""
        bits = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, size), axis=1,
                             bitorder="little")
        if len(bits) < len(masks) or bits[:, width:].any():
            for mask in masks:
                mask_to_bits(mask, width)  # raises ConfigError at the first bad mask
        # one NUL column past the bits, so that width 0 gives b""
        text = np.zeros((len(masks), width + 1), np.uint8)
        np.add(bits[:, :width], ord("0"), out=text[:, :width])
        return text.view(f"S{width + 1}").ravel()


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
        if not isinstance(self.options, IntegratorOptions):
            raise ConfigError(f"options must be IntegratorOptions, got {self.options!r}")
        # the arena: the graph with every candidate edge, the candidate bit of
        # each of its edges i < j (-1 for base edges) and the run options,
        # which record only the first and last stamps: a search reads nothing
        # but alpha's final value, and a skipped record keeps every bit
        a = self.alpha
        arena = new_graph(n, self.base_graph.edges() + [
            (min(a, j), max(a, j), self.candidate_weight) for j in self.candidates])
        m = arena.num_edges
        src, dst = arena.edge_src[m:], arena.edge_dst[m:]
        other = src + dst - a
        object.__setattr__(self, "_arena", arena)
        object.__setattr__(self, "_edge_bit", np.where(
            (src == a) | (dst == a), other - (other > a), -1))
        object.__setattr__(self, "_run_options", dataclasses.replace(
            self.options, t_end=self.horizon, record_stride=MAX_STEPS))

    @property
    def candidates(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.base_graph.n) if j != self.alpha)

    @property
    def num_candidates(self) -> int:
        return self.base_graph.n - 1

    def initial_state(self, x_alpha0: Optional[float] = None) -> np.ndarray:
        x = np.empty(self.base_graph.n)
        x[list(self.candidates)] = self.x0_others
        x[self.alpha] = (self.x_alpha0 if x_alpha0 is None
                         else read_number(x_alpha0, "x_alpha0", lo=0.0))
        return x

    def total_mass(self, x_alpha0: Optional[float] = None) -> float:
        return float(self.initial_state(x_alpha0).sum())

    def _keep(self, masks: Sequence[int]) -> np.ndarray:
        """(len(masks), arena edges) bool over the edges in arena.edges() order:
        every base edge and the alpha edge to each candidate whose bit is set.
        Bits come from bytes, so a mask may be any width."""
        # a trailing 0x80 byte sets the last column, which base edges (bit -1) read
        width = (self.num_candidates + 7) // 8 + 1
        raw = b"".join(k.to_bytes(width - 1, "little") + b"\x80" for k in masks)
        on = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(masks), width), axis=1,
                           bitorder="little")
        return on[:, self._edge_bit] == 1

    def graph_for_mask(self, mask: int) -> Graph:
        """The arena restricted to the edges the mask enables (no new check needed)."""
        mask = read_integer(mask, "mask", 0, (1 << self.num_candidates) - 1)
        g, m = self._arena, self._arena.num_edges
        keep = self._keep([mask])[0]
        return _finish(g.n, g.edge_src[m:][keep], g.edge_dst[m:][keep], g.edge_w[m:][keep])


def evaluate_choice(p: OptimizeProblem, mask: int, x_alpha0: Optional[float] = None) -> float:
    """Final value of agent alpha after simulating with the given mask."""
    traj, _audit = simulate(p.graph_for_mask(mask), p.initial_state(x_alpha0), p._run_options)
    return float(traj.final_state[p.alpha])


def _lane_values(p: OptimizeProblem, pairs: Iterable[tuple[float, int]]):
    """Yield (x_alpha0, mask, value) for each (x_alpha0, mask) of pairs, in
    order, reading pairs LANE_BLOCK at a time.

    Each block of pairs runs as lanes of one _simulate block on the arena,
    each lane keeping the edges of graph_for_mask in the arena's order, so
    each value is the bits evaluate_choice(p, mask, x_alpha0) gives when the
    mask's own graph runs the edge kernel, as lanes always do.
    """
    x = p.initial_state()
    pairs = iter(pairs)
    while block := tuple(itertools.islice(pairs, LANE_BLOCK)):
        x_alpha0, masks = zip(*block)
        x_alpha0 = np.array(x_alpha0, dtype=float)
        x0 = np.tile(x, (len(block), 1))
        x0[:, p.alpha] = x_alpha0
        final = _simulate(p._arena, x0, p._run_options, "forward", None,
                          keep=p._keep(masks)).states
        yield from zip(x_alpha0.tolist(), masks, final[:, p.alpha].tolist())


def _guard(grid_points: int, m: int) -> None:
    """Refuse more than 2^24 evaluations: grid points times 2^m masks."""
    if grid_points << m > 1 << EXHAUSTIVE_GUARD_BITS:
        raise TooManyCandidatesError(f"{grid_points} grid point(s) x 2^{m} masks is more "
                                     f"than the guard's 2^{EXHAUSTIVE_GUARD_BITS} evaluations")


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


def _result(p: OptimizeProblem, mode: str, best: tuple[int, float, bool],
            evaluations: int, vmin: float, vmax: float, table=None) -> OptimizeResult:
    best_mask, best_value, tie_applied = best
    return OptimizeResult(p.alpha, best_mask, best_value, evaluations, tie_applied, mode,
                          p.num_candidates, p.candidates, vmin, vmax, table)


def exhaustive_search(p: OptimizeProblem) -> OptimizeResult:
    """Evaluate every opponent mask and return the argmax.

    Ties within 1e-12 are broken by fewer set bits, then by the smaller
    mask. The full per-mask table is kept up to 2^16 masks; beyond that only
    streamed statistics survive. Guarded at 2^24 evaluations.
    """
    m = p.num_candidates
    _guard(1, m)
    keep_table = m <= TABLE_LIMIT_BITS
    table: list[tuple[int, float]] = []
    best = (0, -np.inf, False)
    vmin, vmax = np.inf, -np.inf
    for _x0, mask, v in _lane_values(p, ((p.x_alpha0, mask) for mask in range(1 << m))):
        if keep_table:
            table.append((mask, v))
        vmin, vmax = min(vmin, v), max(vmax, v)
        best = _fold(best, mask, v)
    return _result(p, "exhaustive", best, 1 << m, vmin, vmax,
                   tuple(table) if keep_table else None)


def greedy_search(p: OptimizeProblem, restarts: int = 8, seed: int = 0) -> OptimizeResult:
    """Hill-climbing over single-bit flips from seeded random start masks.

    Heuristic: never exceeds the exhaustive optimum (same objective), and is
    deterministic for a fixed seed. Evaluations are memoized across restarts;
    restarts is an integer in [1, MAX_RESTARTS], seed one in [0, 2^64 - 1],
    and the arena has at most 63 candidates.

    The climbs run in lockstep, LANE_BLOCK restarts at a time in restart
    order. In each round every running climb asks for the next mask it
    reads that no earlier round evaluated, and the distinct asks run as
    lanes of one block; a mask whose own graph runs the dense kernel, whose
    bits lanes would not reproduce, runs alone through evaluate_choice, as
    does the first start mask before any round. Only asked masks are
    evaluated, memoized and counted, and the end points fold in restart
    order, so the result has the bits of climbing one restart after
    another, one mask at a time. One restart sends one lane a round, so its
    blocks share nothing; 8 or more restarts fill them.
    """
    restarts = read_integer(restarts, "restarts", 1, MAX_RESTARTS)
    rng = np.random.default_rng(read_integer(seed, "seed", 0, SEED_MAX))
    m = p.num_candidates
    if m > 63:  # the start masks are drawn as int64 below 2^m
        raise TooManyCandidatesError(f"greedy search takes at most 63 candidates, got {m}")
    n, base_edges = p.base_graph.n, p.base_graph.num_edges
    # scalar draws keep the seed's start masks; the first one runs alone, so
    # every call makes a public simulate call
    starts = [int(rng.integers(0, 1 << m)) for _ in range(restarts)]
    cache = {starts[0]: evaluate_choice(p, starts[0])}  # the masks the climbs asked for

    def climb(i: int, mask: int):
        """Restart i's first-improvement climb over single-bit flips from
        mask: yields each mask it reads that cache lacks, then records the
        mask and value it ends on as ends[i]."""
        if mask not in cache:
            yield mask
        cur, improved = cache[mask], True
        while improved:
            improved = False
            for k in range(m):
                cand = mask ^ (1 << k)
                if cand not in cache:
                    yield cand
                if cache[cand] > cur + TIE_TOL:
                    mask, cur, improved = cand, cache[cand], True
        ends[i] = mask, cur

    best = (0, -np.inf, False)
    for w in range(0, restarts, LANE_BLOCK):
        window = starts[w:w + LANE_BLOCK]
        ends = [None] * len(window)
        climbs = [climb(i, mask) for i, mask in enumerate(window)]
        while climbs:
            # one round: each running climb's next ask, then one block of them
            climbs = {c: ask for c in climbs if (ask := next(c, None)) is not None}
            asks = dict.fromkeys(climbs.values())
            dense = [c for c in asks if _dense_fits(n, base_edges + c.bit_count())]
            cache.update((c, evaluate_choice(p, c)) for c in dense)
            cache.update((c, v) for _x0, c, v in _lane_values(
                p, ((p.x_alpha0, c) for c in asks if c not in dense)))
        for end in ends:  # in restart order: near-ties make _fold order-sensitive
            best = _fold(best, *end)
    return _result(p, "greedy", best, len(cache), min(cache.values()), max(cache.values()))


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
        """Header x_alpha0,mask,final_value, one row per (value, mask)."""
        x0, masks, values = zip(*self.rows) if self.rows else ((), (), ())
        _write_csv(path, ["x_alpha0", "mask", "final_value"],
                   [np.array(x0, float), _MaskBits(masks, self.num_candidates),
                    np.array(values, float)])

    def write_svg(self, path, star: Optional[tuple[float, float]] = None) -> None:
        """Final vs. initial value, with lines y = x + others_mass and y = x; * marks star."""
        svg.scatter_chart([(x0, v) for x0, _mask, v in self.rows], path,
                          title="Final vs. initial value over all opponent masks",
                          x_label="initial value", y_label="final value",
                          ref_lines=[(1.0, self.others_mass), (1.0, 0.0)], star=star)


def sweep_initial_value(p: OptimizeProblem, x_alpha0_grid) -> SweepResult:
    """Evaluate every mask at every grid value of alpha's initial state:
    a nonempty list, tuple or 1-d array of finite nonnegative numbers.

    Guarded at 2^24 evaluations in all: grid points times 2^m masks.
    """
    m = p.num_candidates
    # a list, tuple or 1-d array is counted before it is read, at about
    # 1.8 us a value
    grid = x_alpha0_grid
    if isinstance(grid, (list, tuple, np.ndarray)) and getattr(grid, "ndim", 1) == 1:
        _guard(len(grid), m)
    grid = tuple(read_numbers(grid, "x_alpha0_grid", lo=0.0))
    if not grid:
        raise ConfigError("x_alpha0_grid must hold at least one value, got none")
    return SweepResult(
        alpha=p.alpha,
        grid=grid,
        num_candidates=m,
        rows=tuple(_lane_values(p, ((x0, mask) for x0 in grid for mask in range(1 << m)))),
        others_mass=float(sum(p.x0_others)),
    )
