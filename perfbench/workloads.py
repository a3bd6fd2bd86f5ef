"""The benchmark's workloads: inputs drawn from the seed, the program calls
one pass makes, and the checks on each call's outputs.

Each workload's amount of work is fixed by design, so that run time does
not depend on the seed; README.md says how each one achieves that.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import wta
import wta.cli

Checks = list[tuple[str, bool]]


@dataclass
class Op:
    """One timed call into the program and the check of what it produced."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Checks]


def _cli(*argv: str) -> Callable[[], int]:
    def call() -> int:
        rc = wta.cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"wta {argv[0]} exited with code {rc}")
        return rc

    return call


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _conserved(mass, mass0: float) -> bool:
    return bool(np.all(np.abs(np.asarray(mass, dtype=float) - mass0) <= 1e-9 * mass0))


def _audit_ok(audit: dict) -> bool:
    return audit["max_abs_drift"] <= 1e-9 * audit["initial_mass"]


def _monotone(values: np.ndarray, sign: float) -> bool:
    """sign=+1: nondecreasing, -1: nonincreasing, up to 1e-12 of the scale."""
    slack = 1e-12 * float(np.abs(values).max())
    return bool(np.all(sign * np.diff(values) >= -slack))


def _connected_graph(n: int, p: float, seed: int):
    """First connected G(n, p) draw from the seeds seed, seed+1000, ..."""
    for k in range(200):
        g = wta.graph.random_graph(n, p, "unit", seed=seed + 1000 * k)
        if len(wta.graph.connected_components(g)) == 1:
            return g
    raise RuntimeError(f"no connected G({n}, {p}) from seed {seed}")


def _write_config(path: Path, cfg: dict) -> str:
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


# --- arena_search: wta optimize, exhaustive, greedy and --sweep ---

# A 6-agent arena drawn like the acceptance suite's 9-agent optimizer
# instance (first connected G(n, p) draw from seed 40, x0 from seed 41), so
# that each optimize call is a fraction of a second: see README.md,
# "Steadiness".
ARENA_N = 6
ARENA_P = 0.5
ARENA_CANDIDATES = ARENA_N - 1
ARENA_MASKS = 1 << ARENA_CANDIDATES
ARENA_HORIZON = 1.25  # a quarter of the suite's 5, for the same reason
ARENA_GRAPH_SEED = 40
ARENA_X0_SEED = 41
ARENA_SWEEP_GRID = [0.75]
# enough restarts that greedy evaluates 31 or 32 of the 32 masks on every
# seed, so that its work does not depend on the seed (at 8 it took 19 to 24)
ARENA_GREEDY_RESTARTS = 64


def arena_search(rng: np.random.Generator, work: Path) -> list[Op]:
    # Freshly drawn arenas differ up to 2x in integration steps (most
    # evaluations either stop early or run to the horizon), so the seed
    # relabels the opponents of one fixed arena and seeds greedy's
    # restarts instead of drawing a new arena.
    arena = _connected_graph(ARENA_N, ARENA_P, ARENA_GRAPH_SEED)
    x0 = np.random.default_rng(ARENA_X0_SEED).uniform(0.05, 1.0, ARENA_N)
    label = np.concatenate([[0], 1 + rng.permutation(ARENA_CANDIDATES)])  # old id -> new id
    x_new = np.empty(ARENA_N)
    x_new[label] = x0
    edges = sorted(
        [min(label[i], label[j]), max(label[i], label[j]), w]
        for i, j, w in arena.edges()
        if 0 not in (i, j)
    )
    cfg = {
        "graph": {"inline": {"n": ARENA_N, "edges": [[int(i), int(j), w] for i, j, w in edges]}},
        "alpha": 0,
        "x_alpha0": float(x_new[0]),
        "x0_others": [float(v) for v in x_new[1:]],
        "horizon": ARENA_HORIZON,
        "integrator": {"dt": 1e-2, "stop_on_equilibrium": True, "equilibrium_tol": 1e-9},
        "greedy": {"restarts": ARENA_GREEDY_RESTARTS, "seed": int(rng.integers(2**31))},
        "sweep_grid": ARENA_SWEEP_GRID,
    }
    config = _write_config(work / "optimize.json", cfg)
    others = float(sum(cfg["x0_others"]))
    total = others + cfg["x_alpha0"]
    cap = total * (1.0 + 1e-9)
    out = {name: work / name for name in ("exhaustive", "greedy", "sweep")}
    common = ("--config", config, "--quiet")

    def check_exhaustive(_rc) -> Checks:
        res = _read_json(out["exhaustive"] / "optimize.json")
        table = dict(res["table"])
        values = list(table.values())
        return [
            ("exhaustive.evaluations", res["evaluations"] == ARENA_MASKS and len(table) == ARENA_MASKS),
            ("exhaustive.mask0_is_x_alpha0", table["0" * ARENA_CANDIDATES] == cfg["x_alpha0"]),
            ("exhaustive.table_in_mass_range", all(0.0 <= v <= cap for v in values)),
            ("exhaustive.best_is_table_max", abs(res["best_value"] - max(values)) <= 1e-12),
            ("exhaustive.best_mask_value", abs(table[res["best_mask"]] - res["best_value"]) <= 1e-12),
        ]

    def check_greedy(_rc) -> Checks:
        res = _read_json(out["greedy"] / "optimize.json")
        exh = _read_json(out["exhaustive"] / "optimize.json")
        table = dict(exh["table"])
        return [
            ("greedy.not_above_exhaustive", res["best_value"] <= exh["best_value"] + 1e-12),
            ("greedy.matches_table", abs(table[res["best_mask"]] - res["best_value"]) <= 1e-9 * total),
            ("greedy.range", 0.0 <= res["value_min"] <= res["value_max"] <= cap),
        ]

    def check_sweep(_rc) -> Checks:
        with open(out["sweep"] / "sweep.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        in_range = zero_mask = True
        for x_alpha0, mask, value in rows:
            a, v = float(x_alpha0), float(value)
            in_range &= 0.0 <= v <= (others + a) * (1.0 + 1e-9)
            if mask == "0" * ARENA_CANDIDATES:
                zero_mask &= v == a
        return [
            ("sweep.rows", len(rows) == ARENA_MASKS * len(ARENA_SWEEP_GRID)),
            ("sweep.in_mass_range", in_range),
            ("sweep.mask0_is_x_alpha0", zero_mask),
        ]

    return [
        Op("optimize_exhaustive",
           _cli("optimize", *common, "--mode", "exhaustive", "--out", str(out["exhaustive"])),
           check_exhaustive),
        Op("optimize_greedy",
           _cli("optimize", *common, "--mode", "greedy", "--out", str(out["greedy"])),
           check_greedy),
        Op("optimize_sweep",
           _cli("optimize", *common, "--sweep", "--out", str(out["sweep"])),
           check_sweep),
    ]


# --- dense_fan: wta experiment fig1_bars and fig2_trajectories ---

# A quarter of the presets' t_end of 1.0, so that each experiment call is a
# fraction of a second: see README.md, "Steadiness".
DENSE_T_END = 0.25


def dense_fan(rng: np.random.Generator, work: Path) -> list[Op]:
    exp_seed = str(int(rng.integers(2**31)))
    fig1, fig2 = work / "fig1", work / "fig2"

    def check_fig1(_rc) -> Checks:
        report = _read_json(fig1 / "report.json")
        audit = report["summary"]["audit"]
        _header, data = _read_csv(fig1 / "fig1_states.csv")
        initial, final = data[:, 1], data[:, 2]
        return [
            ("fig1.audit_drift", _audit_ok(audit)),
            ("fig1.final_nonnegative", bool(np.all(final >= 0.0))),
            ("fig1.final_mass", _conserved(final.sum(), float(initial.sum()))),
            ("fig1.seed", report["manifest"]["seed"] == int(exp_seed)),
        ]

    def check_fig2(_rc) -> Checks:
        summary = _read_json(fig2 / "report.json")["summary"]
        checks = [
            ("fig2.forward_audit_drift", _audit_ok(summary["forward_audit"])),
            ("fig2.reverse_audit_drift", _audit_ok(summary["reverse_audit"])),
        ]
        for branch, sign in (("forward", 1.0), ("reverse", -1.0)):
            header, data = _read_csv(fig2 / f"fig2_{branch}.csv")
            states = data[:, 1 : header.index("mass")]
            entropy = data[:, header.index("entropy")]
            checks += [
                (f"fig2.{branch}_nonnegative", bool(np.all(states >= 0.0))),
                (f"fig2.{branch}_mass", _conserved(states.sum(axis=1), float(states[0].sum()))),
                # forward entropy never falls; the reverse (consensus) run never raises it
                (f"fig2.{branch}_entropy_monotone", _monotone(entropy, sign)),
            ]
        return checks

    common = ("--seed", exp_seed, "--t-end", repr(DENSE_T_END), "--quiet")
    return [
        Op("experiment_fig1_bars",
           _cli("experiment", "fig1_bars", *common, "--out", str(fig1)), check_fig1),
        Op("experiment_fig2_trajectories",
           _cli("experiment", "fig2_trajectories", *common, "--out", str(fig2)), check_fig2),
    ]


# --- sparse_large: wta simulate on a large sparse random graph ---

SPARSE_N = 1000
SPARSE_MEAN_DEGREE = 5.0


def sparse_large(rng: np.random.Generator, work: Path) -> list[Op]:
    graph_seed, x0_seed = (int(s) for s in rng.integers(2**31, size=2))
    cfg = {
        "graph": {"random": {"n": SPARSE_N, "p": SPARSE_MEAN_DEGREE / (SPARSE_N - 1),
                             "seed": graph_seed}},
        "x0": {"random": {"low": 0.0, "high": 1.0, "seed": x0_seed}},
        "integrator": {"dt": 1e-3, "t_end": 0.5, "record_stride": 50},
    }
    config = _write_config(work / "simulate.json", cfg)
    # the documented x0 draw, made here to check the program against
    x0 = np.random.default_rng(x0_seed).uniform(0.0, 1.0, SPARSE_N)
    out = work / "simulate"

    def check(_rc) -> Checks:
        report = _read_json(out / "report.json")
        final = np.asarray(report["final_state"])
        header, data = _read_csv(out / "trajectory.csv")
        states = data[:, 1 : header.index("mass")]
        winners = [int(i) for i in np.nonzero(final >= 1e-8)[0]]
        return [
            ("simulate.audit_drift", _audit_ok(report["audit"])),
            ("simulate.initial_mass", _conserved(report["audit"]["initial_mass"], float(x0.sum()))),
            ("simulate.final_mass", _conserved(final.sum(), float(x0.sum()))),
            ("simulate.nonnegative", bool(np.all(states >= 0.0) and np.all(final >= 0.0))),
            ("simulate.initial_state", bool(np.array_equal(states[0], x0))),
            ("simulate.steps", report["steps_taken"] == 500 and len(states) == 11),
            ("simulate.winners", report["classification"]["winners"] == winners),
        ]

    return [
        Op("simulate",
           _cli("simulate", "--config", config, "--quiet", "--out", str(out)),
           check),
    ]


# --- eu_spectra: classification, linearization and escape at E_u ---

EU_VALUE = 0.5  # the common value c of the all-equal state
# Escape runs end at a fixed time, before any reaches equilibrium, so their
# step count does not depend on the seed. The triangle's unstable rate is
# c^2 * 3 = 0.75, so it needs about 6 time units to grow the perturbation
# 100-fold; the random graphs' largest rates are several times higher.
EU_ESCAPE_T_END = {"n40": 5.0, "n60": 5.0, "triangle": 10.0}


def _laplacian_from_edges(g) -> np.ndarray:
    lap = np.zeros((g.n, g.n))
    for i, j, w in g.edges():
        lap[i, j] = lap[j, i] = -w
        lap[i, i] += w
        lap[j, j] += w
    return lap


def eu_spectra(rng: np.random.Generator, work: Path) -> list[Op]:
    graph_seeds = [int(s) for s in rng.integers(2**31, size=2)]
    escape_seed = int(rng.integers(2**31))
    instances = [
        ("n40", _connected_graph(40, 0.15, graph_seeds[0])),
        ("n60", _connected_graph(60, 0.15, graph_seeds[1])),
        ("triangle", wta.graph.new_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])),
    ]
    c2 = EU_VALUE * EU_VALUE
    ops: list[Op] = []
    for label, g in instances:
        x = np.full(g.n, EU_VALUE)
        oracle = c2 * np.linalg.eigvalsh(_laplacian_from_edges(g))
        if label == "triangle":
            oracle = c2 * np.array([0.0, 3.0, 3.0])  # closed form
        found: dict = {}

        def classify(g=g, x=x, found=found):
            found["report"] = wta.analysis.classify_equilibrium(g, x)
            return found["report"]

        def check_classify(report, label=label, g=g) -> Checks:
            return [(f"{label}.class_E_u", report.klass == "E_u" and len(report.winners) == g.n)]

        def linearize(g=g, found=found):
            return wta.analysis.linearize_at(g, found["report"])

        def check_linearize(spec, label=label, oracle=oracle) -> Checks:
            eigs = np.asarray(spec.eigenvalues)
            scale = float(np.abs(oracle).max())
            return [
                (f"{label}.verdict_unstable", spec.verdict == "unstable"),
                (f"{label}.eigenvalues", eigs.shape == oracle.shape
                 and bool(np.all(np.abs(eigs - oracle) <= 1e-9 * scale))),
            ]

        def escape(g=g, x=x, t_end=EU_ESCAPE_T_END[label]):
            return wta.analysis.perturb_and_escape(g, x, seed=escape_seed, t_end=t_end)

        def check_escape(rep, label=label, x=x) -> Checks:
            final = np.asarray(rep.final_state)
            return [
                (f"{label}.escaped", rep.escaped),
                (f"{label}.escape_nonnegative", bool(np.all(final >= 0.0))),
                (f"{label}.escape_mass", _conserved(final.sum(), float(x.sum()))),
            ]

        ops += [
            Op(f"classify_{label}", classify, check_classify),
            Op(f"linearize_{label}", linearize, check_linearize),
            Op(f"escape_{label}", escape, check_escape),
        ]
    return ops


WORKLOADS = {
    "arena_search": arena_search,
    "dense_fan": dense_fan,
    "sparse_large": sparse_large,
    "eu_spectra": eu_spectra,
}
