"""Named desk-scale experiment manifests.

Each manifest regenerates an analogue of one of the published figures from
its own seed: bar charts of initial/final states, the forward/reverse
trajectory fan, the entropy profile, the nine-agent topology-beats-initial-
value run, and the opponent-sweep scatter. Re-running a manifest with the
same seed and parameters reproduces byte-identical data files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import classify_equilibrium
from .errors import (SEED_MAX, ConfigError, read_choice, read_integer, read_number,
                     read_object)
from .graph import (
    MAX_AGENTS,
    Graph,
    connected_components,
    dump_graph,
    is_independent_set,
    new_graph,
    random_graph,
)
from .integrate import IntegratorOptions, _write_csv, simulate, simulate_reverse
from .optimize import (GRID_MAX, OptimizeProblem, evaluate_choice, mask_to_bits,
                       sweep_initial_value)
from . import svg

__all__ = ["EXPERIMENTS", "run_experiment"]

# Each override a manifest takes, with its reader and bounds: run_experiment
# checks overrides through them, and wta experiment builds its --agents ...
# --grid-max flags from them.
OVERRIDES = {
    "agents": (read_integer, {"lo": 1, "hi": MAX_AGENTS}),
    "edge_prob": (read_number, {"lo": 0.0, "hi": 1.0}),
    "t_end": (read_number, {"gt": 0.0}),
    "dt": (read_number, {"gt": 0.0}),
    "horizon": (read_number, {"gt": 0.0}),
    "grid_count": (read_integer, {"lo": 1, "hi": GRID_MAX}),
    "grid_max": (read_number, {"lo": 0.0}),
}


def _canonical_hash(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _connected_random_graph(n: int, p: float, seed: int) -> Graph:
    """First connected G(n, p) draw from the seeded sequence seed, seed+1000, ..."""
    for attempt in range(200):
        g = random_graph(n, p, "unit", seed + 1000 * attempt)
        if len(connected_components(g)) == 1:
            return g
    raise ConfigError(f"no connected graph found for n={n}, p={p}, seed={seed}")


def _instance(g: Graph, seed: int):
    """g and its initial state, drawn uniform on [0, 1) from seed + 1."""
    return g, np.random.default_rng(seed + 1).uniform(0.0, 1.0, g.n)


def _manifest(name, seed, params) -> dict:
    return {
        "experiment": name,
        "seed": seed,
        "parameters": params,
        "tool_version": __version__,
        "config_hash": _canonical_hash({"experiment": name, "seed": seed, **params}),
    }


def _run_fig1(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    g, x0 = _instance(random_graph(params["agents"], params["edge_prob"], "unit", seed), seed)
    opts = IntegratorOptions(
        dt=params["dt"], t_end=params["t_end"], record_stride=10**9
    )
    traj, audit = simulate(g, x0, opts, seed=seed)
    final = traj.final_state
    report = classify_equilibrium(g, final)
    _write_csv(out / "fig1_states.csv", ["agent", "initial", "final"],
               zip(range(g.n), x0.tolist(), final.tolist()), text=(0,))
    dump_graph(g, out / "fig1_graph.json")
    summary = {
        "winner_count": len(report.winners),
        "class": report.klass,
        "winners_independent": is_independent_set(g, report.winners),
        "audit": audit.to_json_dict(),
        "graph_hash": g.hash_hex,
    }
    if want_svg:
        svg.bar_chart(x0, out / "fig1_initial.svg", title="Initial states",
                      y_label="state")
        svg.bar_chart(final, out / "fig1_final.svg", title="Final states",
                      y_label="state")
    return summary


def _fig2_runs(params: dict, seed: int):
    g, x0 = _instance(random_graph(params["agents"], params["edge_prob"], "unit", seed), seed)
    steps = int(round(params["t_end"] / params["dt"]))
    stride = max(1, steps // 200)
    opts = IntegratorOptions(
        dt=params["dt"], t_end=params["t_end"], record_stride=stride
    )
    fwd, fwd_audit = simulate(g, x0, opts, seed=seed)
    rev, rev_audit = simulate_reverse(g, x0, opts, seed=seed)
    return g, x0, fwd, fwd_audit, rev, rev_audit


def _run_fig2(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    g, _x0, fwd, fwd_audit, rev, rev_audit = _fig2_runs(params, seed)
    fwd.write_csv(out / "fig2_forward.csv")
    rev.write_csv(out / "fig2_reverse.csv")
    if want_svg:
        series = []
        # reverse branch plotted at negative time, forward at positive
        for i in range(g.n):
            series.append((-rev.times[::-1], rev.states[::-1, i]))
        for i in range(g.n):
            series.append((fwd.times, fwd.states[:, i]))
        svg.line_chart(series, out / "fig2_trajectories.svg",
                       title="Agent trajectories (negative and positive time)",
                       x_label="t", y_label="state")
    return {
        "forward_audit": fwd_audit.to_json_dict(),
        "reverse_audit": rev_audit.to_json_dict(),
        "graph_hash": g.hash_hex,
    }


def _run_fig3(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    g, _x0, fwd, _fa, rev, _ra = _fig2_runs(params, seed)
    # + 0.0 writes tau = 0 as 0, not -0
    rows = [("reverse", -t + 0.0, h) for t, h in zip(rev.times.tolist(), rev.entropy.tolist())]
    rows += [("forward", t, h) for t, h in zip(fwd.times.tolist(), fwd.entropy.tolist())]
    _write_csv(out / "fig3_entropy.csv", ["branch", "t", "entropy"], rows, text=(0,))
    if want_svg:
        svg.line_chart([(fwd.times, fwd.entropy)], out / "fig3_entropy_forward.svg",
                       title="Entropy, positive time", x_label="t", y_label="H")
        svg.line_chart([(rev.times, rev.entropy)], out / "fig3_entropy_reverse.svg",
                       title="Entropy, negative time (log scale)", x_label="tau",
                       y_label="log10 H", log_y=True)
    return {
        "forward_entropy_final": float(fwd.entropy[-1]),
        "forward_entropy_nondecreasing": bool(
            np.all(np.diff(fwd.entropy) >= -1e-9)
        ),
        "reverse_entropy_final": float(rev.entropy[-1]),
        "graph_hash": g.hash_hex,
    }


def _run_fig4(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    g, x0 = _instance(_connected_random_graph(params["agents"], params["edge_prob"], seed),
                      seed)
    steps = int(round(params["t_end"] / params["dt"]))
    opts = IntegratorOptions(
        dt=params["dt"], t_end=params["t_end"],
        record_stride=max(1, steps // 400),
        stop_on_equilibrium=True, equilibrium_tol=1e-10,
    )
    traj, audit = simulate(g, x0, opts, seed=seed)
    traj.write_csv(out / "fig4_trajectories.csv")
    dump_graph(g, out / "fig4_graph.json")
    final = traj.final_state
    report = classify_equilibrium(g, final)
    max_agent = int(np.argmax(x0))
    min_agent = int(np.argmin(x0))
    if want_svg:
        svg.line_chart([(traj.times, traj.states[:, i]) for i in range(g.n)],
                       out / "fig4_trajectories.svg",
                       title="Nine-agent trajectories", x_label="t", y_label="state")
    return {
        "class": report.klass,
        "winners": list(report.winners),
        "max_initial_agent": max_agent,
        "max_initial_agent_lost": max_agent in report.losers,
        "min_initial_agent": min_agent,
        "min_initial_agent_won": min_agent in report.winners,
        "initial": [float(v) for v in x0],
        "final": [float(v) for v in final],
        "audit": audit.to_json_dict(),
        "graph_hash": g.hash_hex,
    }


def _run_fig5(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    g, x0 = _instance(_connected_random_graph(params["agents"], params["edge_prob"], seed),
                      seed)
    alpha = int(np.argmin(x0))
    base_edges = [(i, j, w) for i, j, w in g.edges() if alpha not in (i, j)]
    base = new_graph(g.n, base_edges)
    others = tuple(float(x0[j]) for j in range(g.n) if j != alpha)
    problem = OptimizeProblem(
        base_graph=base,
        alpha=alpha,
        x_alpha0=float(x0[alpha]),
        x0_others=others,
        horizon=params["horizon"],
        options=IntegratorOptions(
            dt=params["dt"], stop_on_equilibrium=True, equilibrium_tol=1e-9
        ),
    )
    grid = np.linspace(0.0, params["grid_max"], params["grid_count"])
    sweep = sweep_initial_value(problem, grid)
    sweep.write_csv(out / "fig5_sweep.csv")

    # the original topology's mask, marked like the paper's * point
    candidates = problem.candidates
    orig_mask = sum(1 << k for k, j in enumerate(candidates) if g.has_edge(alpha, j))
    star_value = evaluate_choice(problem, orig_mask)
    values_by_grid = {}
    for gx, _mask, v in sweep.rows:
        values_by_grid.setdefault(gx, []).append(v)
    extremes = {
        f"{gx:.6g}": {"min": min(vs), "max": max(vs)}
        for gx, vs in values_by_grid.items()
    }
    if want_svg:
        sweep.write_svg(out / "fig5_sweep.svg", star=(problem.x_alpha0, star_value))
    return {
        "alpha": alpha,
        "original_mask": mask_to_bits(orig_mask, len(candidates)),
        "original_point": [problem.x_alpha0, star_value],
        "others_mass": sweep.others_mass,
        "per_grid_extremes": extremes,
        "graph_hash": g.hash_hex,
    }


# the defaults of fig1-fig3; run_experiment copies a manifest's defaults
_HUNDRED_AGENTS = {"agents": 100, "edge_prob": 0.8, "t_end": 1.0, "dt": 1e-3}

EXPERIMENTS = {
    "fig1_bars": (_run_fig1, _HUNDRED_AGENTS),
    "fig2_trajectories": (_run_fig2, _HUNDRED_AGENTS),
    "fig3_entropy": (_run_fig3, _HUNDRED_AGENTS),
    "fig4_nine_agents": (
        _run_fig4,
        {"agents": 9, "edge_prob": 0.35, "t_end": 5.0, "dt": 1e-3},
    ),
    "fig5_sweep": (
        _run_fig5,
        {
            "agents": 9,
            "edge_prob": 0.35,
            "horizon": 4.0,
            "dt": 2e-2,
            "grid_count": 31,
            "grid_max": 1.5,
        },
    ),
}


def run_experiment(
    name: str,
    out_dir,
    seed: int = 0,
    overrides: dict | None = None,
    want_svg: bool = False,
) -> dict:
    """Run a named manifest into out_dir; returns the manifest dict.

    Writes manifest.json and report.json next to the data files. The seed
    is an integer in [0, 2^64 - 1], and each override is checked by its
    OVERRIDES reader; unknown override keys are rejected so a manifest
    stays self-describing.
    """
    runner, defaults = EXPERIMENTS[read_choice(name, "experiment", EXPERIMENTS)]
    seed = read_integer(seed, "seed", 0, SEED_MAX)
    params = dict(defaults)
    for key, value in read_object(overrides or {}, "overrides").items():
        if key not in params:
            raise ConfigError(f"unknown override {key!r} for {name}")
        read, bounds = OVERRIDES[key]
        params[key] = read(value, key, **bounds)
    # check the step count (IntegratorOptions) before any output is written
    IntegratorOptions(dt=params["dt"], t_end=params.get("t_end", params.get("horizon")))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(name, seed, params)
    summary = runner(out, seed, params, want_svg)
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "report.json", {"manifest": manifest, "summary": summary})
    return manifest
