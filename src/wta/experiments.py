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
import os
import pickle
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import classify_equilibrium
from .errors import (SEED_MAX, ConfigError, WtaError, read_bool, read_choice, read_integer,
                     read_number, read_object, read_path, writing)
from .graph import (
    MAX_AGENTS,
    Graph,
    connected_components,
    dump_graph,
    is_independent_set,
    new_graph,
    random_graph,
)
from .integrate import IntegratorOptions, _step_count, _write_csv, simulate, simulate_reverse
from .optimize import (GRID_MAX, OptimizeProblem, _guard, _svg_guard, evaluate_choice,
                       mask_to_bits, sweep_initial_value)
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
    with writing(path, "JSON path") as path, open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _connected_random_graph(n: int, p: float, seed: int) -> Graph:
    """First connected G(n, p) draw from the seeded sequence seed, seed+1000,
    ..., each taken mod 2^64 so that every seed in [0, 2^64 - 1] can retry."""
    for attempt in range(200):
        g = random_graph(n, p, "unit", (seed + 1000 * attempt) % (SEED_MAX + 1))
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
    traj, audit = simulate(g, x0, opts)
    final = traj.final_state
    report = classify_equilibrium(g, final)
    _write_csv(out / "fig1_states.csv", ["agent", "initial", "final"],
               [[str(i) for i in range(g.n)], x0, final])
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


def _can_fork() -> bool:
    """Whether _both may fork: a second CPU to run on, no other thread to
    copy mid-call, and a Python older than 3.12, whose os.fork warns when
    OpenBLAS's threads exist."""
    if not hasattr(os, "fork") or sys.version_info >= (3, 12):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2 and threading.active_count() == 1


def _both(first, second) -> tuple:
    """(first(), second()), with second run in a forked child while this
    process runs first, when _can_fork(); otherwise both here, in order.

    The child pickles (ok, value) into a pipe and leaves by os._exit. The
    parent reads the whole pipe before it reaps the child, since a result
    may outgrow the pipe's buffer, and reaps it even when first raises.
    first's error is raised before second's, each as it was raised.
    """
    if not _can_fork():
        return first(), second()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: run both here
        os.close(r)
        os.close(w)
        return first(), second()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                result = (True, second())
            except BaseException as exc:  # the parent raises it
                result = (False, exc)
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        value = first()
    finally:
        try:
            with os.fdopen(r, "rb") as fh:
                data = fh.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        ok, other = pickle.loads(data)
    except Exception:
        raise WtaError(f"a forked child exited with status {status} without a readable "
                       "result") from None
    if not ok:
        raise other
    return value, other


def _fig2_runs(params: dict, seed: int, keep, out: Path | None = None):
    """(g, forward, reverse) for fig2's instance, run forward in this
    process and in reverse time in a child (_both). Each branch returns
    keep(trajectory, audit), only what its manifest reads, since the
    child's value is pickled back to this process: a result that fits the
    pipe's buffer lets the child exit before this process's branch ends.
    With out, each branch first writes its own CSV, fig2_forward.csv and
    fig2_reverse.csv."""
    g, x0 = _instance(random_graph(params["agents"], params["edge_prob"], "unit", seed), seed)
    opts = IntegratorOptions(
        dt=params["dt"], t_end=params["t_end"],
        record_stride=max(1, _step_count(params["t_end"], params["dt"]) // 200),
    )

    def branch(run, name):
        def thunk():
            traj, audit = run(g, x0, opts)
            if out is not None:
                traj.write_csv(out / name)
            return keep(traj, audit)
        return thunk

    fwd, rev = _both(branch(simulate, "fig2_forward.csv"),
                     branch(simulate_reverse, "fig2_reverse.csv"))
    return g, fwd, rev


def _run_fig2(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    def keep(traj, audit):
        # the states only when they are plotted
        return (audit, traj.times, traj.states) if want_svg else (audit, None, None)

    g, (fwd_audit, fwd_t, fwd_x), (rev_audit, rev_t, rev_x) = _fig2_runs(
        params, seed, keep, out)
    if want_svg:
        series = []
        # reverse branch plotted at negative time, forward at positive
        for i in range(g.n):
            series.append((-rev_t[::-1], rev_x[::-1, i]))
        for i in range(g.n):
            series.append((fwd_t, fwd_x[:, i]))
        svg.line_chart(series, out / "fig2_trajectories.svg",
                       title="Agent trajectories (negative and positive time)",
                       x_label="t", y_label="state")
    return {
        "forward_audit": fwd_audit.to_json_dict(),
        "reverse_audit": rev_audit.to_json_dict(),
        "graph_hash": g.hash_hex,
    }


def _run_fig3(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    g, (fwd_t, fwd_h), (rev_t, rev_h) = _fig2_runs(
        params, seed, lambda traj, _audit: (traj.times, traj.entropy))
    # + 0.0 writes tau = 0 as 0, not -0
    _write_csv(out / "fig3_entropy.csv", ["branch", "t", "entropy"],
               [["reverse"] * len(rev_t) + ["forward"] * len(fwd_t),
                np.concatenate([-rev_t + 0.0, fwd_t]),
                np.concatenate([rev_h, fwd_h])])
    if want_svg:
        svg.line_chart([(fwd_t, fwd_h)], out / "fig3_entropy_forward.svg",
                       title="Entropy, positive time", x_label="t", y_label="H")
        svg.line_chart([(rev_t, rev_h)], out / "fig3_entropy_reverse.svg",
                       title="Entropy, negative time (log scale)", x_label="tau",
                       y_label="log10 H", log_y=True)
    return {
        "forward_entropy_final": float(fwd_h[-1]),
        "forward_entropy_nondecreasing": bool(
            np.all(np.diff(fwd_h) >= -1e-9)
        ),
        "reverse_entropy_final": float(rev_h[-1]),
        "graph_hash": g.hash_hex,
    }


def _run_fig4(out: Path, seed: int, params: dict, want_svg: bool) -> dict:
    g, x0 = _instance(_connected_random_graph(params["agents"], params["edge_prob"], seed),
                      seed)
    opts = IntegratorOptions(
        dt=params["dt"], t_end=params["t_end"],
        record_stride=max(1, _step_count(params["t_end"], params["dt"]) // 400),
        stop_on_equilibrium=True, equilibrium_tol=1e-10,
    )
    traj, audit = simulate(g, x0, opts)
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
        dt=params["dt"],
        equilibrium_tol=1e-9,
    )
    grid = np.linspace(0.0, params["grid_max"], params["grid_count"])
    sweep = sweep_initial_value(problem, grid)
    sweep.write_csv(out / "fig5_sweep.csv")

    # the original topology's mask, marked like the paper's * point
    candidates = problem.candidates
    orig_mask = sum(1 << k for k, j in enumerate(candidates) if g.has_edge(alpha, j))
    star_value = evaluate_choice(problem, orig_mask)
    extremes = {}  # a key's min and max are over every grid value that prints as it
    for gx, row in zip(sweep.grid, sweep.values):
        lo, hi = float(row.min()), float(row.max())
        e = extremes.setdefault(f"{gx:.6g}", {"min": lo, "max": hi})
        e["min"], e["max"] = min(e["min"], lo), max(e["max"], hi)
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

    Writes manifest.json and report.json next to the data files. out_dir
    is a path (wta.errors.read_path), the seed an integer in
    [0, 2^64 - 1], and each override is checked by its
    OVERRIDES reader; a key that is not one of the manifest's parameters
    raises ConfigError, so a manifest stays self-describing.
    """
    runner, defaults = EXPERIMENTS[read_choice(name, "experiment", EXPERIMENTS)]
    out = Path(read_path(out_dir, "out_dir"))
    seed = read_integer(seed, "seed", 0, SEED_MAX)
    want_svg = read_bool(want_svg, "want_svg")
    params = dict(defaults)
    for key, value in read_object(overrides or {}, f"overrides for {name}", params).items():
        read, bounds = OVERRIDES[key]
        params[key] = read(value, key, **bounds)
    # check the step count, under the manifest's own key, and a sweep's size
    # against the search guard, and its SVG's, before any output is written
    # or a grid is built
    end = "t_end" if "t_end" in params else "horizon"
    _step_count(params[end], params["dt"], f"{end} / dt")
    if "grid_count" in params:
        _guard(params["grid_count"], params["agents"] - 1)
        if want_svg:
            _svg_guard(params["grid_count"], params["agents"] - 1)
    with writing(out, "out_dir"):
        out.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(name, seed, params)
    summary = runner(out, seed, params, want_svg)
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "report.json", {"manifest": manifest, "summary": summary})
    return manifest
