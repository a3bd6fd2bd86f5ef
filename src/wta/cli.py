"""Command-line surface: simulate, classify, optimize, experiment.

Exit codes: 0 success, 1 config/parse error, 2 numerical failure
(positivity loss), 3 search-guard violation. JSON configs use the schemas
defined by the library modules; all numeric output carries 17 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import classify_equilibrium
from .dynamics import check_interactions, interaction_from_names
from .errors import ConfigError, PositivityFailureError, TooManyCandidatesError, WtaError
from .experiments import EXPERIMENTS, _canonical_hash, _write_json, run_experiment
from .graph import graph_from_json_dict, load_graph, random_graph
from .integrate import IntegratorOptions, simulate, simulate_reverse
from .optimize import (
    OptimizeProblem,
    exhaustive_search,
    greedy_search,
    sweep_initial_value,
)
from . import svg

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep exit codes stable
        raise ConfigError(message)


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _one_of(d: dict, keys, what: str) -> str:
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r}")
    present = [k for k in keys if k in d]
    if len(present) != 1:
        raise ConfigError(f"exactly one {what} source of {keys} required, got {present}")
    return present[0]


def _weight_mode(spec):
    if spec in (None, "unit"):
        return "unit"
    if isinstance(spec, dict) and set(spec) == {"uniform"}:
        try:
            lo, hi = spec["uniform"]
            return ("uniform", float(lo), float(hi))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad weight_mode {spec!r}: {exc}") from exc
    raise ConfigError(f'bad weight_mode {spec!r}; use "unit" or {{"uniform": [lo, hi]}}')


def _graph_from_config(cfg: dict, default_seed: int):
    src = _one_of(cfg, ("inline", "file", "random"), "graph")
    if src == "inline":
        return graph_from_json_dict(cfg["inline"])
    if src == "file":
        return load_graph(cfg["file"])
    spec = cfg["random"]
    if not (isinstance(spec, dict) and "n" in spec and "p" in spec):
        raise ConfigError(f'random graph needs "n" and "p", got {spec!r}')
    try:
        n, p = int(spec["n"]), float(spec["p"])
        seed = int(spec.get("seed", default_seed))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad random graph {spec!r}: {exc}") from exc
    return random_graph(n, p, _weight_mode(spec.get("weight_mode")), seed)


def _state_array(values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"state must be a list of numbers, got {values!r}") from exc


def _x0_from_config(cfg: dict, n: int, default_seed: int) -> np.ndarray:
    src = _one_of(cfg, ("inline", "random"), "initial state")
    if src == "inline":
        x = _state_array(cfg["inline"])
        if x.shape != (n,):
            raise ConfigError(f"initial state has length {x.size}, graph has n={n}")
        return x
    spec = cfg["random"]
    try:
        seed = int(spec.get("seed", default_seed))
        lo = float(spec.get("low", 0.0))
        hi = float(spec.get("high", 1.0))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad random initial state {spec!r}: {exc}") from exc
    rng = np.random.default_rng(seed)
    if lo < 0.0 or hi <= lo:
        raise ConfigError(f"random initial state needs 0 <= low < high, got [{lo}, {hi}]")
    return rng.uniform(lo, hi, n)


def _options_from_config(cfg) -> IntegratorOptions:
    cfg = cfg or {}
    allowed = set(IntegratorOptions.__dataclass_fields__)
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown integrator options {sorted(unknown)}")
    try:
        return IntegratorOptions(**cfg)
    except TypeError as exc:  # a value of the wrong type, such as "dt": "0.1"
        raise ConfigError(f"bad integrator options {cfg}: {exc}") from exc


def _interaction_from_config(cfg):
    if not cfg:
        return None
    try:
        spec = interaction_from_names(cfg.get("f", "identity"), cfg.get("g", "product"))
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    check = check_interactions(spec)
    if not check.passed:
        raise ConfigError(f"interaction spec failed validation: {check.violations}")
    return spec


def _fmt(value):
    if isinstance(value, float):
        return float(f"{value:.17g}")
    return value


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# --- subcommands ---


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    g = _graph_from_config(cfg.get("graph", {}), args.seed)
    x0 = _x0_from_config(cfg.get("x0", {}), g.n, args.seed + 1)
    direction = cfg.get("direction", "forward")
    if direction not in ("forward", "reverse"):
        raise ConfigError(f'direction must be "forward" or "reverse", got {direction!r}')
    opts = _options_from_config(cfg.get("integrator"))
    interaction = _interaction_from_config(cfg.get("interaction"))

    run = simulate if direction == "forward" else simulate_reverse
    traj, audit = run(g, x0, opts, interaction=interaction, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    traj.write_csv(out / "trajectory.csv")
    report = {
        "version": __version__,
        "config_hash": _canonical_hash(cfg),
        "seed": args.seed,
        "direction": direction,
        "graph_hash": g.hash_hex,
        "field_kernel": traj.metadata["field_kernel"],
        "audit": audit.to_json_dict(),
        "classification": classify_equilibrium(g, traj.final_state).to_json_dict(),
        "final_state": [_fmt(float(v)) for v in traj.final_state],
        "stopped_at_equilibrium": traj.metadata["stopped_at_equilibrium"],
        "steps_taken": traj.metadata["steps_taken"],
        "final_time": traj.metadata["final_time"],
    }
    _write_json(out / "report.json", report)
    if args.svg:
        svg.line_chart(
            [(traj.times, traj.states[:, i]) for i in range(g.n)],
            out / "trajectory.svg",
            title=f"{direction} trajectories",
            x_label="t" if direction == "forward" else "tau",
            y_label="state",
        )
        svg.line_chart(
            [(traj.times, traj.entropy)],
            out / "entropy.svg",
            title="entropy profile",
            x_label="t" if direction == "forward" else "tau",
            y_label="H" if direction == "forward" else "log10 H",
            log_y=direction == "reverse",
        )
    _say(args, f"wrote {out / 'trajectory.csv'} and {out / 'report.json'}")
    return 0


def cmd_classify(args) -> int:
    g = load_graph(args.graph)
    try:
        with open(args.state) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read state {args.state}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {args.state}: {exc}") from exc
    if isinstance(payload, dict) and "x" not in payload:
        raise ConfigError(f'state object needs an "x" field, got {sorted(payload)}')
    x = payload["x"] if isinstance(payload, dict) else payload
    x = _state_array(x)
    if x.shape != (g.n,):
        raise ConfigError(f"state has length {x.size}, graph has n={g.n}")
    report = classify_equilibrium(g, x, zero_tol=args.zero_tol, equal_tol=args.equal_tol)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return 0


def _problem_from_config(cfg: dict, default_seed: int) -> OptimizeProblem:
    base = _graph_from_config(cfg.get("graph", {}), default_seed)
    for key in ("alpha", "x_alpha0", "x0_others", "horizon"):
        if key not in cfg:
            raise ConfigError(f"optimize config missing {key!r}")
    try:
        alpha, x_alpha0 = int(cfg["alpha"]), float(cfg["x_alpha0"])
        x0_others = tuple(float(v) for v in cfg["x0_others"])
        horizon = float(cfg["horizon"])
        candidate_weight = float(cfg.get("candidate_weight", 1.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimize config value: {exc}") from exc
    return OptimizeProblem(
        base_graph=base,
        alpha=alpha,
        x_alpha0=x_alpha0,
        x0_others=x0_others,
        horizon=horizon,
        candidate_weight=candidate_weight,
        options=_options_from_config(cfg.get("integrator"))
        if cfg.get("integrator")
        else OptimizeProblem.__dataclass_fields__["options"].default_factory(),
    )


def _grid_from_config(cfg) -> np.ndarray:
    if cfg is None:
        return np.linspace(0.0, 1.5, 31)
    try:
        if isinstance(cfg, list):
            return np.asarray(cfg, dtype=float)
        if isinstance(cfg, dict):
            return np.linspace(
                float(cfg.get("start", 0.0)),
                float(cfg.get("stop", 1.5)),
                int(cfg.get("count", 31)),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep_grid {cfg!r}: {exc}") from exc
    raise ConfigError(f"bad sweep_grid {cfg!r}")


def cmd_optimize(args) -> int:
    cfg = _load_config(args.config)
    problem = _problem_from_config(cfg, args.seed)
    out = Path(args.out)
    if args.sweep:
        sweep = sweep_initial_value(problem, _grid_from_config(cfg.get("sweep_grid")))
        out.mkdir(parents=True, exist_ok=True)
        sweep.write_csv(out / "sweep.csv")
        if args.svg:
            svg.scatter_chart(
                [(x0, v) for x0, _mask, v in sweep.rows],
                out / "sweep.svg",
                title="Final vs. initial value over all opponent masks",
                x_label="initial value",
                y_label="final value",
                ref_lines=[(1.0, sweep.others_mass), (1.0, 0.0)],
            )
        _say(args, f"wrote {out / 'sweep.csv'}")
        return 0
    if args.mode == "exhaustive":
        result = exhaustive_search(problem)
    else:
        greedy_cfg = cfg.get("greedy", {})
        try:
            restarts = int(greedy_cfg.get("restarts", 8))
            seed = int(greedy_cfg.get("seed", args.seed))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad greedy config {greedy_cfg!r}: {exc}") from exc
        result = greedy_search(problem, restarts=restarts, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    payload = result.to_json_dict()
    payload["version"] = __version__
    payload["config_hash"] = _canonical_hash(cfg)
    _write_json(out / "optimize.json", payload)
    _say(
        args,
        f"best mask {result.best_mask_bits} -> {result.best_value:.17g} "
        f"({result.evaluations} evaluations)",
    )
    return 0


def cmd_experiment(args) -> int:
    overrides = {}
    for key, flag in (
        ("agents", args.agents),
        ("edge_prob", args.edge_prob),
        ("t_end", args.t_end),
        ("dt", args.dt),
        ("horizon", args.horizon),
        ("grid_count", args.grid_count),
        ("grid_max", args.grid_max),
    ):
        if flag is not None:
            overrides[key] = flag
    run_experiment(
        args.name,
        args.out,
        seed=args.seed,
        overrides=overrides,
        want_svg=args.svg,
    )
    _say(args, f"experiment {args.name} written to {args.out}")
    return 0


# --- parser ---


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config path")
    common.add_argument("--seed", type=int, default=0, help="default seed (u64)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--svg", action="store_true", help="also emit SVG charts")
    common.add_argument("--quiet", action="store_true", help="suppress progress chatter")

    parser = _Parser(prog="wta", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="integrate a run config, write CSV/JSON (+SVG)")
    p_sim.set_defaults(func=cmd_simulate)

    p_cls = sub.add_parser("classify", parents=[common],
                           help="classify a state on a graph, print report JSON")
    p_cls.add_argument("--graph", required=True, help="graph JSON file")
    p_cls.add_argument("--state", required=True, help="state JSON file")
    p_cls.add_argument("--zero-tol", type=float, default=1e-8, dest="zero_tol")
    p_cls.add_argument("--equal-tol", type=float, default=1e-6, dest="equal_tol")
    p_cls.set_defaults(func=cmd_classify)

    p_opt = sub.add_parser("optimize", parents=[common],
                           help="opponent-selection search / initial-value sweep")
    p_opt.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    p_opt.add_argument("--sweep", action="store_true",
                       help="run the initial-value sweep instead of a single search")
    p_opt.set_defaults(func=cmd_optimize)

    p_exp = sub.add_parser("experiment", parents=[common],
                           help="run a named experiment manifest")
    p_exp.add_argument("name", help=f"one of {sorted(EXPERIMENTS)}")
    p_exp.add_argument("--agents", type=int)
    p_exp.add_argument("--edge-prob", type=float, dest="edge_prob")
    p_exp.add_argument("--t-end", type=float, dest="t_end")
    p_exp.add_argument("--dt", type=float)
    p_exp.add_argument("--horizon", type=float)
    p_exp.add_argument("--grid-count", type=int, dest="grid_count")
    p_exp.add_argument("--grid-max", type=float, dest="grid_max")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TooManyCandidatesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PositivityFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, WtaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
