"""Command-line surface: simulate, classify, optimize, experiment.

Exit codes: 0 success, 1 config/parse error, 2 numerical failure
(positivity loss), 3 search-guard violation. JSON configs use the schemas
defined by the library modules; all numeric output carries 17 significant
digits. Config leaves and numeric flags are read by the typed readers in
wta.errors, which the library entry points check their arguments with too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import classify_equilibrium
from .dynamics import interaction_from_names
from .errors import (SEED_MAX, ConfigError, PositivityFailureError, TooManyCandidatesError,
                     WtaError, read_choice, read_integer, read_number, read_numbers,
                     read_object)
from .experiments import EXPERIMENTS, OVERRIDES, _canonical_hash, _write_json, run_experiment
from .graph import _read_json, graph_from_json_dict, load_graph, random_graph
from .integrate import IntegratorOptions, simulate, simulate_reverse
from .optimize import (
    GRID_MAX,
    MAX_RESTARTS,
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


# --- config leaves: shapes here, values through the wta.errors readers ---


def _path(value, key: str) -> str:
    if not (isinstance(value, str) and value):
        raise ConfigError(f"{key} must be a path string, got {value!r}")
    return value


def _flag(name: str, read, **bounds):
    """argparse type= for a numeric flag: the text goes through int (for
    read_integer) or float, whose ValueError argparse reports, then through
    read."""
    parse_text = int if read is read_integer else float

    def parse(text):
        return read(parse_text(text), name, **bounds)

    parse.__name__ = parse_text.__name__  # argparse says "invalid int value"
    return parse


def _seed(spec: dict, key: str, default: int) -> int:
    return read_integer(spec["seed"], key, 0, SEED_MAX) if "seed" in spec else default


def _one_of(d, keys, key: str) -> str:
    present = [k for k in keys if k in read_object(d, key)]
    if len(present) != 1:
        raise ConfigError(f"{key} needs exactly one of {keys}, got {present}")
    return present[0]


# --- config blocks ---


def _load_config(path) -> dict:
    if path is None:
        raise ConfigError("--config is required for this subcommand")
    return read_object(_read_json(path, "config"), "config root")


def _weight_mode(spec, key: str):
    if spec in (None, "unit"):
        return "unit"
    if isinstance(spec, dict) and set(spec) == {"uniform"}:
        bounds = read_numbers(spec["uniform"], f"{key}.uniform")
        if len(bounds) == 2:
            return ("uniform", *bounds)
    raise ConfigError(f'{key} must be "unit" or {{"uniform": [lo, hi]}}, got {spec!r}')


def _graph_from_config(cfg, default_seed: int):
    src = _one_of(cfg, ("inline", "file", "random"), "graph")
    if src == "inline":
        return graph_from_json_dict(cfg["inline"])
    if src == "file":
        return load_graph(_path(cfg["file"], "graph.file"))
    spec = read_object(cfg["random"], "graph.random")
    return random_graph(
        read_integer(spec.get("n"), "graph.random.n", lo=1),
        read_number(spec.get("p"), "graph.random.p", lo=0.0, hi=1.0),
        _weight_mode(spec.get("weight_mode"), "graph.random.weight_mode"),
        _seed(spec, "graph.random.seed", default_seed),
    )


def _state(values, key: str, n: int) -> np.ndarray:
    x = np.array(read_numbers(values, key))
    if x.shape != (n,):
        raise ConfigError(f"{key} has length {x.size}, graph has n={n}")
    return x


def _x0_from_config(cfg, n: int, default_seed: int) -> np.ndarray:
    if _one_of(cfg, ("inline", "random"), "x0") == "inline":
        return _state(cfg["inline"], "x0.inline", n)
    spec = read_object(cfg["random"], "x0.random")
    lo = read_number(spec.get("low", 0.0), "x0.random.low", lo=0.0)
    hi = read_number(spec.get("high", 1.0), "x0.random.high", gt=lo)
    return np.random.default_rng(_seed(spec, "x0.random.seed", default_seed)).uniform(lo, hi, n)


def _options_from_config(cfg, default: IntegratorOptions) -> IntegratorOptions:
    """The integrator block, whose fields IntegratorOptions checks; an
    empty block means default."""
    unknown = set(read_object(cfg, "integrator")) - set(IntegratorOptions.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown integrator options {sorted(unknown)}")
    return IntegratorOptions(**cfg) if cfg else default


def _interaction_from_config(cfg):
    if cfg is None:
        return None
    cfg = read_object(cfg, "interaction")
    return interaction_from_names(cfg.get("f", "identity"), cfg.get("g", "product"))


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# --- subcommands ---


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    g = _graph_from_config(cfg.get("graph", {}), args.seed)
    x0 = _x0_from_config(cfg.get("x0", {}), g.n, args.seed + 1)
    direction = read_choice(cfg.get("direction", "forward"), "direction", ("forward", "reverse"))
    opts = _options_from_config(cfg.get("integrator", {}), IntegratorOptions())
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
        "final_state": traj.final_state.tolist(),
        "stopped_at_equilibrium": traj.metadata["stopped_at_equilibrium"],
        "steps_taken": traj.metadata["steps_taken"],
        "final_time": traj.metadata["final_time"],
    }
    _write_json(out / "report.json", report)
    if args.svg:
        x_label = "t" if direction == "forward" else "tau"
        svg.line_chart(
            [(traj.times, traj.states[:, i]) for i in range(g.n)],
            out / "trajectory.svg",
            title=f"{direction} trajectories",
            x_label=x_label,
            y_label="state",
        )
        svg.line_chart(
            [(traj.times, traj.entropy)],
            out / "entropy.svg",
            title="entropy profile",
            x_label=x_label,
            y_label="H" if direction == "forward" else "log10 H",
            log_y=direction == "reverse",
        )
    _say(args, f"wrote {out / 'trajectory.csv'} and {out / 'report.json'}")
    return 0


def cmd_classify(args) -> int:
    g = load_graph(args.graph)
    payload = _read_json(args.state, "state")
    if isinstance(payload, dict):
        if "x" not in payload:
            raise ConfigError(f'state object needs an "x" field, got {sorted(payload)}')
        payload = payload["x"]
    x = _state(payload, "state", g.n)
    report = classify_equilibrium(g, x, zero_tol=args.zero_tol, equal_tol=args.equal_tol)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return 0


def _problem_from_config(cfg: dict, default_seed: int) -> OptimizeProblem:
    base = _graph_from_config(cfg.get("graph", {}), default_seed)
    # OptimizeProblem checks each leaf under its field name, the config key
    return OptimizeProblem(
        base_graph=base,
        alpha=cfg.get("alpha"),
        x_alpha0=cfg.get("x_alpha0"),
        x0_others=cfg.get("x0_others"),
        horizon=cfg.get("horizon"),
        candidate_weight=cfg.get("candidate_weight", 1.0),
        options=_options_from_config(
            cfg.get("integrator", {}),
            OptimizeProblem.__dataclass_fields__["options"].default_factory(),
        ),
    )


def _grid_from_config(cfg) -> np.ndarray:
    if isinstance(cfg, list):
        if not cfg:
            raise ConfigError("sweep_grid must hold at least one value, got []")
        return np.array(read_numbers(cfg, "sweep_grid", lo=0.0))
    cfg = read_object(cfg, "sweep_grid")
    return np.linspace(
        read_number(cfg.get("start", 0.0), "sweep_grid.start", lo=0.0),
        read_number(cfg.get("stop", 1.5), "sweep_grid.stop", lo=0.0),
        read_integer(cfg.get("count", 31), "sweep_grid.count", 1, GRID_MAX),
    )


def cmd_optimize(args) -> int:
    cfg = _load_config(args.config)
    problem = _problem_from_config(cfg, args.seed)
    out = Path(args.out)
    if args.sweep:
        sweep = sweep_initial_value(problem, _grid_from_config(cfg.get("sweep_grid", {})))
        out.mkdir(parents=True, exist_ok=True)
        sweep.write_csv(out / "sweep.csv")
        if args.svg:
            sweep.write_svg(out / "sweep.svg")
        _say(args, f"wrote {out / 'sweep.csv'}")
        return 0
    if args.mode == "exhaustive":
        result = exhaustive_search(problem)
    else:
        greedy = read_object(cfg.get("greedy", {}), "greedy")
        result = greedy_search(
            problem,
            restarts=read_integer(greedy.get("restarts", 8), "greedy.restarts", 1,
                                  MAX_RESTARTS),
            seed=_seed(greedy, "greedy.seed", args.seed),
        )
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
    overrides = {key: getattr(args, key) for key in OVERRIDES
                 if getattr(args, key) is not None}
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
    common.add_argument("--seed", type=_flag("--seed", read_integer, lo=0, hi=SEED_MAX),
                        default=0, help="default seed (u64)")
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
    p_cls.add_argument("--zero-tol", type=_flag("--zero-tol", read_number, lo=0.0), default=1e-8)
    p_cls.add_argument("--equal-tol", type=_flag("--equal-tol", read_number, lo=0.0), default=1e-6)
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
    for key, (read, bounds) in OVERRIDES.items():  # --agents ... --grid-max
        flag = "--" + key.replace("_", "-")
        p_exp.add_argument(flag, type=_flag(flag, read, **bounds))
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
