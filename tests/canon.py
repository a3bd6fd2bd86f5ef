"""The canonical run set: one fixed list of wta commands, the digests of
every file they write, and the README's numerical contracts on every
trajectory CSV among them.

    PYTHONPATH=src python tests/canon.py OUT_DIR
    python tests/canon.py --compare DIR_A DIR_B

The first form runs the set in-process through wta.cli.main, with every
warning raised as an error, into OUT_DIR (new or empty), one directory a
command. It writes OUT_DIR/SHA256SUMS, one "digest  path" line a file,
sorted by path, and prints the contract report: a line for each contract
a trajectory CSV breaks, then a count. A broken contract does not change
the exit code; a command that exits nonzero does. Until the step enforces
monotone extremes, expect two broken files, both forward runs where RK4
at dt = 1e-3 passes its stability limit: fig2 at seed 1315760028 (max,
min and entropy) and the cubic/product run on uniform weights (max and
entropy).

The second form lists every file that differs between two such
directories, or is in one of them only, and exits 1 if any does. So two
runs of one tree compare equal, and a run with PYTHONPATH on a parent's
src against one on a change's src shows every output byte the change
moved.

Pytest does not collect this file. Wall time: about 4.5 s a run on 2
vCPUs (Python 3.11.7, numpy 2.4.6).
"""

import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np

README_SIMULATE = {
    "graph": {"random": {"n": 100, "p": 0.05, "seed": 0}},
    "x0": {"random": {"low": 0.0, "high": 1.0, "seed": 1}},
    "direction": "forward",
    "integrator": {"dt": 1e-3, "t_end": 1.0, "record_stride": 10},
}
README_OPTIMIZE = {
    "graph": {"inline": {"n": 9, "edges": [[1, 2, 1.0], [2, 5, 1.0]]}},
    "alpha": 0,
    "x_alpha0": 0.5,
    "x0_others": [0.7, 0.3, 0.9, 0.2, 0.8, 0.4, 0.6, 0.1],
    "horizon": 5.0,
    "greedy": {"restarts": 8, "seed": 0},
    "sweep_grid": {"start": 0.0, "stop": 1.5, "count": 16},
}
INTERACTIONS = [("cubic", "product"), ("tanh", "scaled_product"),
                ("identity", "scaled_product")]


def generalized(n: int, p: float, weight_mode, f: str, g: str, t_end: float, stride: int):
    return {
        "graph": {"random": {"n": n, "p": p, "weight_mode": weight_mode, "seed": 3}},
        "x0": {"random": {"low": 0.0, "high": 1.0, "seed": 4}},
        "integrator": {"dt": 1e-3, "t_end": t_end, "record_stride": stride},
        "interaction": {"f": f, "g": g},
    }


def runs():
    """(directory, config or None, wta argv) for each command of the set;
    a directory whose runs are reverse-time has "reverse" in its name."""
    for seed in (0, 7):
        for name, flags in (("fig1_bars", ["--t-end", "0.3"]),
                            ("fig2_trajectories", ["--t-end", "0.3"]),
                            ("fig3_entropy", ["--t-end", "0.3"]),
                            ("fig4_nine_agents", []),
                            ("fig5_sweep", ["--grid-count", "3"])):
            yield f"{name}-{seed}", None, ["experiment", name, "--seed", str(seed), "--svg",
                                           *flags]
    # the one manifest seed of the benchmark's dense_fan checks that fails
    yield "fig2_trajectories-1315760028", None, [
        "experiment", "fig2_trajectories", "--t-end", "0.25", "--seed", "1315760028"]
    yield "simulate-readme", README_SIMULATE, ["simulate", "--svg"]
    yield "simulate-readme-reverse", {
        **README_SIMULATE, "direction": "reverse",
        # stops at equilibrium, at step 13129
        "integrator": {"dt": 1e-2, "t_end": 200.0, "record_stride": 100,
                       "stop_on_equilibrium": True}}, ["simulate", "--svg"]
    yield "optimize-exhaustive", README_OPTIMIZE, ["optimize", "--mode", "exhaustive"]
    yield "optimize-greedy", README_OPTIMIZE, ["optimize", "--mode", "greedy"]
    yield "optimize-sweep", README_OPTIMIZE, ["optimize", "--sweep", "--svg"]
    for f, g in INTERACTIONS:
        for weights, mode in (("unit", "unit"), ("uniform", {"uniform": [0.2, 1.5]})):
            yield f"simulate-{f}-{g}-24-{weights}", generalized(24, 0.3, mode, f, g, 1.0, 10), [
                "simulate"]
    yield "simulate-tanh-scaled_product-1000", generalized(
        1000, 5 / 999, "unit", "tanh", "scaled_product", 0.5, 50), ["simulate"]


def run_set(out: Path) -> None:
    warnings.simplefilter("error")
    from wta.cli import main

    for name, config, argv in runs():
        where = out / name
        where.mkdir()
        if config is not None:
            (where / "config.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(where / "config.json")]
        code = main([*argv, "--out", str(where), "--quiet"])
        if code != 0:
            sys.exit(f"{name}: wta {' '.join(argv)} exited {code}")


def digests(root: Path) -> dict:
    """Relative POSIX path -> SHA-256 hex digest, for every file under root
    but SHA256SUMS, sorted by path."""
    files = {path.relative_to(root).as_posix(): path for path in root.rglob("*")
             if path.is_file()}
    files.pop("SHA256SUMS", None)
    return {key: hashlib.sha256(files[key].read_bytes()).hexdigest() for key in sorted(files)}


# README "Numerical contracts": conservation within 1e-9 relative, every
# state >= 0 and, within acceptance 5's 1e-9, forward runs with
# nondecreasing max and entropy and nonincreasing min, reverse runs with a
# nonincreasing spread.
TOL = 1e-9


def broken_contracts(path: Path, reverse: bool) -> list[str]:
    header = path.read_text().split("\n", 1)[0].split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    col = {key: rows[:, header.index(key)] for key in ("mass", "entropy", "max", "min")}
    mass0 = col["mass"][0]
    checks = {
        "conservation": np.abs(col["mass"] - mass0).max() <= TOL * mass0,
        "min >= 0": col["min"].min() >= 0.0,
    }
    if reverse:
        checks["spread nonincreasing"] = np.all(np.diff(col["max"] - col["min"]) <= TOL)
    else:
        checks["max nondecreasing"] = np.all(np.diff(col["max"]) >= -TOL)
        checks["min nonincreasing"] = np.all(np.diff(col["min"]) <= TOL)
        checks["entropy nondecreasing"] = np.all(np.diff(col["entropy"]) >= -TOL)
    return [name for name, held in checks.items() if not held]


def contract_report(out: Path, paths) -> None:
    trajectories = [p for p in paths
                    if p.endswith(".csv") and (out / p).read_text().startswith("t,x_0,")]
    failures = 0
    for p in trajectories:
        for contract in broken_contracts(out / p, reverse="reverse" in p):
            print(f"contract broken: {p}: {contract}")
            failures += 1
    print(f"{failures} broken contracts in {len(trajectories)} trajectory CSVs")


def compare(a: Path, b: Path) -> int:
    da, db = digests(a), digests(b)
    differ = []
    for path in sorted(da.keys() | db.keys()):
        if path not in db:
            differ.append(f"only in {a}: {path}")
        elif path not in da:
            differ.append(f"only in {b}: {path}")
        elif da[path] != db[path]:
            differ.append(f"differs: {path}")
    print("\n".join(differ) if differ else f"{len(da)} files identical")
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        sys.exit(__doc__)
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    run_set(out)
    sums = digests(out)
    (out / "SHA256SUMS").write_text("".join(f"{h}  {p}\n" for p, h in sums.items()))
    contract_report(out, sums)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
