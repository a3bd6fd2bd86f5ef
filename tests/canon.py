"""The canonical run set: one fixed list of wta commands, the digests of
every file they write, and the README's numerical contracts on every
trajectory CSV among them. It is the one list of commands whose output
bytes the project checks.

    PYTHONPATH=src python tests/canon.py OUT_DIR
    python tests/canon.py --compare DIR_A DIR_B
    python tests/canon.py --pins OUT_DIR > tests/canon.sha256

The first form runs the set in-process through wta.cli.main, with every
warning raised as an error, into OUT_DIR (new or empty), one directory a
command: 97 files in all. It writes OUT_DIR/SHA256SUMS, one "digest  path"
line a file, sorted by path (the format of sha256sum), and prints the
contract report: a line for each contract a trajectory CSV breaks, then a
count. A broken contract does not change the exit code; a command that
exits nonzero raises. Until the step enforces monotone extremes, expect two
broken files, both forward runs where RK4 at dt = 1e-3 passes its stability
limit: fig2 at seed 1315760028 (max, min and entropy) and the cubic/product
run on uniform weights (max and entropy).

The second form lists every file that differs between two such
directories, or is in one of them only, and exits 1 if any does. So two
runs of one tree compare equal, and a run with PYTHONPATH on a parent's
src against one on a change's src shows every output byte the change
moved.

Pinned digests. tests/canon.sha256 holds the lines of SHA256SUMS for the
run directories that pinned() selects: 46 files from 13 directories, which
tests/test_canon.py writes and compares in tier-1 (about 3 s). The rule
leaves out whole directories, those whose bytes moved with the CPU code
that numpy runs (numpy 2.4.6 on one x86-64 machine with AVX-512):
  - fig1-fig3, and fig2 at seed 1315760028, run the dense kernel. Its BLAS
    matmul changed 15 of their files under OPENBLAS_CORETYPE=Prescott and
    under OPENBLAS_CORETYPE=Sandybridge (none under Haswell).
  - The cubic and tanh interaction runs go through numpy's SIMD loops for
    a**3 and tanh. NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
    changed 3 files of the cubic runs; with X86_V3 disabled as well, 9
    files of the cubic and tanh runs.
No pinned file changed under any of these settings. A change that means to
move pinned bytes re-pins with the third form, which prints the pinned
lines of a fresh run's SHA256SUMS, and names each moved file in CHANGES.md.

Pytest does not collect this file; tests/test_canon.py and tests/test_cli.py
import it. Wall time: about 4.5 s a run on 2 vCPUs (Python 3.11.7, numpy
2.4.6).
"""

import hashlib
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

README_CONFIGS = {  # subcommand -> its example config in README.md
    "optimize" if "alpha" in cfg else "simulate": cfg
    for cfg in map(json.loads, re.findall(
        r"```json\n(.*?)```", (Path(__file__).parents[1] / "README.md").read_text(), re.S))
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
    readme_simulate, readme_optimize = README_CONFIGS["simulate"], README_CONFIGS["optimize"]
    for seed in (0, 7):
        for name, flags in (("fig1_bars", ["--t-end", "0.3"]),
                            ("fig2_trajectories", ["--t-end", "0.3"]),
                            ("fig3_entropy", ["--t-end", "0.3"]),
                            ("fig4_nine_agents", []),
                            ("fig5_sweep", ["--grid-count", "4"])):
            yield f"{name}-{seed}", None, ["experiment", name, "--seed", str(seed), "--svg",
                                           *flags]
    # the one manifest seed of the benchmark's dense_fan checks that fails
    yield "fig2_trajectories-1315760028", None, [
        "experiment", "fig2_trajectories", "--t-end", "0.25", "--seed", "1315760028"]
    yield "simulate-readme", readme_simulate, ["simulate", "--svg"]
    yield "simulate-readme-reverse", {
        **readme_simulate, "direction": "reverse",
        # stops at equilibrium, at step 13129
        "integrator": {"dt": 1e-2, "t_end": 200.0, "record_stride": 100,
                       "stop_on_equilibrium": True}}, ["simulate", "--svg"]
    yield "optimize-exhaustive", readme_optimize, ["optimize", "--mode", "exhaustive"]
    yield "optimize-greedy", readme_optimize, ["optimize", "--mode", "greedy"]
    # more restarts than greedy climbs at once (LANE_BLOCK)
    yield "optimize-greedy-300", {**readme_optimize, "greedy": {"restarts": 300, "seed": 0}}, [
        "optimize", "--mode", "greedy"]
    yield "optimize-sweep", readme_optimize, ["optimize", "--sweep", "--svg"]
    for f, g in INTERACTIONS:
        for weights, mode in (("unit", "unit"), ("uniform", {"uniform": [0.2, 1.5]})):
            yield f"simulate-{f}-{g}-24-{weights}", generalized(24, 0.3, mode, f, g, 1.0, 10), [
                "simulate"]
    yield "simulate-tanh-scaled_product-1000", generalized(
        1000, 5 / 999, "unit", "tanh", "scaled_product", 0.5, 50), ["simulate"]
    # CSV number text at its hard cases: the field of an edgeless graph is
    # zero, so every row repeats x0, a +-1-ulp pair at 1e-4, 1e16 and 1e17,
    # an exact 17-digit tie (1234567890123456.25, written ...456.2), the
    # least subnormal and 0.1; the mass and entropy columns reach exponent form
    yield "simulate-csv-cases", {
        "graph": {"inline": {"n": 10, "edges": []}},
        "x0": {"inline": [*(math.nextafter(v, d) for v in (1e-4, 1e16, 1e17) for d in (0, math.inf)),
                          1234567890123456.25, 5e-324, 0.1, 0.0]},
        "integrator": {"dt": 0.1, "t_end": 0.3}}, ["simulate"]


# Run directories left out of tests/canon.sha256, by a part of their name:
# the dense-kernel manifests and the interactions that run numpy's SIMD
# tanh and cube loops (see the docstring).
UNPINNED = {"fig1_bars", "fig2_trajectories", "fig3_entropy", "tanh", "cubic"}
PINS = Path(__file__).with_name("canon.sha256")


def pinned(name: str) -> bool:
    """Whether the bytes of run directory name are pinned in PINS."""
    return not UNPINNED & set(name.split("-"))


def run_set(out: Path, rows) -> None:
    """Run each (directory, config, argv) of rows into its directory under
    out; raise RuntimeError on the first command that exits nonzero."""
    from wta.cli import main

    for name, config, argv in rows:
        where = out / name
        where.mkdir()
        if config is not None:
            (where / "config.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(where / "config.json")]
        code = main([*argv, "--out", str(where), "--quiet"])
        if code != 0:
            raise RuntimeError(f"{name}: wta {' '.join(argv)} exited {code}")


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


def sums_text(sums: dict) -> str:
    """The lines of SHA256SUMS for a path -> digest dict, in its order."""
    return "".join(f"{h}  {p}\n" for p, h in sums.items())


def read_sums(path: Path) -> dict:
    """Path -> digest, from a file that sums_text wrote."""
    return {p: h for h, p in (line.split("  ", 1) for line in path.read_text().splitlines())}


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
    if len(argv) == 2 and argv[0] == "--pins":
        sums = read_sums(Path(argv[1]) / "SHA256SUMS")
        sys.stdout.write(sums_text({p: h for p, h in sums.items() if pinned(p.split("/")[0])}))
        return 0
    if len(argv) != 1:
        sys.exit(__doc__)
    out = Path(argv[0])
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    warnings.simplefilter("error")
    run_set(out, runs())
    sums = digests(out)
    (out / "SHA256SUMS").write_text(sums_text(sums))
    contract_report(out, sums)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
