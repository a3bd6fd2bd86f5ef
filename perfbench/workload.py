"""One benchmark workload in a process of its own.

run.py starts this script; it is not meant to be run by hand. It draws the
workload's inputs from the seed (set-up), then runs whole passes of the
workload's program calls until the time budget is spent, timing every call
between two runs of a fixed reference loop and checking its outputs after
its timer stops. With --trace 1 it runs untraced passes for half the budget
and traced passes for the other half. Its last line of standard output is
one JSON object for run.py.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _import_program():
    """Import wta from this checkout's source tree, never from elsewhere."""
    if not (SRC / "wta" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'wta'}")
    sys.path.insert(0, str(SRC))
    import wta

    if Path(wta.__file__).resolve().parent != (SRC / "wta").resolve():
        sys.exit(f"perfbench: imported wta from {wta.__file__}, not from {SRC}")


_import_program()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import wta  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Operations and checks attempted and failed, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name} {detail}".strip())


# The reference loop: fixed work that never touches the program, in the
# program's own mix of interpreter-bound Python (a dict tally and a sort)
# and small-array numpy (an edge-list gather and scatter-add).
_REF_RNG = np.random.default_rng(12345)
_REF_SRC = _REF_RNG.integers(0, 200, 2000)
_REF_DST = _REF_RNG.integers(0, 200, 2000)
_REF_X = _REF_RNG.random(200)
_REF_KEYS = [k * 7919 % 1009 for k in range(15000)]


def reference_s() -> float:
    """Seconds one run of the reference loop takes now, on this vCPU."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for k in _REF_KEYS:
        counts[k] = counts.get(k, 0) + 1
    sorted(_REF_KEYS)
    for _ in range(250):
        xs, xd = _REF_X[_REF_SRC], _REF_X[_REF_DST]
        dx = np.zeros(_REF_X.size)
        np.add.at(dx, _REF_SRC, xs * xd * (xs - xd))
    return time.perf_counter() - start


class Timings:
    """Each op's call times in seconds, and each as a multiple of the
    reference loop timed just before and just after the call."""

    def __init__(self, ops):
        self.seconds: dict[str, list[float]] = {op.name: [] for op in ops}
        self.relative: dict[str, list[float]] = {op.name: [] for op in ops}
        self.reference: list[float] = []

    def add(self, name: str, seconds: float, before: float, after: float) -> None:
        self.seconds[name].append(seconds)
        self.relative[name].append(2.0 * seconds / (before + after))
        self.reference += [before, after]

    def run_ref(self) -> float:
        """One pass in reference units: each call's median multiple of the
        reference loop, summed over the pass. On a shared virtual machine a
        vCPU can run up to 2x slower for stretches from under a second to
        minutes, independently of the other vCPUs (seen on a 2-vCPU Xeon
        VM), so a pass's seconds depend on when it ran; its cost relative
        to a loop run on the same vCPU just before and after each call
        depends on that much less."""
        return sum(statistics.median(v) for v in self.relative.values())

    def passes(self) -> list[float]:
        """The wall time of each whole pass, for the record."""
        return [sum(row) for row in zip(*self.seconds.values())]


def run_pass(ops, tally: Tally, timings: Timings) -> None:
    """Run every op once, timing each call between two reference loops."""
    for op in ops:
        before = reference_s()
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failing call is counted, not fatal
            result, error = None, exc
        timings.add(op.name, time.perf_counter() - start, before, reference_s())
        if error is not None:
            tally.record(op.name, False, repr(error))
            continue
        tally.record(op.name, True)
        try:
            checks = op.check(result)
        except Exception as exc:  # an output that cannot be read fails its check
            tally.record(f"{op.name}.check", False, repr(exc))
            continue
        for name, ok in checks:
            tally.record(name, ok)


def run_passes(ops, budget_s: float, tally: Tally) -> Timings:
    """Whole passes while the next one is expected to fit in the budget;
    always at least one."""
    timings = Timings(ops)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        run_pass(ops, tally, timings)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > budget_s:
            return timings


def vector_field_us(g, x) -> float:
    """Median microseconds of one vector_field call on the given input."""
    field = wta.dynamics.vector_field
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            field(g, x)
        if time.perf_counter() - start >= 0.02:
            break
        reps *= 2
    batches = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(reps):
            field(g, x)
        batches.append((time.perf_counter() - start) / reps)
    return statistics.median(batches) * 1e6


def layer_metrics(tracer: spans.Tracer, traced: Timings, untraced: Timings) -> dict:
    """Per-layer metrics per pass of the traced phase; zero for layers the
    workload does not reach."""
    totals = tracer.totals()
    k = len(traced.passes())

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / k

    sims = ("integrate.simulate", "integrate.simulate_reverse")
    sim_calls = sum(get(s, "calls") for s in sims)
    sim_self = sum(get(s, "self_s") for s in sims)
    steps = tracer.steps / k
    evals = get("optimize.evaluate_choice", "calls")
    m = {
        "graph.random_graph.self_s": get("graph.random_graph", "self_s"),
        "graph.new_graph.calls": get("graph.new_graph", "calls"),
        "graph.new_graph.self_s": get("graph.new_graph", "self_s"),
        "graph.connected_components.self_s": get("graph.connected_components", "self_s"),
        "graph.induced_subgraph.self_s": get("graph.induced_subgraph", "self_s"),
        "integrate.simulate.calls": sim_calls,
        "integrate.simulate.self_s": sim_self,
        "integrate.steps": steps,
        "integrate.us_per_step": sim_self * 1e6 / steps if steps else 0.0,
        "integrate.stopped_frac": tracer.stopped / k / sim_calls if sim_calls else 0.0,
        "integrate.write_csv.self_s": get("integrate.write_csv", "self_s"),
        "analysis.classify_equilibrium.self_s": get("analysis.classify_equilibrium", "self_s"),
        "analysis.linearize_at.self_s": get("analysis.linearize_at", "self_s"),
        "analysis.symmetric_eigenvalues.self_s": get("analysis.symmetric_eigenvalues", "self_s"),
        "analysis.perturb_and_escape.self_s": get("analysis.perturb_and_escape", "self_s"),
        "optimize.evaluate_choice.calls": evals,
        "optimize.evaluate_choice.self_s": get("optimize.evaluate_choice", "self_s"),
        "optimize.ms_per_eval": get("optimize.evaluate_choice", "total_s") * 1e3 / evals if evals else 0.0,
        "optimize.graph_for_mask.self_s": get("optimize.graph_for_mask", "self_s"),
        "optimize.exhaustive_search.self_s": get("optimize.exhaustive_search", "self_s"),
        "optimize.greedy_search.self_s": get("optimize.greedy_search", "self_s"),
        "optimize.sweep_initial_value.self_s": get("optimize.sweep_initial_value", "self_s"),
        "experiments.run_experiment.self_s": get("experiments.run_experiment", "self_s"),
        "cli.simulate.self_s": get("cli.simulate", "self_s"),
        "cli.optimize.self_s": get("cli.optimize", "self_s"),
        "cli.experiment.self_s": get("cli.experiment", "self_s"),
        # in seconds at the run's median speed
        "trace.overhead_s": (traced.run_ref() - untraced.run_ref())
        * statistics.median(traced.reference + untraced.reference),
    }
    # one field evaluation on the largest graph the workload integrated
    # (every workload integrates), timed after the run. Flops and bytes are
    # computed from array sizes: per directed edge 5 flops and five 8-byte
    # reads (source, target, weight, two gathered states), plus reading x
    # and writing dx
    g, x = tracer.largest_input
    directed = 2 * g.num_edges
    m["dynamics.vector_field.us"] = vector_field_us(g, x)
    m["dynamics.vector_field.flops"] = 5.0 * directed
    m["dynamics.vector_field.bytes"] = 40.0 * directed + 16.0 * g.n
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC when the parent started this process")
    args = parser.parse_args()

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        out = {
            "setup_s": setup_s,
            "setup_reference_s": statistics.median(reference_s() for _ in range(3)),
            "numpy": np.__version__,
        }
        if args.mode == "setup":
            print(json.dumps(out))
            return 0
        tally = Tally()
        if not args.trace:
            times = run_passes(ops, args.seconds, tally)
            out["run_ref"] = times.run_ref()
            out["call_median_ref"] = {k: statistics.median(v) for k, v in times.relative.items()}
            out["call_median_s"] = {k: statistics.median(v) for k, v in times.seconds.items()}
            out["reference_median_s"] = statistics.median(times.reference)
        else:
            untraced = run_passes(ops, args.seconds / 2, tally)
            tracer = spans.Tracer()
            tracer.install()
            try:
                times = run_passes(ops, args.seconds / 2, tally)
            finally:
                tracer.uninstall()
            out["layers"] = layer_metrics(tracer, times, untraced)
            out["traced_pass_s"] = statistics.fmean(times.passes())
            out["span_self_sum_s"] = (
                sum(row["self_s"] for row in tracer.totals().values()) / len(times.passes())
            )
            (WORK / "traces").mkdir(exist_ok=True)
            tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
        out.update(
            pass_s=times.passes(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=tally.attempted,
            failed=tally.failed,
            failures=tally.failures,
        )
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
