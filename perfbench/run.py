"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh child
processes, one at a time, with OMP_NUM_THREADS and OPENBLAS_NUM_THREADS set
to 1. With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones. The next-to-last line of
standard output records the machine and the run's details; the last line
is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# set-up-only processes before, and as many after, the measuring one, so
# that the median of set-up times spans the whole run's stretch of the
# host's speed swings
SETUPS_EACH_SIDE = 4
# The reference loop's time (workload.py) on an uncontended vCPU of the
# 2-vCPU Xeon VM this benchmark was built on. Each set-up time is scaled by
# this over the loop's time in the same process just after set-up, so that
# setup_s reads as seconds at that speed, whatever the host's speed then.
REFERENCE_NOMINAL_S = 0.0055
TIME_LIMIT_S = 170.0
# so that numpy's BLAS and LAPACK do not compete with the run for the cores
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "run_ref": "ref", "peak_rss_mb": "MiB", "check_pass_frac": "frac"}

LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "overhead_s": "s",
    "us": "us",
    "flops": "flop",
    "bytes": "B",
    "steps": "count",
    "us_per_step": "us",
    "stopped_frac": "frac",
    "ms_per_eval": "ms",
}


def machine() -> dict:
    """What the result was measured on; read-only queries of this host."""
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "threads": CHILD_THREADS,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        info["cpu"] = platform.processor()
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"L{level}"] = size
    return info


def spawn(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
        "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    env = os.environ | CHILD_THREADS
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: workload process killed after {TIME_LIMIT_S:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    repeats = 0 if args.trace else SETUPS_EACH_SIDE
    setups = [spawn(args, "setup", deadline) for _ in range(repeats)]
    res = spawn(args, "run", deadline)
    setups.append(res)
    setups += [spawn(args, "setup", deadline) for _ in range(repeats)]
    setup_s = [
        r["setup_s"] * REFERENCE_NOMINAL_S / r["setup_reference_s"] for r in setups
    ]

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        values = res["layers"]
        metrics = {
            name: {"value": v, "unit": LAYER_UNITS[name.rsplit(".", 1)[1]]}
            for name, v in values.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "run_ref": res["run_ref"],
            "peak_rss_mb": res["peak_rss_mb"],
            "check_pass_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine() | {"numpy": res["numpy"]},
        "setup_wall_s": [r["setup_s"] for r in setups],
        "setup_reference_s": [r["setup_reference_s"] for r in setups],
        "pass_s": res["pass_s"],
        "call_median_ref": res.get("call_median_ref"),
        "call_median_s": res.get("call_median_s"),
        "reference_median_s": res.get("reference_median_s"),
        "peak_rss_mb": res["peak_rss_mb"],
        "failures": res["failures"],
    }
    if args.trace:
        detail["traced_pass_s"] = res["traced_pass_s"]
        detail["span_self_sum_s"] = res["span_self_sum_s"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
