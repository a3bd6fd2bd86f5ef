"""Fast self-check of the benchmark.

    python3 perfbench/smoke.py [SEED ...]

From the root of a checkout, runs every workload of BENCHMARK.json for one
second (which still makes one whole pass) with --trace 0 on each seed
(default: 0 and 1) and with --trace 1 on the first. It confirms that each
run prints exactly the metrics BENCHMARK.json names, with their units, that
every operation and check passed, and that the span self times of each
traced run sum to no more than its traced pass time. Exits 1 on any
failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def problems(spec: dict, detail: dict, result: dict, trace: int) -> list[str]:
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        found.append(f"checks failed: {detail['failures']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        found.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))} "
                     f"or units {[k for k in wanted if got.get(k) != wanted[k]]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            found.append(f"{name} is not a number")
    if trace and detail["span_self_sum_s"] > detail["traced_pass_s"]:
        found.append(f"span self times {detail['span_self_sum_s']:.6f} s exceed "
                     f"the traced pass {detail['traced_pass_s']:.6f} s")
    return found


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]] or [0, 1]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
        for seed, trace in runs:
            try:
                detail, result = run(workload, seed, trace)
                found = problems(spec, detail, result, trace)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                found = [repr(exc)]
            failed += bool(found)
            status = "ok" if not found else "FAIL " + "; ".join(found)
            print(f"{workload} seed={seed} trace={trace}: {status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
