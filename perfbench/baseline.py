"""Record a full set of benchmark numbers for the current checkout.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baselines/X.json
        [--no-traced]

Runs `run.py` untraced once per workload of BENCHMARK.json and seed, then
once traced per workload with seed 1, one process at a time.  For every
end-to-end metric it writes the per-run values, the median, the quartiles
and the quartile spread as a share of the median (Python's
`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json; the traced run's per-layer metrics are written as
reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_SEED = 1


def run_one(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_elapsed_s"] = elapsed
    return result


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": bound}


def main(argv=None) -> int:
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--no-traced", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    seconds = schema["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in schema["end_to_end"]}
    report = {"host": {"machine": platform.machine(),
                       "python": platform.python_version(),
                       "cpus": len(os.sched_getaffinity(0))},
              "run_seconds": seconds, "workloads": {}}
    for wl in (w["name"] for w in schema["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            res = run_one(wl, seed, 0, seconds)
            runs.append(res)
            print(f"{wl} seed {seed}: correct {res['correct']} "
                  f"{res['failed']}/{res['attempted']} failed  " + "  ".join(
                      f"{k} {v['value']:.4g}"
                      for k, v in res["metrics"].items()), flush=True)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_elapsed_s": [round(r["run_elapsed_s"], 2) for r in runs],
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs],
                                bounds[name])
                for name in bounds}}
        for name, s in entry["end_to_end"].items():
            print(f"{wl} {name}: median {s['median']:.4g}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}", flush=True)
        if not args.no_traced:
            traced = run_one(wl, TRACED_SEED, 1, seconds)
            entry["traced"] = {
                "seed": TRACED_SEED, "correct": traced["correct"],
                "run_elapsed_s": round(traced["run_elapsed_s"], 2),
                "per_layer": {k: v["value"]
                              for k, v in traced["metrics"].items()}}
        report["workloads"][wl] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
