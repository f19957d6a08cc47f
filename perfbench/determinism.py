"""Determinism check: run a workload twice and compare what it counted.

    python3 perfbench/determinism.py --workload NAME [--seed N]

Each run is a separate traced `run.py` process with a different
PYTHONHASHSEED, so set iteration order cannot hide.  The two runs must agree
on every count: nodes and classes per saturation iteration, matches per
rule, extraction objectives, waterfall steps, evaluator calls and the
verdict mix.  The objective of an extraction that hit its time limit depends
on machine speed, so it is excluded from that comparison and printed for
each run instead.  Exit status 0 means the counts were identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, hash_seed: int, out: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", "1", "--signature", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py exited {proc.returncode}")
    print(proc.stdout.strip().splitlines()[-1])  # the traced result line
    return json.loads(out.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    sigs = []
    try:
        for hash_seed in (1, 2):
            out = tmp / f"determinism-{os.getpid()}-{hash_seed}.json"
            try:
                sigs.append(run_once(args.workload, args.seed, hash_seed,
                                     out))
            finally:
                out.unlink(missing_ok=True)
    finally:
        try:
            tmp.rmdir()
        except OSError:
            pass  # a benchmark run is still using it
    a, b = sigs
    same = True
    for key in ("outcomes", "trace"):
        if a[key] != b[key]:
            same = False
            print(f"determinism {args.workload}: {key} differ")
            if isinstance(a[key], list):
                for x, y in zip(a[key], b[key]):
                    if x != y:
                        print(f"  run 1: {x}\n  run 2: {y}")
                        break
    for i, s in enumerate(sigs, 1):
        if s["timed_out_objectives"]:
            print(f"timed-out objectives, run {i}: "
                  f"{s['timed_out_objectives']}")
    print(f"determinism {args.workload}: "
          f"{'identical' if same else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
