"""wordec benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wordec checkout; the package is imported from that
checkout's `src/`.  A run first times `setup_s` (fresh processes that import
`wordec.cli` and build the built-in rules), then repeats passes over the
workload until `--seconds` have elapsed (at least one pass).  Both times
are rescaled to a reference host speed sampled while they run
(`hostspeed.py`).  It prints a table of per-operation rows and metrics, and
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `BENCHMARK.json` at the
checkout root fixes the metric names and units: with `--trace 0` the metrics
are its `end_to_end` list, with `--trace 1` its `per_layer` list.

A traced run makes one untraced pass, then traced passes, which are not
rescaled; the difference in wall time is `trace.overhead_s`.  Exit status is
0 when a result was printed, 2 when the checkout or the arguments are
unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import SpeedSampler, rescale

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 8
SETUP_CODE = """\
import json, sys
sys.path[:0] = sys.argv[1:]
import hostspeed
with hostspeed.SpeedSampler() as s:
    import wordec.cli
    from wordec.rewrites import baseline_rules
    baseline_rules()
print(json.dumps([s.spent_s, s.slowdown]))
"""


class Unusable(Exception):
    """The checkout or the arguments cannot give a result."""


def load_wordec():
    """Import wordec from this checkout's src/, never from elsewhere."""
    pkg = SRC / "wordec"
    if not (pkg / "__init__.py").is_file():
        raise Unusable(f"no wordec sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import wordec
    if Path(wordec.__file__).resolve().parent != pkg.resolve():
        raise Unusable(f"wordec imported from {wordec.__file__}, not {pkg}")


def load_schema() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise Unusable(f"cannot read {path}: {e}") from None


def measure_setup() -> float:
    """Wall time of a fresh process that imports `wordec.cli` and builds
    `baseline_rules()`, rescaled to the reference speed by the host speed
    sampled inside it during the import: the median of SETUP_RUNS
    processes.  One untimed process runs first, so that in a fresh checkout
    writing the bytecode caches is not measured."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC),
           str(ROOT / "perfbench")]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                              text=True)
        wall = time.perf_counter() - t0
        spent, slowdown = json.loads(proc.stdout)
        times.append((wall - spent) / slowdown)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def outcome_metrics(res, failed: int, attempted: int) -> dict:
    """End-to-end outcome metrics of pass `res`, with `failed_share` taken
    over all `attempted` operations of the run.  The check-only ones are
    absent on other workloads."""
    out = {"failed_share": failed / attempted}
    if any("exit" in op.outcome for op in res.ops):
        proven = sum(op.outcome.get("obligations", []).count("pass")
                     for op in res.ops)
        out.update(
            pairs_proven=sum(op.outcome.get("verdict") == "pass"
                             for op in res.ops),
            obligations_proven=proven,
            obligations_proven_per_s=proven / res.wall_s,
            extract_objective=sum(op.outcome.get("objective", 0)
                                  for op in res.ops),
            extract_timeouts=sum(bool(op.outcome.get("timed_out"))
                                 for op in res.ops))
    return out


def layer_metrics(tr, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.  Metrics that the pass never
    touched are absent here and reported as 0."""
    from tracing import LAYERS
    m: dict = {f"{b}_s": v for b, v in tr.incl_s.items()}
    m.update(tr.counts)
    m.update(tr.seconds)
    m.update(tr.maxima)
    m["ir.evaluate_calls"] = tr.calls.get("ir.evaluate", 0)
    m["ir.evaluate_many_calls"] = tr.calls.get("ir.evaluate_many", 0)
    matches = tr.counts.get("rewrites.matches", 0)
    m["rewrites.apply_useful_ratio"] = (
        tr.counts.get("rewrites.useful_applications", 0) / matches
        if matches else 0.0)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = tr.self_s.get(layer, 0.0)
    m["trace.wall_s"] = wall_s
    return m


# Boundaries and counters that run before extraction, or in it without
# depending on what it found.
UPSTREAM = ("frontend.parse", "egraph.", "rewrites.", "analysis.",
            "extract.shared", "extract.solve", "extract.timed_out",
            "extract.graph_nodes")


def trace_signature(tr) -> list:
    """Counts two traced passes must agree on.  When an extraction timed out,
    its terms depend on machine speed, and so does everything built from
    them (the objective, the waterfall, the oracle's and the evaluator's
    work); the signature then keeps only the upstream counts."""
    counts, calls, series = tr.counts, tr.calls, tr.series
    if counts.get("extract.timed_out"):
        counts = {k: v for k, v in counts.items() if k.startswith(UPSTREAM)}
        calls = {k: v for k, v in calls.items() if k.startswith(UPSTREAM)}
        series = [s for s in series if s[0] != "verdicts"]
    counts = {k: v for k, v in counts.items() if k != "extract.objective"}
    return [sorted(counts.items()), sorted(calls.items()), series]


@dataclass
class RunResult:
    passes: list             # every pass, the untraced reference first
    layer_runs: list[dict]   # per-layer metrics of each traced pass
    signatures: list         # count signature of each traced pass
    problems: list[str]
    peak_rss_mb: float       # after the first pass, so pass count is moot
    samplers: list           # the SpeedSampler of each untraced pass
    wall_s: list[float]      # each untraced pass, rescaled


def untraced_pass(workload, seed: int, workdir: Path, clock, out: RunResult):
    with SpeedSampler() as sampler:
        res = workload.run_pass(seed, workdir, clock)
    out.samplers.append(sampler)
    out.wall_s.append(rescale(res.wall_s, sampler, res.deadline_s))
    return res


def run(workload, seed: int, seconds: float, trace: bool,
        workdir: Path) -> RunResult:
    from tracing import Tracer, instrumented
    clock = time.perf_counter
    out = RunResult([], [], [], [], 0.0, [], [])
    start = clock()
    if trace:  # untraced reference pass for trace.overhead_s
        out.passes.append(untraced_pass(workload, seed, workdir, clock, out))
        start = clock()
    while True:
        if trace:
            tr = Tracer()
            with instrumented(tr), tr.root() as wall:
                res = workload.run_pass(seed, workdir, clock)
            out.layer_runs.append(layer_metrics(tr, wall[0]))
            out.signatures.append(trace_signature(tr))
        else:
            res = untraced_pass(workload, seed, workdir, clock, out)
        out.passes.append(res)
        if not out.peak_rss_mb:
            out.peak_rss_mb = peak_rss_mb()
        if clock() - start >= seconds:
            break
    for i, p in enumerate(out.passes):
        out.problems += p.problems
        if p.signature != out.passes[0].signature:
            out.problems.append(f"pass {i + 1} outcome differs from pass 1: "
                                "not deterministic")
    if any(s != out.signatures[0] for s in out.signatures):
        out.problems.append("traced passes counted different work: "
                            "not deterministic")
    return out


def print_ops(res) -> None:
    print(f"{'operation':14s} {'failed':>6s} {'seconds':>9s}  outcome")
    for op in res.ops:
        o = op.outcome
        if "exit" in o:
            desc = (f"exit {o['exit']} {o.get('verdict', '-')}  objective "
                    f"{o.get('objective', '-')}"
                    f"{' (timed out)' if o.get('timed_out') else ''}  "
                    f"{len(o.get('obligations', []))} obligations")
        elif "node_counts" in o:
            desc = (f"nodes {' -> '.join(map(str, o['node_counts']))}  "
                    f"{o['stop_reason']}  merged {o['roots_merged']}")
        else:
            desc = f"{o.get('violations', '-')} violations"
        if op.error:
            desc += f"  error: {op.error}"
        print(f"{op.name:14s} {str(op.failed):>6s} {op.seconds:9.3f}  {desc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--signature", type=Path, default=None,
                    help="also write the run's count signature to this file")
    args = ap.parse_args(argv)
    try:
        schema = load_schema()
        load_wordec()
    except Unusable as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not workload.uses_seed:
        print(f"note: {workload.name} does not use --seed; its inputs are "
              "fixed", file=sys.stderr)

    setup_s = measure_setup()
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        r = run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    first = r.passes[0]
    measured = {
        "wall_s": statistics.median(r.wall_s),
        "setup_s": setup_s,
        "peak_rss_mb": r.peak_rss_mb,
        "wall_unscaled_s": statistics.median(
            p.wall_s - s.spent_s for p, s in zip(r.passes, r.samplers)),
        "host_slowdown": statistics.median(s.slowdown for s in r.samplers),
    }
    attempted = sum(len(p.ops) for p in r.passes)
    failed = sum(p.failed for p in r.passes)
    outcomes = outcome_metrics(first, failed, attempted)
    if args.trace:
        measured.update(outcomes)
        for name in r.layer_runs[0]:
            measured[name] = statistics.median(
                lr.get(name, 0) for lr in r.layer_runs)
        measured["trace.overhead_s"] = measured["trace.wall_s"] - \
            measured["wall_unscaled_s"]

    print(f"workload {workload.name}  seed {args.seed}  "
          f"{len(r.passes)} pass(es) of {len(first.ops)} operations  "
          f"(closed loop, one client)")
    print_ops(first)
    wanted = schema["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':40s} {'value':>14s}  unit")
    if not args.trace:
        units = {e["name"]: e["unit"] for e in schema["per_layer"]}
        for name, value in outcomes.items():
            shown = (f"{failed}/{attempted}" if name == "failed_share"
                     else f"{value:.6g}")
            print(f"{name:40s} {shown:>14s}  {units.get(name, '')}")
    for entry in wanted:
        print(f"{entry['name']:40s} "
              f"{measured.get(entry['name'], 0):14.6g}  {entry['unit']}")
    reported = {e["name"] for e in wanted}
    for name in sorted(set(measured) - reported):
        print(f"{name:40s} {measured[name]:14.6g}  (not in the result line)")
    for p in r.problems:
        print(f"problem: {p}")

    if args.signature is not None:
        args.signature.parent.mkdir(parents=True, exist_ok=True)
        args.signature.write_text(json.dumps({
            "outcomes": [repr(s) for s in first.signature],
            "trace": repr(r.signatures[0]) if r.signatures else None,
            "timed_out_objectives": [
                [op.name, op.outcome.get("objective")]
                for p in r.passes for op in p.ops
                if op.outcome.get("timed_out")],
        }, indent=1) + "\n")

    result = {
        "correct": not r.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {e["name"]: {"value": measured.get(e["name"], 0),
                                "unit": e["unit"]} for e in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
