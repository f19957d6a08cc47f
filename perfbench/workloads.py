"""The benchmark's workloads, their operations and their known answers.

An operation is one design pair (`check-*`, `saturate-deep`) or one rule
(`audit-rules`).  Every pass runs all of a workload's operations in order,
one at a time, in this process (closed loop, one client).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from tracing import Patches

# Verdict order: a pair may end better than its known answer, never worse.
_RANK = {"unproven": 0, "pass": 1}


@dataclass
class Op:
    name: str
    failed: bool
    seconds: float
    outcome: dict = field(default_factory=dict)
    error: str | None = None
    deadline_s: float = 0.0    # of it, waiting out an extraction deadline


@dataclass
class PassResult:
    wall_s: float
    ops: list[Op]
    problems: list[str]        # outputs that differ from the known answers
    signature: list            # counts that two passes must agree on
    deadline_s: float = 0.0    # wall time of extractions that timed out

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)


class CheckWorkload:
    """`wordec check` on bundled `.sv` pairs, in-process through
    `wordec.cli.main`.  `known` maps each pair to its known verdict and the
    lowest extraction objective the seed commit reaches on it; every bundled
    pair is equivalent, so a `fail` verdict is always wrong."""

    uses_seed = True

    def __init__(self, name: str, known: dict[str, tuple[str, int]],
                 extra_args: tuple[str, ...] = ()):
        self.name = name
        self.known = known
        self.extra_args = extra_args

    def run_pass(self, seed: int, workdir: Path, clock) -> PassResult:
        from wordec import cli, fixtures

        data = Path(cli.__file__).parent / "data"
        ops, problems, signature = [], [], []
        deadline_s = 0.0
        t0 = clock()
        for name in self.known:
            spec, impl = fixtures.PAIRS[name]
            out = workdir / name
            args = ["check", "--spec", str(data / f"{spec}.sv"),
                    "--impl", str(data / f"{impl}.sv"), "--out", str(out),
                    "--seed", str(seed), *self.extra_args]
            op = self._run_one(cli, name, args, out, clock)
            ops.append(op)
            problems += self._check(op)
            signature.append((name, _stable(op.outcome)))
            deadline_s += op.deadline_s
            shutil.rmtree(out, ignore_errors=True)
        return PassResult(clock() - t0, ops, problems, signature, deadline_s)

    @staticmethod
    def _run_one(cli, name: str, args: list[str], out: Path, clock) -> Op:
        probe: dict = {}
        deadline = [0.0]
        patches = Patches()

        def capture(fname, record, pause=False):
            inner = getattr(cli, fname)

            def wrapper(*a, **kw):
                if not pause:
                    result = inner(*a, **kw)
                    record(a, result)
                    return result
                # an extraction may wait out its wall-clock deadline, which
                # is not rescaled to host speed, so it runs unsampled
                with hostspeed.paused():
                    s0 = clock()
                    result = inner(*a, **kw)
                    seconds = clock() - s0
                record(a, result)
                if result.timed_out:
                    deadline[0] += seconds
                return result
            patches.set(cli, fname, wrapper)

        def on_saturate(a, rep):
            probe.update(node_counts=rep.node_counts,
                         class_counts=rep.class_counts,
                         stop_reason=rep.stop_reason)

        def on_extract(a, res):
            probe.update(objective=res.objective, timed_out=res.timed_out,
                         extraction=res.method, graph_nodes=a[0].num_nodes())

        def on_waterfall(a, w):
            probe["steps"] = len(w.spec_steps) + len(w.impl_steps)

        capture("saturate", on_saturate)
        capture("extract_ilp", on_extract, pause=True)
        capture("extract_greedy", on_extract, pause=True)
        capture("build_waterfall", on_waterfall)
        sink = io.StringIO()
        error = None
        t0 = clock()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main(args, standalone_mode=False)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an operation that raises is a failed one
            code, error = None, f"{type(e).__name__}: {e}"
        finally:
            seconds = clock() - t0
            patches.restore()
        code = 0 if code is None and error is None else code
        probe["exit"] = code
        report = out / "report.json"
        if error is None and code in (0, 1, 2) and report.exists():
            rep = json.loads(report.read_text())
            probe["verdict"] = rep["overall"]
            probe["obligations"] = [ob["verdict"]["status"]
                                    for ob in rep["obligations"]]
        elif error is None:
            error = (f"exit {code}: "
                     + (sink.getvalue().strip().splitlines() or [""])[-1])
        failed = error is not None or code not in (0, 2)
        return Op(name, failed, seconds, probe, error, deadline[0])

    def _check(self, op: Op) -> list[str]:
        want_verdict, min_objective = self.known[op.name]
        o = op.outcome
        if op.error is not None:
            return [f"{op.name}: {op.error}"]
        expected_exit = {"pass": 0, "fail": 1, "unproven": 2}[o["verdict"]]
        bad = []
        if o["exit"] != expected_exit:
            bad.append(f"{op.name}: exit {o['exit']} but report.json says "
                       f"{o['verdict']}")
        if _RANK.get(o["verdict"], -1) < _RANK[want_verdict]:
            bad.append(f"{op.name}: verdict {o['verdict']}, known answer "
                       f"{want_verdict}")
        if o.get("objective", -1) < min_objective:
            bad.append(f"{op.name}: extraction objective "
                       f"{o.get('objective')} < known {min_objective}")
        if not o["obligations"]:
            bad.append(f"{op.name}: empty waterfall")
        return bad


class SaturateWorkload:
    """`egraph.saturate` past the merge: `stop_on_merge=False` and limits
    that only let the iteration limit bind."""

    uses_seed = False

    def __init__(self, name: str, pairs: tuple[str, ...], iterations: int):
        self.name = name
        self.pairs = pairs
        self.iterations = iterations

    def run_pass(self, seed: int, workdir: Path, clock) -> PassResult:
        from wordec import egraph, fixtures
        from wordec.rewrites import baseline_rules

        limits = {"iter": self.iterations, "nodes": 10 ** 9, "time": 1e9}
        ops, problems, signature = [], [], []
        t0 = clock()
        for name in self.pairs:
            s0 = clock()
            try:
                spec, impl = fixtures.load_pair(name)
                g = egraph.init_pair(spec, impl)
                rep = egraph.saturate(g, baseline_rules(), limits,
                                      stop_on_merge=False)
            except Exception as e:  # an operation that raises is a failed one
                op = Op(name, True, clock() - s0,
                        error=f"{type(e).__name__}: {e}")
            else:
                outcome = {"node_counts": rep.node_counts,
                           "class_counts": rep.class_counts,
                           "stop_reason": rep.stop_reason,
                           "roots_merged": rep.roots_merged,
                           "unions": g.unions}
                ok = (rep.roots_merged and rep.stop_reason == "iter-limit"
                      and rep.iterations == self.iterations)
                op = Op(name, not ok, clock() - s0, outcome,
                        None if ok else
                        f"roots merged {rep.roots_merged}, stop "
                        f"{rep.stop_reason} after {rep.iterations}")
            ops.append(op)
            if op.error:
                problems.append(f"{name}: {op.error}")
            signature.append((name, _stable(op.outcome)))
        return PassResult(clock() - t0, ops, problems, signature)


class AuditWorkload:
    """`rewrites.validate_rule` on every built-in rule (or on `rules`)."""

    uses_seed = False

    def __init__(self, name: str, maxw: int, rules=None):
        self.name = name
        self.maxw = maxw
        self.rules = rules

    def _rules(self) -> list:
        from wordec.rewrites import baseline_rules
        return self.rules if self.rules is not None else baseline_rules()

    def run_pass(self, seed: int, workdir: Path, clock) -> PassResult:
        from wordec.rewrites import validate_rule

        ops, problems, signature = [], [], []
        t0 = clock()
        for rule in self._rules():
            s0 = clock()
            try:
                violations = validate_rule(rule, maxw=self.maxw)
            except Exception as e:  # an operation that raises is a failed one
                op = Op(rule.id, True, clock() - s0,
                        error=f"{type(e).__name__}: {e}")
            else:
                op = Op(rule.id, bool(violations), clock() - s0,
                        {"violations": len(violations)},
                        f"{len(violations)} violations, first "
                        f"{violations[0]}" if violations else None)
            ops.append(op)
            if op.error:
                problems.append(f"{rule.id}: {op.error}")
            signature.append((rule.id, _stable(op.outcome)))
        return PassResult(clock() - t0, ops, problems, signature)


# Outcome fields that follow from the extracted terms: the objective, and
# the waterfall built from the extraction (its steps, its obligations and
# their verdicts, and the verdict and exit code they give).
FROM_EXTRACTION = {"objective", "steps", "obligations", "verdict", "exit"}


def _stable(outcome: dict) -> tuple:
    """The outcome fields that must repeat exactly from pass to pass.  A
    timed-out extraction returns whatever branch-and-bound had found by its
    deadline, which depends on machine speed, so every field that follows
    from it is left out; the known-answer checks still guard those pairs."""
    skip = FROM_EXTRACTION if outcome.get("timed_out") else set()
    return tuple(sorted((k, repr(v)) for k, v in outcome.items()
                        if k not in skip))


# The oracle gets fewer samples than the CLI default (100 000) so that one
# pass fits the benchmark's run length; see perfbench/README.md.
ORACLE_SAMPLES = "10000"

WORKLOADS = {
    "check-oracle": CheckWorkload("check-oracle", {
        "adpcm": ("pass", 48),
        "boxfilter": ("pass", 98),
        "fig1": ("unproven", 330),
        "fig1-scaled": ("pass", 243),
        "fig4": ("pass", 2),
        "vbsme4": ("unproven", 896),
    }, extra_args=("--samples", ORACLE_SAMPLES)),
    # vbsme8 reads 14514 when branch-and-bound gets its full 10 s on a
    # 2-vCPU x86_64 VM; 14268 is what it reaches within its first 0.5 s.
    "check-extract": CheckWorkload("check-extract", {
        "fir8": ("unproven", 1664),
        "vbsme8": ("unproven", 14268),
    }),
    "saturate-deep": SaturateWorkload("saturate-deep", ("vbsme8", "fir8"),
                                      iterations=5),
    "audit-rules": AuditWorkload("audit-rules", maxw=3),
}
