"""Per-layer tracing of wordec from outside the package.

The benchmark never edits `src/`.  Instead it replaces wordec's public
functions with timing wrappers for the length of a traced pass and puts the
originals back afterwards.  Where a module imported a name from another
module (for example `cli.extract_ilp`), the binding in the importing module
is replaced too, so calls through either name are seen.

Every boundary is aggregated as a call counter plus accumulated time rather
than one span per call: `Match.apply` and scalar `ir.evaluate` run hundreds
of thousands of times per pass.  A stack of open frames gives each layer its
self time (time inside the layer minus time in wrapped calls it made), so
the self times of all layers plus `other` (code outside every wrapped
boundary: the CLI driver, file I/O, the benchmark loop) add up to the pass's
wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("frontend", "egraph", "rewrites", "analysis", "extract", "proof",
          "oracle", "ir", "audit", "other")


def _wordec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wordec"
                                  or name.startswith("wordec."))]


class Patches:
    """Attribute replacements that `restore()` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def everywhere(self, fn, wrapper, skip=()) -> None:
        """Rebind every wordec module attribute that is `fn` to `wrapper`,
        except in the modules listed in `skip`."""
        for mod in _wordec_modules():
            if mod in skip:
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self.set(mod, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Accumulates per-boundary time and call counts, per-layer self time,
    and named counters for one or more passes."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)  # named totals
        self.maxima: dict[str, float] = defaultdict(float)
        self.series: list[tuple] = []      # per-call count records, in order
        self._stack: list[list[float]] = []  # per open frame: child seconds
        self._open: dict[str, int] = defaultdict(int)

    def wrap(self, fn, layer: str, boundary: str, on_result=None):
        """Timing wrapper for `fn`.  `boundary` time is inclusive and only
        counted for the outermost of nested calls to the same boundary;
        `on_result(args, result, seconds)` runs after those outermost
        calls."""
        stack, opened, clock = self._stack, self._open, time.perf_counter
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def wrapper(*args, **kwargs):
            calls[boundary] += 1
            opened[boundary] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                opened[boundary] -= 1
                outermost = not opened[boundary]
                if outermost:
                    incl_s[boundary] += dt
            if outermost and on_result is not None:
                on_result(args, result, dt)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, name: str):
        """Untimed wrapper that only counts calls under `name`."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def root(self):
        """Frame for one whole pass; its self time is layer `other`.
        Yields a one-item list that holds the pass's wall seconds on exit."""
        if self._stack:
            raise RuntimeError("root frame opened inside another frame")
        frame = [0.0]
        self._stack.append(frame)
        out = [0.0]
        t0 = time.perf_counter()
        try:
            yield out
        finally:
            out[0] = time.perf_counter() - t0
            self._stack.pop()
            self.self_s["other"] += out[0] - frame[0]


def method_key(method: str) -> str:
    """'random(100000)' -> 'random'; other verdict methods unchanged."""
    return method.split("(", 1)[0]


@contextmanager
def instrumented(tr: Tracer):
    """Install `tr`'s wrappers on every traced wordec boundary for the
    duration of the `with` block."""
    patches = Patches()
    try:
        _install(tr, patches)
        yield tr
    finally:
        patches.restore()


def _install(tr: Tracer, patches: Patches) -> None:
    from wordec import (analysis, egraph, extract, frontend, ir, oracle,
                        proof, rewrites)

    counts, maxima, series = tr.counts, tr.maxima, tr.series

    def fn(mod, name, layer, boundary, on_result=None, skip=()):
        orig = getattr(mod, name)
        patches.everywhere(orig, tr.wrap(orig, layer, boundary, on_result),
                           skip)

    def method(cls, name, layer, boundary, on_result=None):
        patches.set(cls, name,
                    tr.wrap(vars(cls)[name], layer, boundary, on_result))

    # -- frontend
    for name in ("parse_sv", "parse_sexpr"):
        fn(frontend, name, "frontend", "frontend.parse")
    for name in ("emit_sv", "emit_sexpr"):
        fn(frontend, name, "frontend", "frontend.emit")

    # -- egraph
    def on_saturate(args, rep, _dt):
        g = args[0]
        counts["egraph.iterations"] += rep.iterations
        counts["egraph.nodes"] += rep.node_counts[-1]
        counts["egraph.classes"] += rep.class_counts[-1]
        counts["egraph.unions"] += g.unions
        counts["rewrites.redundant_applications"] += rep.redundant_applications
        series.append(("saturate", tuple(rep.node_counts),
                       tuple(rep.class_counts), rep.stop_reason, g.unions))

    fn(egraph, "init_pair", "egraph", "egraph.init")
    fn(egraph, "saturate", "egraph", "egraph.saturate", on_saturate)
    method(egraph.EGraph, "rebuild", "egraph", "egraph.rebuild")

    # -- rewrites
    def on_matches(args, result, _dt):
        counts["rewrites.matches." + args[0].id] += len(result)
        counts["rewrites.matches"] += len(result)

    def on_apply(_args, useful, _dt):
        if useful:
            counts["rewrites.useful_applications"] += 1

    for cls in (rewrites.Rule, rewrites.ZextIntroRule,
                rewrites.WidthReduceRule):
        method(cls, "matches", "rewrites", "rewrites.match", on_matches)
    for cls in (rewrites.Match, rewrites.ZextIntroMatch):
        method(cls, "apply", "rewrites", "rewrites.apply", on_apply)
    fn(rewrites, "parse_rules", "rewrites", "rewrites.parse")

    # -- analysis
    def on_width_reduce(_args, narrowed, _dt):
        counts["analysis.narrowings"] += narrowed

    fn(analysis, "width_reduction_pass", "analysis", "analysis.width_reduce",
       on_width_reduce)
    fn(analysis, "refine_intervals", "analysis", "analysis.refine")

    # -- extract
    def on_extract(args, res, _dt):
        counts["extract.objective"] += res.objective
        counts["extract.timed_out"] += int(res.timed_out)
        counts["extract.graph_nodes"] += args[0].num_nodes()
        series.append(("extract", res.method, res.timed_out,
                       None if res.timed_out else res.objective))

    fn(extract, "shared", "extract", "extract.shared")
    for name in ("extract_ilp", "extract_greedy"):
        fn(extract, name, "extract", "extract.solve", on_extract)

    # -- proof
    def on_waterfall(_args, w, _dt):
        counts["proof.steps"] += len(w.spec_steps) + len(w.impl_steps)
        counts["proof.obligations"] += len(w.obligations())

    fn(proof, "build_waterfall", "proof", "proof.explain", on_waterfall)
    fn(proof, "check_adjacency", "proof", "proof.adjacency")
    fn(proof, "write_waterfall", "proof", "proof.write")

    # -- oracle
    vectorizable = ir.vectorizable

    def on_check(args, _verdict, dt):
        d1, d2 = args[0], args[1]
        maxima["oracle.check_s_max"] = max(maxima["oracle.check_s_max"], dt)
        bits = sum(a.width for _, a in d1.inputs)
        maxima["oracle.input_bits_max"] = max(
            maxima["oracle.input_bits_max"], bits)
        if d1.body != d2.body and not (vectorizable(d1.body)
                                       and vectorizable(d2.body)):
            counts["oracle.scalar_obligations"] += 1

    def on_waterfall_report(_args, report, _dt):
        for _ob, v in report.verdicts:
            counts[f"oracle.obligations.{method_key(v.method)}.{v.status}"] \
                += 1
        series.append(("verdicts", tuple(
            (method_key(v.method), v.status) for _, v in report.verdicts)))

    fn(oracle, "check_equiv", "oracle", "oracle.check", on_check)
    fn(oracle, "run_waterfall", "oracle", "oracle.run", on_waterfall_report)

    # -- ir: scalar evaluate is wrapped where it is called from, not inside
    # ir, so its own recursion is not counted as calls
    fn(ir, "evaluate", "ir", "ir.evaluate", skip=(ir,))
    fn(ir, "evaluate_many", "ir", "ir.evaluate_many")

    # -- audit: rewrites.validate_rule and the instances it checks
    def validate_rule(rule, *args, **kwargs):
        cond = getattr(rule, "cond", True)
        inner = rewrites.eval_expr

        def eval_expr(e, env):
            if e is cond:
                counts["audit.cond_evals"] += 1
            return inner(e, env)

        rewrites.eval_expr = eval_expr
        try:
            return timed_validate(rule, *args, **kwargs)
        finally:
            rewrites.eval_expr = inner

    def on_validate(args, _violations, dt):
        tr.seconds["audit.validate_s." + args[0].id] += dt

    timed_validate = tr.wrap(rewrites.validate_rule, "audit",
                             "audit.validate", on_validate)
    validate_rule.__wrapped__ = rewrites.validate_rule
    patches.everywhere(rewrites.validate_rule, validate_rule)
    patches.set(rewrites, "_check_instance",
                tr.counter(rewrites._check_instance, "audit.instances"))
