"""Command-line driver: parse, saturate, extract, build the waterfall,
discharge obligations, report."""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import click

from . import fixtures
from .analysis import AnalysisError
from .egraph import EGraphError, init_pair, saturate
from .extract import (ExtractionError, export_lp, extract_greedy, extract_ilp,
                      shared)
from .frontend import Design, ParseError, emit_sexpr, parse_design
from .oracle import OracleConfig, OracleError, run_waterfall, run_waterfall_dir
from .proof import ProofError, build_waterfall, check_adjacency, \
    write_waterfall
from .rewrites import baseline_rules, parse_rules, validate_rule

EXIT_PASS, EXIT_FAIL, EXIT_UNPROVEN, EXIT_ERROR = 0, 1, 2, 3
EXIT_PIPE = 128 + 13  # killed by SIGPIPE, as a shell reports it

# AnalysisError: an unsound user rule merged classes with disjoint intervals;
# ParseError covers the rule reader's RuleError
_USER_ERRORS = (ParseError, EGraphError, ExtractionError, ProofError,
                OracleError, AnalysisError, OSError, ValueError, KeyError)


def _load_design(path: str) -> Design:
    return parse_design(Path(path).read_text())


def _load_rules(spec: str) -> list:
    if spec == "builtin":
        return baseline_rules()
    if spec == "none":
        return []
    return parse_rules(Path(spec).read_text())


def _read_config(path: str | None, commands: dict) -> dict:
    """key=value file mirroring the CLI flags; '#' starts a comment.  Every
    key names an option of one of `commands`, by its flag without the
    leading dashes (`out`) or by its parameter (`outdir`)."""
    if not path:
        return {}
    keys = {key.lstrip("-").replace("-", "_"): p.name
            for c in commands.values() for p in c.params
            if isinstance(p, click.Option) for key in (p.name, *p.opts)}
    cfg: dict = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {raw!r}")
        flag, val = (part.strip() for part in line.split("=", 1))
        key = flag.replace("-", "_")
        if key not in keys:
            raise ValueError(f"{path}:{ln}: unknown key {flag!r}")
        cfg[keys[key]] = val
    return cfg


def _options(*opts):
    """One decorator applying click options (or other such decorators) in
    the order given, as if stacked top to bottom."""
    def apply(f):
        for o in reversed(opts):
            f = o(f)
        return f
    return apply


_pair_opts = _options(
    click.option("--spec", "spec_path", required=True, type=click.Path()),
    click.option("--impl", "impl_path", required=True, type=click.Path()))

_limit_opts = _options(
    click.option("--iter-limit", default=5, show_default=True),
    click.option("--node-limit", default=50_000, show_default=True),
    click.option("--time-limit", default=60.0, show_default=True))

_common = _options(
    click.option("--rules", default="builtin",
                 help="Rule file path, 'builtin', or 'none'."),
    _limit_opts)

_extract_opts = _options(
    click.option("--extraction", default="ilp",
                 type=click.Choice(["ilp", "greedy"]), show_default=True),
    click.option("--extract-timeout", default=10.0, show_default=True,
                 type=click.FloatRange(min=0),
                 help="Branch-and-bound budget in seconds; on timeout, the "
                      "best selection found so far, or greedy if none was "
                      "found."))

_oracle_opts = _options(
    click.option("--max-exhaustive-bits", default=20, show_default=True,
                 type=click.IntRange(min=0)),
    click.option("--samples", default=100_000, show_default=True,
                 type=click.IntRange(min=0)),
    click.option("--seed", default=0, show_default=True),
    click.option("--external-checker", default=None,
                 help='Command template, e.g. "ec-tool {left} {right}".'))


def _saturated_graph(spec, impl, rules, iter_limit, node_limit, time_limit,
                     dump_graph=None):
    """Saturate the two-rooted graph of the pair, and dump it as JSON if
    asked, before anything later can fail."""
    g = init_pair(spec, impl)
    rep = saturate(g, rules, {"iter": iter_limit, "nodes": node_limit,
                              "time": time_limit})
    if dump_graph:
        Path(dump_graph).write_text(
            json.dumps(g.dump(shared(g)), indent=2, sort_keys=True) + "\n")
    return g, rep


def _extract(g, method: str, timeout: float):
    if method == "greedy":
        return extract_greedy(g)
    return extract_ilp(g, timeout=timeout)


def _waterfall(spec, impl, rules, iter_limit, node_limit, time_limit,
               extraction="ilp", extract_timeout=10.0, dump_graph=None):
    """The pipeline behind check, waterfall and bench: saturate, extract,
    build the waterfall and check that its steps are adjacent.  Also
    returns the extraction's seconds."""
    g, rep = _saturated_graph(spec, impl, rules, iter_limit, node_limit,
                              time_limit, dump_graph)
    t0 = time.perf_counter()
    res = _extract(g, extraction, extract_timeout)
    extract_s = time.perf_counter() - t0
    w = build_waterfall(g, spec, impl, res, rules)
    check_adjacency(w)
    return g, rep, res, w, extract_s


@contextmanager
def _usage_exit():
    """Give a click usage error (a bad or missing option, an unknown
    command) exit code EXIT_ERROR: click's own, 2, is EXIT_UNPROVEN here."""
    try:
        yield
    except click.UsageError as e:
        e.exit_code = EXIT_ERROR
        raise


class _Main(click.Group):
    """The command group; its own options are parsed in make_context, a
    subcommand's in invoke."""

    def make_context(self, *args, **kwargs):
        with _usage_exit():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_exit():
            return super().invoke(ctx)


@click.group(cls=_Main)
@click.option("--config", "config_path", default=None,
              type=click.Path(),
              help="key=value file providing defaults for any flag.")
@click.pass_context
def main(ctx, config_path):
    """Datapath equivalence assistant: e-graph rewriting, shared extraction,
    and a single-rewrite proof waterfall."""
    # one file supplies defaults to every command
    commands = ctx.command.commands
    try:
        cfg = _read_config(config_path, commands)
    except _USER_ERRORS as e:
        click.echo(f"error: {e}", err=True)
        ctx.exit(EXIT_ERROR)
    if cfg:
        ctx.default_map = {cmd: cfg for cmd in commands}


def _cmd_errors(fn):
    def wrapper(*args, **kw):
        try:
            return fn(*args, **kw)
        except BrokenPipeError:
            # the reader of stdout stopped early (`| head`): exit as SIGPIPE
            # would, and let the interpreter's flush at exit write to
            # /dev/null rather than fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(EXIT_PIPE)
        except _USER_ERRORS as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_ERROR)
        except RecursionError:  # the walks recurse once or more per level
            click.echo("error: design nested too deeply", err=True)
            sys.exit(EXIT_ERROR)
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _report_exit(report) -> int:
    if report.overall == "pass":
        return EXIT_PASS
    return EXIT_FAIL if report.overall == "fail" else EXIT_UNPROVEN


def _finish(outdir, report, summary=(), **blocks):
    """Write report.json (the verdicts and any further `blocks`), then print
    the `summary` lines and the verdicts, and exit with the code of the
    overall verdict."""
    (Path(outdir) / "report.json").write_text(
        json.dumps(dict(report.to_json(), **blocks), indent=2,
                   sort_keys=True) + "\n")
    for line in summary:
        click.echo(line)
    for ob, v in report.verdicts:
        line = f"  [{v.status:8s}] {ob['kind']:16s} {ob['rule']:20s} {v.method}"
        click.echo(line)
        if v.counterexample:
            click.echo(f"      counterexample: {v.counterexample}")
        if v.note:
            click.echo(f"      note: {v.note}")
        if v.declined:
            click.echo("      declined: " + "; ".join(
                f"{tier}: {why}" for tier, why in v.declined))
    click.echo(f"overall: {report.overall}  "
               f"assume-guarantee: {report.assume_guarantee}")
    sys.exit(_report_exit(report))


@main.command()
@_pair_opts
@click.option("--out", "outdir", default="wordec-out", show_default=True)
@_extract_opts
@click.option("--dump-graph", default=None, type=click.Path(),
              help="Write the saturated e-graph as JSON.")
@_common
@_oracle_opts
@_cmd_errors
def check(spec_path, impl_path, outdir, extraction, extract_timeout,
          dump_graph, rules, iter_limit, node_limit, time_limit,
          max_exhaustive_bits, samples, seed, external_checker):
    """Full flow: saturate, extract, build the waterfall, prove, report."""
    g, rep, res, w, extract_s = _waterfall(
        _load_design(spec_path), _load_design(impl_path),
        _load_rules(rules), iter_limit, node_limit, time_limit, extraction,
        extract_timeout, dump_graph)
    write_waterfall(w, outdir)
    ocfg = OracleConfig(max_exhaustive_bits, samples, seed, external_checker)
    t0 = time.perf_counter()
    report = run_waterfall(w, ocfg)
    _finish(outdir, report, [
        f"saturation: {rep.iterations} iterations, {g.num_nodes()} nodes, "
        f"roots merged: {rep.roots_merged} ({rep.stop_reason})",
        f"extraction: {res.method}, objective {res.objective}, "
        f"timed_out: {res.timed_out}",
        f"waterfall: {len(w.obligations())} obligations -> {outdir} "
        f"(proved in {time.perf_counter() - t0:.2f}s)",
    ], saturation={
        "iterations": rep.iterations, "nodes": g.num_nodes(),
        "roots_merged": rep.roots_merged, "stop_reason": rep.stop_reason,
        "per_iteration": [asdict(st) for st in rep.per_iteration],
        "rules": {rid: asdict(rc) for rid, rc in rep.rules.items()},
    }, extraction={"method": res.method, "objective": res.objective,
                   "timed_out": res.timed_out,
                   "optimal": res.method == "ilp" and not res.timed_out,
                   "visits": res.visits, "bound": res.bound,
                   "seconds": round(extract_s, 6)}, waterfall=w.chains)


@main.command("saturate")
@_pair_opts
@click.option("--dump-graph", default=None, type=click.Path())
@_common
@_cmd_errors
def saturate_cmd(spec_path, impl_path, dump_graph, rules, iter_limit,
                 node_limit, time_limit):
    """Grow the two-rooted e-graph and report saturation statistics."""
    spec, impl = _load_design(spec_path), _load_design(impl_path)
    g, rep = _saturated_graph(spec, impl, _load_rules(rules), iter_limit,
                              node_limit, time_limit, dump_graph)
    click.echo(f"iterations: {rep.iterations} ({rep.stop_reason})")
    for i, st in enumerate(rep.per_iteration, 1):
        click.echo(f"  iteration {i}: {st.matches} matches, "
                   f"{st.redundant_applications} redundant; match "
                   f"{st.match_s:.3f}s apply {st.apply_s:.3f}s width-reduce "
                   f"{st.width_reduce_s:.3f}s rebuild {st.rebuild_s:.3f}s "
                   f"({st.rekeyed} rekeyed, {st.congruences} congruences)")
    for rid, rc in rep.rules.items():
        click.echo(f"  rule {rid}: {rc.matches} matches, "
                   f"{rc.useful_applications} useful")
    click.echo(f"nodes: {' -> '.join(map(str, rep.node_counts))}")
    click.echo(f"classes: {' -> '.join(map(str, rep.class_counts))}")
    before = shared(init_pair(spec, impl))
    click.echo(f"shared classes: {len(before.c_shared)} -> "
               f"{len(shared(g).c_shared)}")
    click.echo(f"roots merged: {rep.roots_merged}")


@main.command("extract")
@_pair_opts
@_extract_opts
@click.option("--lp", "lp_path", default=None, type=click.Path(),
              help="Export the extraction ILP in CPLEX LP format.")
@_common
@_cmd_errors
def extract_cmd(spec_path, impl_path, extraction, extract_timeout, lp_path,
                rules, iter_limit, node_limit, time_limit):
    """Saturate, then extract the maximally-shared design pair."""
    spec, impl = _load_design(spec_path), _load_design(impl_path)
    g, _ = _saturated_graph(spec, impl, _load_rules(rules), iter_limit,
                            node_limit, time_limit)
    if lp_path:
        Path(lp_path).write_text(export_lp(g))
    res = _extract(g, extraction, extract_timeout)
    click.echo(f"method: {res.method}  objective: {res.objective}  "
               f"bound: {res.bound}  shared nodes: {res.shared_node_count}  "
               f"visits: {res.visits}  timed_out: {res.timed_out}")
    click.echo("S*: " + emit_sexpr(Design("s_star", spec.inputs, spec.output,
                                          res.s_star)).strip())
    click.echo("I*: " + emit_sexpr(Design("i_star", spec.inputs, spec.output,
                                          res.i_star)).strip())


@main.command("waterfall")
@_pair_opts
@click.option("--out", "outdir", default="wordec-out", show_default=True)
@_extract_opts
@_common
@_cmd_errors
def waterfall_cmd(spec_path, impl_path, outdir, extraction, extract_timeout,
                  rules, iter_limit, node_limit, time_limit):
    """Build and emit the waterfall directory without proving it."""
    _, _, _, w, _ = _waterfall(
        _load_design(spec_path), _load_design(impl_path),
        _load_rules(rules), iter_limit, node_limit, time_limit, extraction,
        extract_timeout)
    manifest = write_waterfall(w, outdir)
    click.echo(f"{len(manifest['designs'])} designs, "
               f"{len(manifest['obligations'])} obligations -> {outdir}")


@main.command("prove")
@click.argument("outdir", type=click.Path())
@_oracle_opts
@_cmd_errors
def prove_cmd(outdir, max_exhaustive_bits, samples, seed, external_checker):
    """Discharge the obligations of an emitted waterfall directory."""
    ocfg = OracleConfig(max_exhaustive_bits, samples, seed, external_checker)
    _finish(outdir, run_waterfall_dir(outdir, ocfg))


@main.command("validate-rules")
@click.option("--rules", default="builtin",
              help="Rule file path or 'builtin'.")
@click.option("--maxw", default=4, show_default=True)
@_cmd_errors
def validate_rules_cmd(rules, maxw):
    """Audit every rule's condition by exhaustive small-width enumeration."""
    rls = _load_rules(rules)
    bad = 0
    for r in rls:
        t0 = time.perf_counter()
        violations = validate_rule(r, maxw=maxw)
        click.echo(f"{r.id:20s} {len(violations):3d} violations "
                   f"({time.perf_counter() - t0:.1f}s)")
        for v in violations[:3]:
            click.echo(f"    {v}")
        bad += len(violations)
    sys.exit(EXIT_PASS if bad == 0 else EXIT_FAIL)


@main.command("bench")
@click.argument("names", nargs=-1)
@_oracle_opts
@_limit_opts
@_cmd_errors
def bench_cmd(names, max_exhaustive_bits, samples, seed, external_checker,
              iter_limit, node_limit, time_limit):
    """Run bundled benchmark fixtures end to end and print a table."""
    # every fixture is read before the table starts, so that an unknown
    # name is the one line of output
    pairs = [(name, fixtures.load_pair(name))
             for name in list(names) or fixtures.names()]
    rls = baseline_rules()
    ocfg = OracleConfig(max_exhaustive_bits, samples, seed, external_checker)
    click.echo(f"{'name':12s} {'iters':>5s} {'nodes':>6s} {'merged':>6s} "
               f"{'timed_out':>9s} {'obls':>4s} {'overall':>8s} {'time':>7s}")
    worst = EXIT_PASS
    for name, pair in pairs:
        t0 = time.perf_counter()
        g, rep, res, w, _ = _waterfall(*pair, rls,
                                       iter_limit, node_limit, time_limit)
        report = run_waterfall(w, ocfg)
        worst = max(worst, _report_exit(report))
        click.echo(f"{name:12s} {rep.iterations:5d} {g.num_nodes():6d} "
                   f"{str(rep.roots_merged):>6s} {str(res.timed_out):>9s} "
                   f"{len(report.verdicts):4d} "
                   f"{report.overall:>8s} {time.perf_counter() - t0:6.2f}s")
    sys.exit(worst)


if __name__ == "__main__":
    main()
