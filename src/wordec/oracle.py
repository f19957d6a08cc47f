"""Simulation-based equivalence oracle and waterfall runner.

The oracle decides pairs of designs with matching ports by a chain of
tiers, `_TIERS`: exhaustive, grid, random (sampling) and external.  Each
tier takes every pair still undecided and returns, for each, a Verdict or a
Refusal with its reason (external never refuses); the first Verdict wins,
and the refusals before it are its `declined`.  Every tier reads one
program of the designs that share an input list, compiled once per check,
and searches each input space once.  run_waterfall discharges every
obligation of a waterfall — in memory or from an emitted directory — in
one run of the chain and folds the verdicts into a single report;
check_equiv is the chain on one pair.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .frontend import Design, emit_sv, parse_sexpr
from .ir import (SHIFT_OPS, Annotation, Program, Step, pair_mismatches,
                 program, select)


class OracleError(Exception):
    pass


class Refusal(Exception):
    """Why a tier does not decide a pair."""


@dataclass
class Verdict:
    status: str                       # pass | fail | unproven
    method: str                       # the deciding tier's, e.g. random(n)
    counterexample: dict | None = None
    note: str | None = None           # the deciding tier's own message
    elapsed: float = 0.0
    input_bits: int | None = None     # of the checked designs' inputs
    declined: tuple = ()              # (tier, reason) of each refusal

    def to_json(self) -> dict:
        out = {"status": self.status, "method": self.method,
               "elapsed": round(self.elapsed, 6)}
        if self.input_bits is not None:
            out["input_bits"] = self.input_bits
        if self.counterexample is not None:
            out["counterexample"] = dict(self.counterexample)
        if self.note:
            out["note"] = self.note
        if self.declined:
            out["declined"] = [{"tier": t, "reason": r}
                               for t, r in self.declined]
        return out


@dataclass
class OracleConfig:
    max_exhaustive_bits: int = 20
    samples: int = 100_000
    seed: int = 0
    external_cmd: str | None = None   # template with {left} {right}


@dataclass
class WaterfallReport:
    verdicts: list[tuple[dict, Verdict]] = field(default_factory=list)
    overall: str = "unproven"         # pass | fail | unproven
    assume_guarantee: str = "unproven"

    def to_json(self) -> dict:
        return {
            "overall": self.overall,
            "assume_guarantee": self.assume_guarantee,
            "obligations": [dict(ob, verdict=v.to_json())
                            for ob, v in self.verdicts],
        }


def _check_ports(d1: Design, d2: Design) -> None:
    if d1.inputs != d2.inputs:
        raise OracleError(
            f"input port mismatch: {d1.name} has "
            f"{[(n, str(a)) for n, a in d1.inputs]}, {d2.name} has "
            f"{[(n, str(a)) for n, a in d2.inputs]}")
    if d1.body.out != d2.body.out:
        raise OracleError(
            f"output annotation mismatch: {d1.body.out} vs {d2.body.out}")


def check_equiv(d1: Design, d2: Design,
                cfg: OracleConfig | None = None) -> Verdict:
    """Decide d1 ≅ d2 by the first of `_TIERS` that does not refuse; the
    verdict records the chain's time, the input width and each refusal."""
    _check_ports(d1, d2)
    return _decide([(d1, d2)], cfg or OracleConfig())[0]


def _decide(pairs: list[tuple[Design, Design]],
            cfg: OracleConfig) -> list[Verdict]:
    """Compile the designs of each input list, then run `_TIERS` in order,
    each on the pairs still undecided and the steps below them.  The time
    of each tier, the first with the compilation, is split evenly over the
    pairs it took: the verdicts' `elapsed` add up to the chain's time."""
    verdicts: list = [None] * len(pairs)
    declined: list[list] = [[] for _ in pairs]
    elapsed = [0.0] * len(pairs)
    pending = list(range(len(pairs)))
    t0 = time.perf_counter()
    groups = _programs(pairs)
    for name, tier in _TIERS:
        if not pending:
            break
        views = []
        for inputs, at, p in groups:
            ks = [k for k, i in enumerate(at) if verdicts[i] is None]
            if ks:
                views.append((inputs, [at[k] for k in ks], _slice(p, ks)))
        out = tier(pairs, views, cfg)
        t1 = time.perf_counter()
        share, t0 = (t1 - t0) / len(pending), t1
        for i in pending:
            v = out[i]
            elapsed[i] += share
            if isinstance(v, Refusal):
                declined[i].append((name, str(v)))
            else:
                verdicts[i] = v
        pending = [i for i in pending if verdicts[i] is None]
    for v, (d1, _), e, why in zip(verdicts, pairs, elapsed, declined):
        v.elapsed = e
        v.input_bits = sum(a.width for _, a in d1.inputs)
        v.declined = tuple(why)
    return verdicts


def _programs(pairs) -> list[tuple]:
    """Each group of pairs that share an input list: the list, the pairs'
    indices, and one program of all their designs, whose roots are the
    pairs' bodies in order: what a tier takes."""
    groups: dict[tuple, list[int]] = {}
    for i, (d1, _) in enumerate(pairs):
        groups.setdefault(d1.inputs, []).append(i)
    return [(inputs, at, program([d.body for i in at for d in pairs[i]]))
            for inputs, at in groups.items()]


def _slice(p: Program, ks: list[int]) -> Program:
    """The steps of `p` below the roots of its pairs `ks`."""
    return select(p, [r for k in ks for r in p.roots[2 * k:2 * k + 2]])


def _exhaustive(pairs, groups, cfg: OracleConfig) -> dict:
    """Identical bodies, by their one root step in the shared program, or
    every input enumerated low to high in port order, so a failure has the
    lexicographically first counterexample."""
    out: dict = {}
    for inputs, at, p in groups:
        bits = sum(a.width for _, a in inputs)
        fits = bits <= cfg.max_exhaustive_bits
        found = pair_mismatches(p, inputs) if fits else [None] * len(at)
        for k, (i, cex) in enumerate(zip(at, found)):
            if cex is not None:
                out[i] = Verdict("fail", "exhaustive", cex[0])
            elif fits or p.roots[2 * k] == p.roots[2 * k + 1]:
                out[i] = Verdict("pass", "exhaustive")
            else:
                out[i] = Refusal(f"{bits} input bits > "
                                 f"{cfg.max_exhaustive_bits}")
    return out


def _random(pairs, groups, cfg: OracleConfig) -> dict:
    """Seeded sampling: a clean sample is unproven, or left to a checker."""
    method = f"random({cfg.samples})"
    out: dict = {}
    for inputs, at, p in groups:
        found = pair_mismatches(p, inputs, cfg.samples, cfg.seed)
        for i, cex in zip(at, found):
            if cex is not None:
                out[i] = Verdict("fail", method, cex[0])
            elif cfg.external_cmd:
                out[i] = Refusal("no counterexample found by sampling")
            else:
                out[i] = Verdict("unproven", method,
                                 note="no counterexample found by sampling")
    return out


def _external(d1: Design, d2: Design, cfg: OracleConfig) -> Verdict:
    """cfg.external_cmd on the designs as .sv: exit 0 pass, 1 fail."""
    with tempfile.TemporaryDirectory(prefix="wordec-ec-") as tmp:
        left, right = (Path(tmp) / f"{d.name}.sv" for d in (d1, d2))
        left.write_text(emit_sv(d1))
        right.write_text(emit_sv(d2))
        cmd = [part.format(left=str(left), right=str(right))
               for part in shlex.split(cfg.external_cmd)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
        except (OSError, subprocess.TimeoutExpired) as e:
            return Verdict("unproven", "external",
                           note=f"external checker failed: {e}")
        if proc.returncode == 0:
            return Verdict("pass", "external")
        if proc.returncode == 1:
            return Verdict("fail", "external",
                           note=proc.stdout.strip() or None)
        return Verdict("unproven", "external",
                       note=f"external checker exit {proc.returncode}")


# ---------------------------------------------------------------------------
# Grid tier.  When no slot coercion and no result can wrap over the input
# domain, each side is, for every value of the inputs that feed a shift
# amount (the split inputs), an integer polynomial in the other inputs.
# Two polynomials of degree at most d_i in each x_i that agree on a grid of
# d_i + 1 points per x_i are identical (N. Alon, "Combinatorial
# Nullstellensatz", 1999, Lemma 2.1), so checking every split value times
# that grid, exhaustively, proves the pair.
# ---------------------------------------------------------------------------

# Opcodes whose exact result is a polynomial in their operands' values when
# nothing wraps, with a `<<` amount constant per split value.
_POLY_OPS = frozenset({"+", "-", "*", "neg", "zext", "sext", "<<"})


def _splits(p: Program) -> list[frozenset]:
    """Each step's split inputs, those below a shift amount in its subterm,
    in one pass up `p`; a pair's are the union of its two roots'."""
    reads: list[frozenset] = []
    out: list[frozenset] = []
    for s in p.steps:
        shift = s.node.kind in SHIFT_OPS
        reads.append(frozenset([s.node.name] if s.node.kind == "var" else ())
                     .union(*[reads[j] for j in s.args]))
        out.append(frozenset().union(*[
            reads[j] if shift and pos == 1 else out[j]
            for pos, j in enumerate(s.args)]))
    return out


def _degrees(p: Program, split: frozenset) -> list:
    """Each step's degree in each input that is not split, None where it is
    a constant for each value of the split inputs (it may then wrap), or,
    where by the steps' ranges it is no exact polynomial over the whole
    input domain, the first Refusal in operand order."""
    out: list = []
    for s in p.steps:
        try:
            out.append(_degree(p, s, [out[j] for j in s.args], split))
        except Refusal as e:
            out.append(e)
    return out


def _degree(p: Program, s: Step, degrees: list, split: frozenset
            ) -> dict[str, int] | None:
    t = s.node
    if t.kind == "var":
        return None if t.name in split else {t.name: 1}
    for d, same in zip(degrees, s.same):
        if isinstance(d, Refusal):
            raise d
        if d is not None and not same:
            raise Refusal("slot wraps")
    if all(d is None for d in degrees):
        return None
    if t.kind not in _POLY_OPS:
        raise Refusal(f"opcode {t.kind}")
    slot, (lo, hi) = t.operands[0][0], p.steps[s.args[0]].range
    if t.kind == "zext" and lo < 0:
        raise Refusal("zext of a negative value")
    if t.kind == "sext" and not (slot.signed or hi <= slot.hi >> 1):
        raise Refusal("sext of an unsigned value past the sign bit")
    degree = degrees[0]  # neg, zext, sext, and << by a constant per split
    if t.kind in ("+", "-", "*"):
        degree = {}
        for d in degrees:
            for x, k in (d or {}).items():
                degree[x] = (max(degree.get(x, 0), k) if t.kind != "*"
                             else degree.get(x, 0) + k)
    if not s.fits:
        raise Refusal("slot wraps")
    return degree


def _grid(pairs, groups, cfg: OracleConfig) -> dict:
    """The grid tier, method `grid(d=D,split=S)`: D the greatest degree of
    any input, S the bits of the split inputs.  A mismatch on a grid point
    fails with it, each input the grid leaves out (read by neither side)
    set to 0.  Refuses where the tier does not apply or does not fit in
    cfg.max_exhaustive_bits.  The pairs whose grids are the same space are
    searched in one pass."""
    out: dict = {}
    for inputs, at, p in groups:
        splits, degrees, spaces = _splits(p), {}, {}
        for k, i in enumerate(at):
            roots = p.roots[2 * k:2 * k + 2]
            split = splits[roots[0]] | splits[roots[1]]
            if split not in degrees:
                degrees[split] = _degrees(p, split)
            out[i] = _space(inputs, split, [degrees[split][r] for r in roots],
                            cfg)  # (space, method) until it is searched
            if not isinstance(out[i], Refusal):
                spaces.setdefault(out[i][0], []).append(k)
        for space, ks in spaces.items():
            for k, cex in zip(ks, pair_mismatches(_slice(p, ks), space)):
                method = out[at[k]][1]
                out[at[k]] = (Verdict("pass", method) if cex is None else
                              Verdict("fail", method, {x: cex[0].get(x, 0)
                                                       for x, _ in inputs}))
    return out


def _space(inputs, split: frozenset, roots: list, cfg: OracleConfig):
    """A pair's grid, by its split inputs and its roots' degrees, and its
    method; or the first Refusal."""
    width = dict(inputs)
    degree: dict[str, int] = {}
    for r in roots:
        if isinstance(r, Refusal):
            return r
        for x, k in (r or {}).items():
            degree[x] = max(degree.get(x, 0), k)
    split_bits = sum(width[x].width for x in split)
    if split_bits > cfg.max_exhaustive_bits:
        return Refusal("split too wide")
    # A grid of 2^b >= d + 1 points, the values 0 … 2^b - 1 of the input
    # itself: its annotation here is only the search space, and the designs
    # are evaluated as given.  An input too narrow to hold the grid is
    # enumerated whole, which is sound for any degree.  An input that is
    # neither split nor read has degree 0 and is left out.
    grid = {x: Annotation(k.bit_length()) for x, k in degree.items()
            if (1 << k.bit_length()) - 1 <= width[x].hi}
    space = tuple((x, grid.get(x, a)) for x, a in inputs
                  if x in split or x in degree)
    if sum(a.width for _, a in space) > cfg.max_exhaustive_bits:
        return Refusal("grid too wide")
    return space, (f"grid(d={max(degree.values(), default=0)},"
                   f"split={split_bits})")


def grid_method(d1: Design, d2: Design, cfg: OracleConfig) -> Verdict:
    """The grid tier on one pair; raises its Refusal."""
    v = _grid(None, _programs([(d1, d2)]), cfg)[0]
    if isinstance(v, Refusal):
        raise v
    return v


_TIERS = (("exhaustive", _exhaustive), ("grid", _grid), ("random", _random),
          ("external", lambda pairs, groups, cfg: {
              i: _external(*pairs[i], cfg) for _, at, _ in groups for i in at}))


def _fold(statuses: list[str]) -> str:
    """pass if every status is pass, else fail if any is, else unproven."""
    if all(s == "pass" for s in statuses):
        return "pass"
    return "fail" if "fail" in statuses else "unproven"


def _run(obs: list[dict], load, cfg: OracleConfig | None) -> WaterfallReport:
    """Check every non-final obligation in one run of the tier chain; the
    Assume-Guarantee verdict folds the verdicts before it.  `load(stem)`
    returns the design of that file stem or raises OracleError for a
    missing or broken artifact."""
    verdicts: dict[int, Verdict] = {}
    pairs, at = [], []
    for k, ob in enumerate(obs):
        if ob["kind"] != "assume-guarantee":
            try:
                d1, d2 = load(ob["left"]), load(ob["right"])
                _check_ports(d1, d2)
            except OracleError as e:
                verdicts[k] = Verdict("unproven", "none", note=str(e))
                continue
            pairs.append((d1, d2))
            at.append(k)
    verdicts.update(zip(at, _decide(pairs, cfg or OracleConfig())))
    rep = WaterfallReport()
    for k, ob in enumerate(obs):
        if ob["kind"] == "assume-guarantee":
            status = rep.assume_guarantee = _fold(
                [v.status for _, v in rep.verdicts])
            verdicts[k] = Verdict(status, "assume-guarantee",
                                  note=None if status == "pass"
                                  else "not all premises discharged")
        rep.verdicts.append((ob, verdicts[k]))
    rep.overall = _fold([v.status for _, v in rep.verdicts])
    return rep


def run_waterfall(w, cfg: OracleConfig | None = None) -> WaterfallReport:
    """Discharge every obligation of an in-memory waterfall."""
    return _run(w.obligations(), w.designs.__getitem__, cfg)


def run_waterfall_dir(outdir: str | Path,
                      cfg: OracleConfig | None = None) -> WaterfallReport:
    """Discharge an emitted waterfall directory (manifest.json + steps/)."""
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    cache: dict[str, Design] = {}

    def load(stem: str) -> Design:
        if stem not in cache:
            p = outdir / "steps" / f"{stem}.ir"
            if not p.exists():
                raise OracleError(f"missing artifact: {p}")
            cache[stem] = parse_sexpr(p.read_text())
        return cache[stem]

    return _run(manifest["obligations"], load, cfg)
