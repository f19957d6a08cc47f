"""Simulation-based equivalence oracle and waterfall runner.

check_equiv decides (or falsifies) equivalence of two designs with matching
ports: exhaustively when the joint input space is small enough, else
exhaustively on a small grid when both sides are polynomials that never
wrap, otherwise by seeded random sampling, optionally delegating to an
external checker command.
run_waterfall discharges every obligation of a waterfall — in memory or from
an emitted directory — and folds the verdicts into a single report.
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
from .ir import (SHIFT_OPS, Annotation, Term, first_mismatch, fit,
                 op_value_range)


class OracleError(Exception):
    pass


@dataclass
class Verdict:
    status: str                       # pass | fail | unproven
    method: str                       # exhaustive | grid(d=…,split=…) |
                                      # random(n) | external | ...
    elapsed: float
    counterexample: dict | None = None
    note: str | None = None
    input_bits: int | None = None     # of the checked designs' inputs

    def to_json(self) -> dict:
        out = {"status": self.status, "method": self.method,
               "elapsed": round(self.elapsed, 6)}
        if self.input_bits is not None:
            out["input_bits"] = self.input_bits
        if self.counterexample is not None:
            out["counterexample"] = dict(self.counterexample)
        if self.note:
            out["note"] = self.note
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


def _external(d1: Design, d2: Design, cmd_template: str,
              t0: float) -> Verdict:
    with tempfile.TemporaryDirectory(prefix="wordec-ec-") as tmp:
        left = Path(tmp) / f"{d1.name}.sv"
        right = Path(tmp) / f"{d2.name}.sv"
        left.write_text(emit_sv(d1))
        right.write_text(emit_sv(d2))
        cmd = [part.format(left=str(left), right=str(right))
               for part in shlex.split(cmd_template)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
        except (OSError, subprocess.TimeoutExpired) as e:
            return Verdict("unproven", "external", time.perf_counter() - t0,
                           note=f"external checker failed: {e}")
        if proc.returncode == 0:
            return Verdict("pass", "external", time.perf_counter() - t0)
        if proc.returncode == 1:
            return Verdict("fail", "external", time.perf_counter() - t0,
                           note=(proc.stdout.strip() or None))
        return Verdict("unproven", "external", time.perf_counter() - t0,
                       note=f"external checker exit {proc.returncode}")


def check_equiv(d1: Design, d2: Design,
                cfg: OracleConfig | None = None) -> Verdict:
    """Decide d1 ≅ d2.  Exhaustive when the joint input space fits in
    cfg.max_exhaustive_bits; else on a grid (`grid_method`) when that
    applies; otherwise sampled, then delegated to the external checker if
    one is configured, with the reason the grid did not apply in the note.
    Exhaustive failures report the lexicographically first counterexample
    (inputs enumerated low-to-high, in port order).  The verdict records
    the total input width."""
    cfg = cfg or OracleConfig()
    _check_ports(d1, d2)
    total_bits = sum(a.width for _, a in d1.inputs)
    v = _decide(d1, d2, cfg, total_bits)
    v.input_bits = total_bits
    return v


def _decide(d1: Design, d2: Design, cfg: OracleConfig,
            total_bits: int) -> Verdict:
    t0 = time.perf_counter()
    if d1.body == d2.body:
        return Verdict("pass", "exhaustive", time.perf_counter() - t0)
    if total_bits <= cfg.max_exhaustive_bits:
        cex = first_mismatch(d1.body, d2.body, d1.inputs)
        if cex is not None:
            return Verdict("fail", "exhaustive", time.perf_counter() - t0,
                           cex[0])
        return Verdict("pass", "exhaustive", time.perf_counter() - t0)
    try:
        method, cex = grid_method(d1, d2, cfg.max_exhaustive_bits)
        return Verdict("pass" if cex is None else "fail", method,
                       time.perf_counter() - t0, cex)
    except OffGrid as e:
        why = f"grid: {e}"
    method = f"random({cfg.samples})"
    cex = first_mismatch(d1.body, d2.body, d1.inputs, cfg.samples, cfg.seed)
    if cex is not None:
        v = Verdict("fail", method, time.perf_counter() - t0, cex[0])
    elif cfg.external_cmd:
        v = _external(d1, d2, cfg.external_cmd, t0)
    else:
        v = Verdict("unproven", method, time.perf_counter() - t0,
                    note="no counterexample found by sampling")
    v.note = why if v.note is None else f"{why}; {v.note}"
    return v


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


class OffGrid(Exception):
    """Why the grid tier does not decide a pair."""


def _split_inputs(t: Term, out: set[str], amount: bool = False) -> set[str]:
    """Add the inputs that feed a shift amount in `t` to `out`; `amount`
    says that `t` lies below one."""
    if t.kind == "var" and amount:
        out.add(t.name)
    elif t.kind in SHIFT_OPS:
        (_, value), (_, amt) = t.operands
        _split_inputs(value, out, amount)
        _split_inputs(amt, out, True)
    else:
        for _, child in t.operands:
            _split_inputs(child, out, amount)
    return out


def _fit(lo: int, hi: int, a: Annotation, degree: dict | None
         ) -> tuple[int, int]:
    """`ir.fit` of [lo, hi] under `a`, where only a constant per split
    value (`degree` None) may wrap."""
    r = fit(lo, hi, a)
    if degree is not None and r != (lo, hi):
        raise OffGrid("slot wraps")
    return r


def _polynomial(t: Term, inputs: dict[str, Annotation], split: set[str]
                ) -> tuple[int, int, dict[str, int] | None]:
    """Bottom-up range of `t` over the whole input domain, and its degree
    in each input that is not split, or None when `t` is a constant for
    each value of the split inputs (any opcode may appear in such a
    subterm, and it may wrap).  Raises OffGrid where `t` is no polynomial
    that computes its value exactly."""
    if t.kind == "var":
        a = inputs[t.name]
        degree = None if t.name in split else {t.name: 1}
        return (*_fit(a.lo, a.hi, t.out, degree), degree)
    if t.kind == "const":
        return t.value, t.value, None
    slots = tuple(slot for slot, _ in t.operands)
    ranges, degrees = [], []
    for slot, child in t.operands:
        lo, hi, degree = _polynomial(child, inputs, split)
        ranges.append(_fit(lo, hi, slot, degree))
        degrees.append(degree)
    if all(d is None for d in degrees):
        degree = None
    elif t.kind not in _POLY_OPS:
        raise OffGrid(f"opcode {t.kind}")
    elif t.kind == "zext" and ranges[0][0] < 0:
        raise OffGrid("zext of a negative value")
    elif t.kind == "sext" and not (slots[0].signed
                                   or ranges[0][1] <= slots[0].hi >> 1):
        raise OffGrid("sext of an unsigned value past the sign bit")
    elif t.kind in ("+", "-", "*"):
        degree = {}
        for d in degrees:
            for x, k in (d or {}).items():
                degree[x] = (max(degree.get(x, 0), k) if t.kind != "*"
                             else degree.get(x, 0) + k)
    else:  # neg, zext, sext, and << by a constant per split value
        degree = degrees[0]
    lo, hi = op_value_range(t.kind, slots, ranges, t.indices, t.out.width)
    return (*_fit(lo, hi, t.out, degree), degree)


def grid_method(d1: Design, d2: Design, max_bits: int
                ) -> tuple[str, dict[str, int] | None]:
    """Decide d1 ≅ d2 on a grid.  Returns the method, `grid(d=D,split=S)`
    (D the greatest degree of any input, S the bits of the split inputs),
    and the first grid point on which the designs differ, or None when they
    are proven equal.  Every grid point is an input of the designs; an input
    the grid leaves out is read by neither side and is set to 0.  Raises
    OffGrid with the reason when the tier does not apply or does not fit in
    `max_bits`."""
    inputs = dict(d1.inputs)
    split = _split_inputs(d2.body, _split_inputs(d1.body, set()))
    degree: dict[str, int] = {}
    for d in (d1, d2):
        for x, k in (_polynomial(d.body, inputs, split)[2] or {}).items():
            degree[x] = max(degree.get(x, 0), k)
    split_bits = sum(inputs[x].width for x in split)
    if split_bits > max_bits:
        raise OffGrid("split too wide")
    # A grid of 2^b >= d + 1 points, the values 0 … 2^b - 1 of the input
    # itself: its annotation here is only the search space, and the designs
    # are evaluated as given.  An input too narrow to hold the grid is
    # enumerated whole, which is sound for any degree.  An input that is
    # neither split nor read has degree 0 and is left out.
    grid = {x: Annotation(k.bit_length()) for x, k in degree.items()
            if (1 << k.bit_length()) - 1 <= inputs[x].hi}
    space = [(x, grid.get(x, a)) for x, a in d1.inputs
             if x in split or x in degree]
    if sum(a.width for _, a in space) > max_bits:
        raise OffGrid("grid too wide")
    method = f"grid(d={max(degree.values(), default=0)},split={split_bits})"
    cex = first_mismatch(d1.body, d2.body, space)
    if cex is None:
        return method, None
    return method, {x: cex[0].get(x, 0) for x, _ in d1.inputs}


def _fold(statuses: list[str]) -> str:
    """pass if every status is pass, else fail if any is, else unproven."""
    if all(s == "pass" for s in statuses):
        return "pass"
    return "fail" if "fail" in statuses else "unproven"


def _run(obs: list[dict], load, cfg: OracleConfig | None) -> WaterfallReport:
    """Check each non-final obligation; the Assume-Guarantee verdict folds
    the verdicts before it.  `load(stem)` returns the design of that file
    stem or raises OracleError for a missing or broken artifact."""
    cfg = cfg or OracleConfig()
    rep = WaterfallReport()
    for ob in obs:
        if ob["kind"] == "assume-guarantee":
            status = rep.assume_guarantee = _fold(
                [v.status for _, v in rep.verdicts])
            v = Verdict(status, "assume-guarantee", 0.0,
                        note=None if status == "pass"
                        else "not all premises discharged")
        else:
            try:
                v = check_equiv(load(ob["left"]), load(ob["right"]), cfg)
            except OracleError as e:
                v = Verdict("unproven", "none", 0.0, note=str(e))
        rep.verdicts.append((ob, v))
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
