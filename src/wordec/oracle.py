"""Simulation-based equivalence oracle and waterfall runner.

check_equiv decides (or falsifies) equivalence of two designs with matching
ports: exhaustively when the joint input space is small enough, otherwise by
seeded random sampling, optionally delegating to an external checker command.
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
from .ir import first_mismatch


# Samples drawn for a step whose rule is hinted trivial.
TRIVIAL_SAMPLES = 1024


class OracleError(Exception):
    pass


@dataclass
class Verdict:
    status: str                       # pass | fail | unproven
    method: str                       # exhaustive | random(n) | external | ...
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
    if d1.output[1] != d2.output[1]:
        raise OracleError(
            f"output annotation mismatch: {d1.output[1]} vs {d2.output[1]}")


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
            return Verdict("unproven", "external", time.time() - t0,
                           note=f"external checker failed: {e}")
        if proc.returncode == 0:
            return Verdict("pass", "external", time.time() - t0)
        if proc.returncode == 1:
            return Verdict("fail", "external", time.time() - t0,
                           note=(proc.stdout.strip() or None))
        return Verdict("unproven", "external", time.time() - t0,
                       note=f"external checker exit {proc.returncode}")


def check_equiv(d1: Design, d2: Design,
                cfg: OracleConfig | None = None, *,
                hint: str | None = None) -> Verdict:
    """Decide d1 ≅ d2.  Exhaustive when the joint input space fits in
    cfg.max_exhaustive_bits; otherwise sampled, then delegated to the
    external checker if one is configured.  Exhaustive failures report the
    lexicographically first counterexample (inputs enumerated low-to-high,
    in port order).  The verdict records the total input width."""
    cfg = cfg or OracleConfig()
    _check_ports(d1, d2)
    total_bits = sum(a.width for _, a in d1.inputs)
    v = _decide(d1, d2, cfg, hint, total_bits)
    v.input_bits = total_bits
    return v


def _decide(d1: Design, d2: Design, cfg: OracleConfig, hint: str | None,
            total_bits: int) -> Verdict:
    t0 = time.time()
    if d1.body == d2.body:
        return Verdict("pass", "exhaustive", time.time() - t0)
    if total_bits <= cfg.max_exhaustive_bits:
        samples, method = None, "exhaustive"
    else:
        samples = TRIVIAL_SAMPLES if hint == "trivial" else cfg.samples
        method = f"random({samples})"
    cex = first_mismatch(d1.body, d2.body, d1.inputs, samples, cfg.seed)
    if cex is not None:
        return Verdict("fail", method, time.time() - t0, cex[0])
    if samples is None:
        return Verdict("pass", method, time.time() - t0)
    if cfg.external_cmd:
        return _external(d1, d2, cfg.external_cmd, t0)
    return Verdict("unproven", method, time.time() - t0,
                   note="no counterexample found by sampling")


def _run(obs: list[dict], lookup, cfg: OracleConfig) -> WaterfallReport:
    """Check each non-final obligation, then derive the Assume-Guarantee
    verdict from its premises.  `lookup(ob)` returns (left, right) designs
    or raises OracleError for missing/broken artifacts."""
    rep = WaterfallReport()
    premises_pass = True
    any_fail = False
    for ob in obs:
        if ob["kind"] == "assume-guarantee":
            status = "pass" if premises_pass else (
                "fail" if any_fail else "unproven")
            v = Verdict(status, "assume-guarantee", 0.0,
                        note=None if premises_pass
                        else "not all premises discharged")
            rep.verdicts.append((ob, v))
            rep.assume_guarantee = status
            continue
        try:
            left, right = lookup(ob)
            v = check_equiv(left, right, cfg, hint=ob["checker_hint"])
        except OracleError as e:
            v = Verdict("unproven", "none", 0.0, note=str(e))
        rep.verdicts.append((ob, v))
        if v.status != "pass":
            premises_pass = False
        if v.status == "fail":
            any_fail = True
    statuses = [v.status for _, v in rep.verdicts]
    rep.overall = ("pass" if all(s == "pass" for s in statuses)
                   else "fail" if "fail" in statuses else "unproven")
    return rep


def run_waterfall(w, cfg: OracleConfig | None = None) -> WaterfallReport:
    """Discharge every obligation of an in-memory waterfall."""
    cfg = cfg or OracleConfig()
    designs = dict(w.designs())
    obs = w.obligation_records(list(designs))
    return _run(obs, lambda ob: (designs[ob["left"]], designs[ob["right"]]),
                cfg)


def run_waterfall_dir(outdir: str | Path,
                      cfg: OracleConfig | None = None) -> WaterfallReport:
    """Discharge an emitted waterfall directory (manifest.json + steps/)."""
    cfg = cfg or OracleConfig()
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

    def lookup(ob):
        return load(ob["left"]), load(ob["right"])

    return _run(list(manifest["obligations"]), lookup, cfg)
