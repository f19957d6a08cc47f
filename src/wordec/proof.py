"""Explanation paths and the verification waterfall.

From the e-graph's justification forest, explain() reconstructs a sequence of
single-rewrite steps between any two terms of a merged class.  Traversal
threads a concrete "current term": pattern-variable positions bind to
whatever subterm is currently there (any class member is a valid instance),
so congruence edges contribute no steps, and only structured pattern
positions need recursive alignment.

build_waterfall() assembles the chains S → … → S* and I* → … → I as the
designs and obligation records that write_waterfall() emits (every
intermediate as SystemVerilog + IR text) and the oracle discharges: one
record per step, the center obligation when S* ≠ I*, and the final
Assume-Guarantee record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .egraph import CONGRUENCE, EGraph, RuleJust
from .extract import pick_nodes
from .frontend import Design, emit_sexpr, emit_sv
from .ir import Term

STEP_LIMIT = 100_000


class ProofError(Exception):
    pass


@dataclass
class RewriteStep:
    rule_id: str
    position: tuple[int, ...]
    before: Term                    # whole design term
    after: Term

    def reversed(self) -> "RewriteStep":
        return RewriteStep(self.rule_id, self.position, self.after, self.before)


# ---------------------------------------------------------------------------
# Explanation extraction
# ---------------------------------------------------------------------------

class _Explainer:
    def __init__(self, g: EGraph):
        self.g = g
        self.steps: list[RewriteStep] = []
        self.whole: Term | None = None

    # -- term surgery -------------------------------------------------------

    def record(self, pos: tuple[int, ...], after_sub: Term,
               rule_id: str) -> None:
        if len(self.steps) > STEP_LIMIT:
            raise ProofError("explanation exceeded the step limit")
        before = self.whole
        after = before.replace(pos, after_sub)
        self.steps.append(RewriteStep(rule_id, pos, before, after))
        self.whole = after

    # -- realization --------------------------------------------------------

    def bound(self, c: int, binding: dict) -> Term:
        """The term bound to class c; an unbound class is bound to its
        smallest term."""
        c = self.g.find(c)
        if c not in binding:
            if not hasattr(self, "_pick"):
                self._pick, self._memo = pick_nodes(self.g), {}
            binding[c] = self.g.term(self._pick[c], self._pick, self._memo)
        return binding[c]

    def realize(self, skel, binding: dict) -> Term:
        if skel.subs is None:
            return self.bound(self.g.find(skel.node), binding)
        n = self.g.nodes[skel.node]
        return n.term([
            (slot, self.bound(ch, binding) if sub is None
             else self.realize(sub, binding))
            for slot, ch, sub in zip(n.slots, n.children, skel.subs)], n.out)

    # -- traversal ----------------------------------------------------------

    def walk(self, pos: tuple[int, ...], cur: Term, target: int,
             started: tuple[Term, ...] = ()) -> Term:
        """Transform the subterm at pos so that its head is congruent to
        `target`; children end up as members of target's child classes.

        A path whose last edge has a bare pattern variable on its target
        side (`zext-intro`'s lhs, or `shift-cancel` walked forward) ends on
        the term bound to that variable, which another node of the class
        may head; the walk then goes on from that node.  `started` holds
        the terms it already started from."""
        g = self.g
        u = g.lookup(cur)
        if g.find(u) != g.find(target):
            raise ProofError("walk between nodes of different classes")
        if g.congruent(u, target):
            return cur  # nothing to rewrite
        if cur in started:
            raise ProofError("walk does not reach its target node")
        started += (cur,)  # a tuple: `in` compares, with no hash of cur
        for x, y, just in g.forest_path(u, target):
            if just == CONGRUENCE:
                if not g.congruent(x, y):
                    raise ProofError("congruence edge between unequal shapes")
                continue  # identical modulo child classes: nothing to rewrite
            assert isinstance(just, RuleJust)
            lhs, rhs = just.lhs, just.rhs
            skel_from, skel_to = (lhs, rhs) if x == lhs.node else (rhs, lhs)
            binding: dict[int, Term] = {}
            cur = self.align(pos, cur, skel_from, binding)
            after_sub = self.realize(skel_to, binding)
            self.record(pos, after_sub, just.rule_id)
            cur = after_sub
        return self.walk(pos, cur, target, started)

    def align(self, pos: tuple[int, ...], cur: Term, skel,
              binding: dict) -> Term:
        """Rewrite the subterm at pos into an instance of the skeleton,
        binding pattern-variable classes to the current subterms."""
        g = self.g
        if skel.subs is None:
            c = g.find(skel.node)
            if c in binding:
                cur = self.equalize(pos, cur, binding[c])
            else:
                binding[c] = cur
            return cur
        cur = self.walk(pos, cur, skel.node)
        n = g.nodes[skel.node]
        for i, sub in enumerate(skel.subs):
            child = cur.operands[i][1]
            if sub is None:
                c = g.find(n.children[i])
                if c in binding:
                    self.equalize(pos + (i,), child, binding[c])
                else:
                    binding[c] = child
            else:
                self.align(pos + (i,), child, sub, binding)
            cur = self.whole.at(pos)
        return cur

    def equalize(self, pos: tuple[int, ...], cur: Term, target: Term) -> Term:
        """Transform the subterm at pos into exactly `target` (same class)."""
        if cur == target:
            return cur
        cur = self.walk(pos, cur, self.g.lookup(target))
        for i, (_, tchild) in enumerate(target.operands):
            child = cur.operands[i][1]
            if child != tchild:
                self.equalize(pos + (i,), child, tchild)
                cur = self.whole.at(pos)
        if cur != target:
            raise ProofError("alignment failed to reach the target term")
        return cur

    # NOTE: `cur` always equals self.whole.at(pos) on entry and exit of
    # walk/align/equalize; every recorded step updates self.whole.

    def explain(self, a: Term, b: Term) -> list[RewriteStep]:
        self.steps = []
        self.whole = a
        na, nb = self.g.lookup(a), self.g.lookup(b)
        if na is None or nb is None:
            raise ProofError("term not present in the e-graph")
        if self.g.find(na) != self.g.find(nb):
            raise ProofError("terms are not in the same class")
        self.equalize((), a, b)
        if self.whole != b:
            raise ProofError("explanation did not terminate at the target")
        return self.steps


def explain(g: EGraph, a: Term, b: Term) -> list[RewriteStep]:
    """Single-rewrite steps transforming term a into term b.  Both terms must
    be present in g and their classes merged."""
    return _Explainer(g).explain(a, b)


# ---------------------------------------------------------------------------
# Waterfall assembly
# ---------------------------------------------------------------------------

@dataclass
class Waterfall:
    """The waterfall in the form in which it is written and discharged:
    the designs S … S* and I* … I by file stem, in order, and the
    obligations between them as manifest.json lists them."""
    spec: Design
    impl: Design
    spec_steps: list[RewriteStep]      # S … S*
    impl_steps: list[RewriteStep]      # I* … I
    designs: dict[str, Design]
    records: list[dict]
    # per chain ("spec", "impl"): the steps explained, and the adjacent
    # inverse pairs dropped from them
    chains: dict[str, dict[str, int]]

    def obligations(self) -> list[dict]:
        return self.records

    @property
    def has_center(self) -> bool:
        return any(ob["kind"] == "center" for ob in self.records)


def build_waterfall(g: EGraph, spec: Design, impl: Design, extraction,
                    rules=()) -> Waterfall:
    explained = {"spec": explain(g, spec.body, extraction.s_star),
                 "impl": explain(g, impl.body, extraction.i_star)}  # I -> I*
    kept = {name: _cancel_inverses(steps)
            for name, steps in explained.items()}
    chains = {name: {"explained_steps": len(steps),
                     "inverse_pairs_dropped":
                         (len(steps) - len(kept[name])) // 2}
              for name, steps in explained.items()}
    # the impl chain runs I* … I: reverse the forward explanation
    w = Waterfall(spec, impl, kept["spec"],
                  [s.reversed() for s in reversed(kept["impl"])], {}, [],
                  chains)
    hints = {r.id: r.checker_hint for r in rules}

    def design(chain: str, label: str, body: Term) -> str:
        stem = f"{len(w.designs):03d}_{chain}_{label}".replace("-", "_")
        w.designs[stem] = Design(f"d{stem}", spec.inputs, spec.output, body)
        return stem

    def record(left: str, right: str, rule: str, hint: str, kind: str):
        w.records.append({"left": left, "right": right, "rule": rule,
                          "checker_hint": hint, "kind": kind})

    def chain(name: str, label: str, body: Term, steps) -> list[str]:
        stems = [design(name, label, body)]
        for s in steps:
            stems.append(design(name, s.rule_id, s.after))
            # a step of no given rule (a width-reduce narrowing when no
            # rule stands for it) is hinted "simulation"
            record(stems[-2], stems[-1], s.rule_id,
                   hints.get(s.rule_id, "simulation"), "step")
        return stems

    spec_stems = chain("spec", "source", spec.body, w.spec_steps)
    impl_stems = chain("impl", "extracted", extraction.i_star, w.impl_steps)
    if extraction.s_star != extraction.i_star:
        record(spec_stems[-1], impl_stems[0], "center", "external-strong",
               "center")
    record(spec_stems[0], impl_stems[-1], "assume-guarantee", "trivial",
           "assume-guarantee")
    return w


def _cancel_inverses(steps: list[RewriteStep]) -> list[RewriteStep]:
    """Drop adjacent step pairs that undo each other (the explainer can emit
    a detour through a class member and immediately back out of it)."""
    out: list[RewriteStep] = []
    for s in steps:
        if out and out[-1].before == s.after and out[-1].after == s.before:
            out.pop()
        else:
            out.append(s)
    return out


def check_adjacency(w: Waterfall) -> None:
    """Structural invariant: each step starts where the previous one ended,
    and its two designs differ at exactly the step's recorded position."""
    def diff_positions(a: Term, b: Term, pos=()) -> list[tuple]:
        if a == b:
            return []
        if (a.kind != b.kind or a.out != b.out or a.name != b.name
                or a.value != b.value or a.indices != b.indices
                or len(a.operands) != len(b.operands)
                or any(sa != sb for (sa, _), (sb, _) in
                       zip(a.operands, b.operands))):
            return [pos]
        diffs = []
        for i, ((_, ca), (_, cb)) in enumerate(zip(a.operands, b.operands)):
            diffs.extend(diff_positions(ca, cb, pos + (i,)))
        return diffs

    for steps in (w.spec_steps, w.impl_steps):
        for prev, s in zip([None] + steps, steps):
            if prev is not None and s.before != prev.after:
                raise ProofError(
                    f"step {s.rule_id} does not start where the previous "
                    "one ended")
            a, b = s.before, s.after
            diffs = diff_positions(a, b)
            if not diffs:
                raise ProofError("step with identical designs")
            for d in diffs:
                if d[:len(s.position)] != s.position:
                    raise ProofError(
                        f"step {s.rule_id} differs outside its position: "
                        f"{d} vs {s.position}")
            if a.at(s.position).out != b.at(s.position).out:
                raise ProofError("rewrite changed the subterm annotation")


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def write_waterfall(w: Waterfall, outdir: str | Path) -> dict:
    """Emit steps/NNN_<chain>_<rule>.sv + .ir and manifest.json; returns the
    manifest dict."""
    outdir = Path(outdir)
    steps_dir = outdir / "steps"
    steps_dir.mkdir(parents=True, exist_ok=True)
    for stem, d in w.designs.items():
        (steps_dir / f"{stem}.sv").write_text(emit_sv(d))
        (steps_dir / f"{stem}.ir").write_text(emit_sexpr(d))
    manifest = {
        "spec": w.spec.name,
        "impl": w.impl.name,
        "center": w.has_center,
        "designs": list(w.designs),
        "obligations": w.obligations(),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
