"""Explanation paths and the verification waterfall.

From the e-graph's justification forest, explain() reconstructs a sequence of
single-rewrite steps between any two terms of a merged class.  Traversal
threads a concrete "current term": pattern-variable positions bind to
whatever subterm is currently there (any class member is a valid instance),
so congruence edges contribute no steps, and only structured pattern
positions need recursive alignment.

build_waterfall() assembles the chains S → … → S* and I* → … → I, the center
obligation when S* ≠ I*, and the final Assume-Guarantee record, emitting
every intermediate as SystemVerilog + IR text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .egraph import CONGRUENCE, EGraph, RuleJust
from .extract import pick_nodes
from .frontend import Design, emit_sexpr, emit_sv
from .ir import Term, exact_width

STEP_LIMIT = 100_000


class ProofError(Exception):
    pass


@dataclass
class RewriteStep:
    rule_id: str
    direction: str                  # "fwd" | "rev"
    position: tuple[int, ...]
    before: Term                    # whole design term
    after: Term
    checker_hint: str = "simulation"
    # instantiation details, kept for width normalization of this step
    to_skel: object = None          # Skeleton | None
    binding: dict | None = None

    def reversed(self) -> "RewriteStep":
        d = "rev" if self.direction == "fwd" else "fwd"
        return RewriteStep(self.rule_id, d, self.position, self.after,
                           self.before, self.checker_hint, None, None)


# ---------------------------------------------------------------------------
# Explanation extraction
# ---------------------------------------------------------------------------

class _Explainer:
    def __init__(self, g: EGraph, hints: dict[str, str]):
        self.g = g
        self.hints = hints
        self.steps: list[RewriteStep] = []
        self.whole: Term | None = None

    # -- term surgery -------------------------------------------------------

    def record(self, pos: tuple[int, ...], after_sub: Term, rule_id: str,
               direction: str, to_skel, binding) -> None:
        if len(self.steps) > STEP_LIMIT:
            raise ProofError("explanation exceeded the step limit")
        before = self.whole
        after = before.replace(pos, after_sub)
        hint = self.hints.get(rule_id, "simulation")
        self.steps.append(RewriteStep(rule_id, direction, pos, before, after,
                                      hint, to_skel, dict(binding)))
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

    def walk(self, pos: tuple[int, ...], cur: Term, target: int) -> Term:
        """Transform the subterm at pos so that its head is congruent to
        `target`; children end up as members of target's child classes."""
        g = self.g
        u = g.lookup(cur)
        if g.find(u) != g.find(target):
            raise ProofError("walk between nodes of different classes")
        if g.congruent(u, target):
            return cur  # nothing to rewrite
        for x, y, just in g.forest_path(u, target):
            if just == CONGRUENCE:
                if not g.congruent(x, y):
                    raise ProofError("congruence edge between unequal shapes")
                continue  # identical modulo child classes: nothing to rewrite
            assert isinstance(just, RuleJust)
            fwd = x == just.lhs.node
            skel_from = just.lhs if fwd else just.rhs
            skel_to = just.rhs if fwd else just.lhs
            binding: dict[int, Term] = {}
            cur = self.align(pos, cur, skel_from, binding)
            after_sub = self.realize(skel_to, binding)
            self.record(pos, after_sub, just.rule_id,
                        "fwd" if fwd else "rev", skel_to, binding)
            cur = after_sub
        return cur

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


def explain(g: EGraph, a: Term, b: Term,
            hints: dict[str, str] | None = None) -> list[RewriteStep]:
    """Single-rewrite steps transforming term a into term b.  Both terms must
    be present in g and their classes merged."""
    return _Explainer(g, hints or {}).explain(a, b)


def rule_hints(rules) -> dict[str, str]:
    hints = {r.id: r.checker_hint for r in rules}
    hints.setdefault("width-reduce", "simulation")
    hints.setdefault("zext-intro", "trivial")
    return hints


# ---------------------------------------------------------------------------
# Width normalization hops
# ---------------------------------------------------------------------------

WIDTH_RELABEL = "width-relabel"


def _realize_wide(g: EGraph, skel, binding: dict) -> Term:
    """The skeleton's template operators rebuilt at their exact widths;
    bound (variable-position) subterms are left untouched."""
    if skel.subs is None:
        return binding[g.find(skel.node)]
    n = g.nodes[skel.node]
    if not skel.subs:
        return n.term((), n.out)
    ops = []
    for slot, ch, sub in zip(n.slots, n.children, skel.subs):
        if sub is None:
            ops.append((slot, binding[g.find(ch)]))
        else:
            t = _realize_wide(g, sub, binding)
            ops.append((t.out, t))
    return n.term(ops, exact_width(n.op, tuple(s for s, _ in ops), n.indices))


def widen_step(g: EGraph, step: RewriteStep) -> list[RewriteStep] | None:
    """Split a width-sensitive step into the same rewrite at standardized
    (exact) widths followed by a trivial width-relabel hop.  Returns None
    when the step carries no instantiation record."""
    if step.to_skel is None or step.binding is None:
        return None
    wide = _realize_wide(g, step.to_skel, dict(step.binding))
    target = step.after.at(step.position) if step.position else step.after
    out = target.out
    if wide.out == out:
        return None  # widths already standardized; nothing to insert
    wrap = "sext" if wide.out.signed else "zext"
    wide_sub = Term(wrap, out, operands=((wide.out, wide),))
    mid = step.before.replace(step.position, wide_sub)
    s1 = RewriteStep(step.rule_id, step.direction, step.position,
                     step.before, mid, step.checker_hint)
    s2 = RewriteStep(WIDTH_RELABEL, "fwd", step.position, mid, step.after,
                     "trivial")
    return [s1, s2]


# ---------------------------------------------------------------------------
# Waterfall assembly
# ---------------------------------------------------------------------------

@dataclass
class Obligation:
    left: int                  # indices into Waterfall.designs
    right: int
    rule: str
    checker_hint: str
    kind: str                  # step | center | assume-guarantee


@dataclass
class Waterfall:
    spec: Design
    impl: Design
    spec_chain: list[Term]     # S … S*
    impl_chain: list[Term]     # I* … I
    spec_steps: list[RewriteStep]
    impl_steps: list[RewriteStep]  # aligned with consecutive impl_chain pairs
    has_center: bool

    def designs(self) -> list[tuple[str, Design]]:
        """Ordered (file stem, design) pairs for every intermediate."""
        out: list[tuple[str, Design]] = []
        idx = 0

        def add(chain: str, label: str, body: Term):
            nonlocal idx
            stem = f"{idx:03d}_{chain}_{label}".replace("-", "_")
            name = f"d{stem}"
            out.append((stem, Design(name, self.spec.inputs,
                                     (self.spec.output[0], body.out), body)))
            idx += 1

        add("spec", "source", self.spec_chain[0])
        for t, s in zip(self.spec_chain[1:], self.spec_steps):
            add("spec", s.rule_id, t)
        add("impl", "extracted", self.impl_chain[0])
        for t, s in zip(self.impl_chain[1:], self.impl_steps):
            add("impl", s.rule_id, t)
        return out

    def obligations(self) -> list[Obligation]:
        ns = len(self.spec_chain)
        obs: list[Obligation] = []
        for i, s in enumerate(self.spec_steps):
            obs.append(Obligation(i, i + 1, s.rule_id, s.checker_hint, "step"))
        for i, s in enumerate(self.impl_steps):
            obs.append(Obligation(ns + i, ns + i + 1, s.rule_id,
                                  s.checker_hint, "step"))
        if self.has_center:
            obs.append(Obligation(ns - 1, ns, "center", "external-strong",
                                  "center"))
        obs.append(Obligation(0, ns + len(self.impl_chain) - 1,
                              "assume-guarantee", "trivial",
                              "assume-guarantee"))
        return obs

    def obligation_records(self, stems: list[str]) -> list[dict]:
        """The obligations as manifest.json records, which name their two
        designs by file stem (`stems` in the order of designs())."""
        return [{"left": stems[ob.left], "right": stems[ob.right],
                 "rule": ob.rule, "checker_hint": ob.checker_hint,
                 "kind": ob.kind} for ob in self.obligations()]


def build_waterfall(g: EGraph, spec: Design, impl: Design, extraction,
                    rules=(), normalize_widths: bool = True) -> Waterfall:
    hints = rule_hints(rules)
    ex = _Explainer(g, hints)
    spec_steps = ex.explain(spec.body, extraction.s_star)
    ex2 = _Explainer(g, hints)
    impl_fwd = ex2.explain(impl.body, extraction.i_star)  # I -> I*

    spec_steps = _cancel_inverses(spec_steps)
    impl_fwd = _cancel_inverses(impl_fwd)
    if normalize_widths:
        spec_steps = _normalize(g, spec_steps)
        impl_fwd = _normalize(g, impl_fwd)

    spec_chain = [spec.body] + [s.after for s in spec_steps]
    # impl chain runs I* … I: reverse the forward explanation
    impl_steps = [s.reversed() for s in reversed(impl_fwd)]
    impl_chain = [extraction.i_star] + [s.after for s in impl_steps]
    has_center = extraction.s_star != extraction.i_star
    return Waterfall(spec, impl, spec_chain, impl_chain,
                     spec_steps, impl_steps, has_center)


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


def _normalize(g: EGraph, steps: list[RewriteStep]) -> list[RewriteStep]:
    out: list[RewriteStep] = []
    for s in steps:
        if s.checker_hint == "external-strong":
            split = widen_step(g, s)
            if split is not None:
                out.extend(split)
                continue
        out.append(s)
    return out


def check_adjacency(w: Waterfall) -> None:
    """Structural invariant: consecutive designs differ at exactly the step's
    recorded position, and chain endpoints match."""
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

    for chain, steps in ((w.spec_chain, w.spec_steps),
                         (w.impl_chain, w.impl_steps)):
        if len(chain) != len(steps) + 1:
            raise ProofError("chain/step length mismatch")
        for a, b, s in zip(chain, chain[1:], steps):
            if s.before != a or s.after != b:
                raise ProofError("step endpoints do not match the chain")
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
    designs = w.designs()
    for stem, d in designs:
        (steps_dir / f"{stem}.sv").write_text(emit_sv(d))
        (steps_dir / f"{stem}.ir").write_text(emit_sexpr(d))
    stems = [stem for stem, _ in designs]
    manifest = {
        "spec": w.spec.name,
        "impl": w.impl.name,
        "center": w.has_center,
        "designs": stems,
        "obligations": w.obligation_records(stems),
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
