"""The exhaustive sufficiency audit of pattern rules, batched.

`rewrites.validate_rule` enumerates a rule's parameter grid (every width up
to maxw, shift-amount widths up to min(maxw, 3), both signages, then every
value of each constant) and, wherever the condition holds, compares both
sides over all operand values.  This module does that work in batches:

- the condition and every width, signage and constant expression is
  tabulated once per rule, over the product of the domains of the
  parameters it reads, and read by flat index.  Each table runs one
  function compiled from the expression by `rewrites._expr_code`, the code
  generator of the rule programs, which computes what `eval_expr` does;
  `eval_expr` itself is not called;
- the grid is read in blocks of at most AUDIT_VECTORS vectors;
- the operand grids of a block's surviving instances run through
  `ir.first_mismatches`, one row per instance in 2-D batches of at most
  `ir.ROWS` entries, the one batch size of the evaluator, grouped by the
  bits of their operand space; each annotation is read once per batch.

The violations and the blocked instances are those of checking one
instance and one operand assignment at a time, in order.  Every expression
was typed when the rule was made, so a table entry is a value or blocked.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from . import rewrites
from .ir import (SIGNED, UNSIGNED, Annotation, RowAnnotation, RowTerm,
                 first_mismatches, rows_to_inputs)
from .rewrites import (BlockedMatch, PatConst, PatVar, Pattern, Rule,
                       RuleError, _is_signed, _width, expr_params,
                       pattern_slots)

# Grid vectors per block.  A block holds a few dozen arrays of its length,
# and its operand grids run through `ir.first_mismatches` in batches of at
# most `ir.ROWS` entries, each reading its instances' annotations once.
AUDIT_VECTORS = 1 << 10
# Widest operand space, in bits, that the audit enumerates for one instance.
MAX_OPERAND_BITS = 22


def _compile(e, params: list[str], kinds: dict, convert):
    """`convert` of expression e as a function of `params`, positionally,
    from `rewrites._expr_code`; `kinds` gives each parameter's kind."""
    args = {p: f"p{i}" for i, p in enumerate(params)}
    src, _ = rewrites._expr_code(e, args.__getitem__, kinds)
    code = rewrites._Code([f"def f({', '.join(args.values())}):",
                           f"    return convert({src})"])
    return code.run("<audit table>", convert=convert)["f"]


class _Table:
    """An expression tabulated over the product of the domains of the
    parameters it reads, in C order, by one function compiled for it;
    `kinds` gives each parameter's kind.  `blocked` marks the entries that
    raised BlockedMatch.  `value` is int64 unless a value needs exact Python
    ints, and `fill` where blocked."""

    def __init__(self, e, domains: dict, kinds: dict, convert, fill: int):
        names: set[str] = set()
        expr_params(e, names)
        self.params = sorted(names)
        sizes = [len(domains[p]) for p in self.params]
        self.strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
        f = _compile(e, self.params, kinds, convert)
        values, blocked = [], []
        for combo in itertools.product(*(domains[p] for p in self.params)):
            try:
                v = f(*combo)   # an int or a bool, never None
            except BlockedMatch:
                v = None
            values.append(fill if v is None else v)
            blocked.append(v is None)
        try:
            self.value = np.array(values, dtype=np.int64)
        except OverflowError:
            self.value = np.array(values, dtype=object)
        self.blocked = np.array(blocked, dtype=bool)


class _Block:
    """The instances of one block in enumeration order: a column of domain
    indices per parameter, and which instances are still live."""

    def __init__(self, cols: dict[str, np.ndarray], n: int):
        self.cols = cols
        self.live = np.ones(n, dtype=bool)
        self.anns: dict[tuple[int, int], RowAnnotation] = {}

    def read(self, table: _Table) -> np.ndarray:
        """`table`'s entry for every instance; an instance that reads a
        blocked entry stops being live."""
        flat = np.zeros(len(self.live), dtype=np.int64)
        for p, stride in zip(table.params, table.strides):
            flat += self.cols[p] * stride
        self.live &= ~table.blocked[flat]
        return table.value[flat]

    def keep(self, rows: np.ndarray) -> None:
        self.cols = {p: c[rows] for p, c in self.cols.items()}
        self.live = self.live[rows]


class RuleAudit:
    """One pattern rule's audit: its parameter grid (widths, then signages,
    each sorted, in C order) and the tables of its expressions, built once
    and read by every block."""

    def __init__(self, rule: Rule, maxw: int):
        self.rule = rule
        shift_widths = {e for p in (rule.lhs, rule.rhs)
                        for kind, e, _ in pattern_slots(p)
                        if kind == "amount" and isinstance(e, str)}
        width_ps, sig_ps = (sorted(p for p, k in rule.kinds.items()
                                   if k == kind) for kind in ("width", "sig"))
        self.grid = width_ps + sig_ps
        # a constant value's annotation, from its last lhs constant
        self.val_ann = {e: (owner.width, owner.sig)
                        for kind, e, owner in pattern_slots(rule.lhs)
                        if kind == "value" and isinstance(e, str)}
        self.vals = sorted(self.val_ann)
        self.domains: dict[str, Sequence] = {
            w: range(1, (min(maxw, 3) if w in shift_widths else maxw) + 1)
            for w in width_ps}
        self.domains.update((s, (UNSIGNED, SIGNED)) for s in sig_ps)
        self.shape = [len(self.domains[p]) for p in self.grid]
        self.tables: dict[tuple, _Table] = {}
        # a constant value ranges over every annotation its constant takes
        for v in self.vals:
            w = self.table(self.val_ann[v][0], _width, fill=1)
            s = self.table(self.val_ann[v][1], _is_signed)
            anns = [Annotation(wv, bool(sv))
                    for wv in set(w.value[~w.blocked].tolist())
                    for sv in set(s.value[~s.blocked].tolist())]
            self.domains[v] = range(min((a.lo for a in anns), default=0),
                                    max((a.hi for a in anns), default=-1) + 1)

    def blocks(self) -> Iterator[tuple[int, int]]:
        total = math.prod(self.shape)
        for start in range(0, total, AUDIT_VECTORS):
            yield start, min(start + AUDIT_VECTORS, total)

    def table(self, e, convert, fill=0) -> _Table:
        key = (e, convert)
        if key not in self.tables:
            self.tables[key] = _Table(e, self.domains, self.rule.kinds,
                                      convert, fill)
        return self.tables[key]

    def ann(self, b: _Block, w, s) -> RowAnnotation:
        """The annotation (w, s) of every instance in the block.  Reading
        the same tables again blocks and raises nothing new, so the block
        keeps one annotation per pair of tables."""
        wt = self.table(w, _width, fill=1)
        st = self.table(s, _is_signed)
        key = (id(wt), id(st))
        if key not in b.anns:
            b.anns[key] = RowAnnotation.of(b.read(wt),
                                           b.read(st).astype(bool))
        return b.anns[key]

    def block(self, start: int, stop: int) -> _Block:
        """The instances of grid vectors start..stop-1: each vector once per
        assignment of its constant values (each low to high).  A constant's
        annotation reads only grid parameters and literals, so it can block
        a vector."""
        n = stop - start
        idx = np.unravel_index(np.arange(start, stop), self.shape) \
            if self.shape else ()
        b = _Block(dict(zip(self.grid, idx)), n)
        if not self.vals:
            return b
        anns = [self.ann(b, *self.val_ann[v]) for v in self.vals]
        counts = np.where(b.live, 1 << sum(a.width for a in anns), 0)
        starts = np.cumsum(counts) - counts
        vec = np.repeat(np.arange(n), counts)
        cols = {p: c[vec] for p, c in b.cols.items()}
        values = rows_to_inputs(np.arange(len(vec)) - starts[vec],
                                [a.take(vec) for a in anns])
        for v, value in zip(self.vals, values):
            cols[v] = value - self.domains[v].start
        return _Block(cols, len(vec))

    def term(self, b: _Block, p: Pattern, var_anns: dict) -> RowTerm:
        """`p` instantiated for the block's instances, reading expressions
        in the order the rule's applier evaluates them.  An instance with a
        blocked expression or an unrepresentable constant stops being live.
        A variable takes the annotation of its first lhs slot."""
        if isinstance(p, PatVar):
            return RowTerm("var", var_anns[p.name], name=p.name.lstrip("?"))
        if isinstance(p, PatConst):
            a = self.ann(b, p.width, p.sig)
            v = b.read(self.table(p.value, int))
            b.live &= ((-a.sign <= v) & (v <= a.mask - a.sign)).astype(bool)
            return RowTerm("const", a, value=v)
        out = self.ann(b, p.out_w, p.out_s)
        operands = []
        for w, s, sub in p.operands:
            slot = self.ann(b, w, s)
            if isinstance(sub, PatVar):
                var_anns.setdefault(sub.name, slot)
            operands.append((slot, self.term(b, sub, var_anns)))
        return RowTerm(p.op, out, tuple(operands))

    def params(self, b: _Block, i: int) -> dict:
        return {p: self.domains[p][int(b.cols[p][i])]
                for p in self.grid + self.vals}

    def check(self, start: int, stop: int) -> list[dict]:
        """Check grid vectors start..stop-1: keep the instances whose
        condition holds and whose expressions are not blocked, then report,
        per instance in enumeration order, an annotation mismatch or the
        first operand assignment on which the sides differ."""
        rule = self.rule
        b = self.block(start, stop)
        if rule.cond is not True:
            holds = b.read(self.table(rule.cond, bool))
            b.keep(b.live & holds.astype(bool))
        var_anns: dict[str, RowAnnotation] = {}
        lhs = self.term(b, rule.lhs, var_anns)
        rhs = self.term(b, rule.rhs, var_anns)
        inputs = [(v.lstrip("?"), var_anns[v]) for v in sorted(var_anns)]
        mismatch = b.live & ((lhs.out.width != rhs.out.width)
                             | (lhs.out.sign != rhs.out.sign))
        bits = sum(a.width for _, a in inputs)
        if (b.live & ~mismatch & (bits > MAX_OPERAND_BITS)).any():
            raise RuleError(f"{rule.id}: operand space too large to "
                            "enumerate")

        def ann_at(a: RowAnnotation, i: int) -> Annotation:
            return Annotation(int(a.width[i]), bool(a.sign[i]))

        found = {int(i): {"error": f"annotation mismatch {ann_at(lhs.out, i)}"
                                   f" vs {ann_at(rhs.out, i)}"}
                 for i in np.flatnonzero(mismatch)}
        rows = np.flatnonzero(b.live & ~mismatch)
        for i, (witness, lv, rv) in first_mismatches(
                lhs, rhs, inputs, rows).items():
            found[i] = {"witness": witness, "lhs": lv, "rhs": rv}
        return [{"rule": rule.id, "params": self.params(b, i), **found[i]}
                for i in sorted(found)]
