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
- both sides are compiled once into one `ir.program` whose annotations
  and constants are columns, read from the tables per block of at most
  AUDIT_VECTORS grid vectors;
- the operand grids of a block's surviving instances run through
  `ir.first_mismatches`, one row per instance in 2-D batches of at most
  `ir.ROWS` entries (the evaluator's one batch size) grouped by the bits
  of their operand space, each batch gathering every column once.

The violations and the blocked instances are those of checking one
instance and one operand assignment at a time, in order.  Every expression
was typed when the rule was made, so a table entry is a value or blocked.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from . import ir, rewrites
from .ir import (SIGNED, UNSIGNED, Annotation, RowAnnotation, RowTerm,
                 first_mismatches, rows_to_inputs)
from .rewrites import (BlockedMatch, PatConst, PatVar, Pattern, Rule,
                       RuleError, _is_signed, _width, expr_params,
                       pattern_slots)

# Grid vectors per block.  A block holds a few dozen arrays of its length,
# and its operand grids run through `ir.first_mismatches` in batches of at
# most `ir.ROWS` entries, each gathering its instances' columns once.
AUDIT_VECTORS = 1 << 10
# Widest operand or constant-value space, in bits, that the audit enumerates.
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
    each sorted, in C order), the program of its two sides and the tables
    of its expressions, built once and read by every block."""

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
        # each column's index by its key, in the order the applier reads them
        self.columns: dict[tuple, int] = {}
        var_cols: dict[str, int] = {}

        def column(*key) -> int:
            return self.columns.setdefault(key, len(self.columns))

        def term(p: Pattern, slot: int | None = None) -> RowTerm:
            if isinstance(p, PatVar):  # the column of its first lhs slot
                col = var_cols.setdefault(p.name, slot)
                return RowTerm("var", col, (), p.name.lstrip("?"))
            if isinstance(p, PatConst):
                a = column("ann", p.width, p.sig)
                return RowTerm("const", a, value=column("const", p.value, a))
            out = column("ann", p.out_w, p.out_s)
            operands = []
            for w, s, sub in p.operands:
                col = column("ann", w, s)
                operands.append((col, term(sub, col)))
            return RowTerm(p.op, out, tuple(operands))

        self.sides = term(rule.lhs), term(rule.rhs)
        self.program = ir.program(self.sides)
        self.inputs = [(v.lstrip("?"), var_cols[v]) for v in sorted(var_cols)]

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
        """The annotation (w, s) of every instance in the block."""
        return RowAnnotation.of(b.read(self.table(w, _width, fill=1)),
                                b.read(self.table(s, _is_signed)).astype(bool))

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
        bits = sum(a.width for a in anns)
        if (b.live & (bits > MAX_OPERAND_BITS)).any():
            raise RuleError(f"{self.rule.id}: constant space too large to "
                            "enumerate")
        counts = np.where(b.live, 1 << bits, 0)
        starts = np.cumsum(counts) - counts
        vec = np.repeat(np.arange(n), counts)
        cols = {p: c[vec] for p, c in b.cols.items()}
        values = rows_to_inputs(np.arange(len(vec)) - starts[vec],
                                [a.take(vec) for a in anns])
        for v, value in zip(self.vals, values):
            cols[v] = value - self.domains[v].start
        return _Block(cols, len(vec))

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
        # a blocked expression or an unrepresentable constant ends an instance
        cols: list = []
        for kind, e, x in self.columns:
            if kind == "ann":
                cols.append(self.ann(b, e, x))
                continue
            a, v = cols[x], b.read(self.table(e, int))
            b.live &= ((-a.sign <= v) & (v <= a.mask - a.sign)).astype(bool)
            cols.append(v)
        lhs, rhs = (cols[t.out] for t in self.sides)
        mismatch = b.live & ((lhs.width != rhs.width) | (lhs.sign != rhs.sign))
        bits = sum(cols[c].width for _, c in self.inputs)
        if (b.live & ~mismatch & (bits > MAX_OPERAND_BITS)).any():
            raise RuleError(f"{rule.id}: operand space too large to "
                            "enumerate")

        def ann_at(a: RowAnnotation, i: int) -> Annotation:
            return Annotation(int(a.width[i]), bool(a.sign[i]))

        found = {int(i): {"error": f"annotation mismatch {ann_at(lhs, i)}"
                                   f" vs {ann_at(rhs, i)}"}
                 for i in np.flatnonzero(mismatch)}
        rows = np.flatnonzero(b.live & ~mismatch)
        for i, (witness, lv, rv) in first_mismatches(
                self.program, cols, self.inputs, rows).items():
            found[i] = {"witness": witness, "lhs": lv, "rhs": rv}
        return [{"rule": rule.id, "params": self.params(b, i), **found[i]}
                for i in sorted(found)]
