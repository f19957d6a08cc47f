"""Interval e-class analysis and bitwidth-reduction rewriting.

Each class carries a sound interval over its output value space.  Merging
intersects (all members of a class compute the same value, so both intervals
must contain it).  When a class's interval fits a narrower width, a
zext/sext-wrapped narrow copy of each operator node is added, normalizing
operators toward their minimum storage width.
"""

from __future__ import annotations

from functools import cache
from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple

from .ir import _INTERNED, Annotation, fit, min_width, op_value_range

if TYPE_CHECKING:
    from .egraph import EGraph, NodeRec, Skeleton

WIDTH_REDUCE_RULE = "width-reduce"
NARROWING_NODES = 2  # a narrowing adds the narrow copy and its zext/sext


class AnalysisError(Exception):
    """Empty interval intersection: an unsound rewrite or analysis bug."""


class Interval(NamedTuple):
    """A nonempty range of values, lo <= hi; interval_merge rejects an empty
    intersection."""

    lo: int
    hi: int

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi


def interval_make(node: "NodeRec", child_intervals: list[Interval]) -> Interval:
    """Sound output interval of one node from its child class intervals,
    each read through its slot, and the result through the output
    annotation, by `ir.fit`."""
    op, out = node.op, node.out
    if op == "+":  # the AC rules' opcode: fit, op_value_range and fit, inline
        (alo, ahi), (blo, bhi) = child_intervals
        sa, sb = node.slots
        if not (sa.lo <= alo and ahi <= sa.hi):
            alo, ahi = sa.lo, sa.hi
        if not (sb.lo <= blo and bhi <= sb.hi):
            blo, bhi = sb.lo, sb.hi
        lo, hi = alo + blo, ahi + bhi
        if out.lo <= lo and hi <= out.hi:
            return Interval(lo, hi)
        return Interval(out.lo, out.hi)
    if op == "var":
        return Interval(out.lo, out.hi)
    if op == "const":
        return Interval(node.value, node.value)
    ranges = [fit(*iv, slot) for iv, slot in zip(child_intervals, node.slots)]
    lo, hi = op_value_range(op, node.slots, ranges, node.indices, out.width)
    return Interval(*fit(lo, hi, out))


def interval_merge(a: Interval, b: Interval) -> Interval:
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo > hi:
        raise AnalysisError(
            f"disjoint intervals [{a.lo},{a.hi}] and [{b.lo},{b.hi}]: "
            "unsound rewrite or analysis bug")
    return Interval(lo, hi)


def refine_intervals(g: "EGraph") -> None:
    """Narrow every class interval to the greatest fixpoint of make/merge
    below the current intervals.  Only classes that use a class narrowed
    since the last call (`g.narrowed`) are recomputed, then the users of
    each class that narrows in turn: every other class already lies inside
    its members' make.  Make is monotone and merge intersects, so the
    fixpoint, and so the result, does not depend on the visiting order."""
    classes, nodes, find, live = g.classes, g.nodes, g.find, g.live
    todo: list[int] = []
    queued: set[int] = set()

    def users_of(cid: int) -> None:
        for u in classes[cid].uses:
            if live[u]:
                c = find(u)
                if c not in queued:
                    queued.add(c)
                    heappush(todo, c)

    for cid in {find(c) for c in g.narrowed}:
        users_of(cid)
    g.narrowed = set()
    while todo:
        cid = heappop(todo)
        queued.discard(cid)
        cls = classes[cid]
        iv = cls.interval
        for nid in cls.node_ids:
            n = nodes[nid]
            kids = [classes[find(c)].interval for c in n.children]
            iv = interval_merge(iv, interval_make(n, kids))
        if iv != cls.interval:
            cls.interval = iv
            users_of(cid)


@cache
def _narrowing_shape(arity: int) -> "tuple[Skeleton, Skeleton]":
    """The shape of a narrowing's justification: node 0, whose `arity`
    children are variables, becomes node 1, the zext/sext of node 2, its
    narrow copy."""
    from .egraph import Skeleton

    subs = (None,) * arity
    return Skeleton(0, subs), Skeleton(1, (Skeleton(2, subs),))


def width_reduction_pass(g: "EGraph", node_limit: int) -> int:
    """For every operator class whose interval fits a narrower width, add a
    zext/sext of the narrowed operator to the class, while the graph has
    room for its two nodes within `node_limit`.  Returns the number of
    narrowing unions performed; `g.narrowings` counts every narrowing
    added."""
    from .egraph import RuleJust

    classes, nodes, hashcons, add = g.classes, g.nodes, g.hashcons, g.add
    room = node_limit - NARROWING_NODES
    applied = 0
    for cid in sorted(classes):
        if g.find(cid) != cid:
            continue  # merged away by an earlier narrowing this pass
        cls = classes[cid]
        widths: dict[bool, int] = {}  # min_width by signage, over `iv`
        iv = None
        for nid in list(cls.node_ids):
            n = nodes[nid]
            if n.op in ("var", "const", "zext", "sext"):
                continue
            out = n.out
            if cls.interval is not iv:  # first, or a union narrowed it
                iv, widths = cls.interval, {}
            signed = out.signed
            narrow_w = widths.get(signed)
            if narrow_w is None:
                narrow_w = widths[signed] = min_width(iv.lo, iv.hi, signed)
            if narrow_w >= out.width:
                continue
            if len(hashcons) > room:
                return applied
            g.narrowings += 1
            narrow = (_INTERNED.get((narrow_w, signed))
                      or Annotation(narrow_w, signed))
            ncid, nnid = add((n.op, narrow) + n[2:])
            _, wnid = add(("sext" if signed else "zext", out, (narrow,),
                           (ncid,), None, None, None))
            if g.union(nid, wnid, RuleJust._make((
                    WIDTH_REDUCE_RULE, _narrowing_shape(len(n.children)),
                    (nid, wnid, nnid)))):
                applied += 1
    return applied
