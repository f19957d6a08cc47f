"""Interval e-class analysis and bitwidth-reduction rewriting.

Each class carries a sound interval over its output value space.  Merging
intersects (all members of a class compute the same value, so both intervals
must contain it).  When a class's interval fits a narrower width, a
zext/sext-wrapped narrow copy of each operator node is added, normalizing
operators toward their minimum storage width.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple

from .ir import Annotation, fit, min_width, op_value_range

if TYPE_CHECKING:
    from .egraph import EGraph, NodeRec

WIDTH_REDUCE_RULE = "width-reduce"
NARROWING_NODES = 2  # a narrowing adds the narrow copy and its zext/sext

# the all-variable `subs` of a narrowed node's skeleton, by arity
_NO_SUBS = tuple((None,) * k for k in range(4))


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
    out = node.out
    if node.op == "var":
        return Interval(out.lo, out.hi)
    if node.op == "const":
        return Interval(node.value, node.value)
    ranges = [fit(*iv, slot) for iv, slot in zip(child_intervals, node.slots)]
    lo, hi = op_value_range(node.op, node.slots, ranges, node.indices,
                            out.width)
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


def width_reduction_pass(g: "EGraph", node_limit: int) -> int:
    """For every operator class whose interval fits a narrower width, add a
    zext/sext of the narrowed operator to the class, while the graph has
    room for its two nodes within `node_limit`.  Returns the number of
    narrowing unions performed; `g.narrowings` counts every narrowing
    added."""
    from .egraph import RuleJust, Skeleton

    applied = 0
    for cid in sorted(g.classes):
        if g.find(cid) != cid:
            continue  # merged away by an earlier narrowing this pass
        cls = g.classes[cid]
        for nid in list(cls.node_ids):
            n = g.nodes[nid]
            if n.op in ("var", "const", "zext", "sext"):
                continue
            out = n.out
            iv = cls.interval
            narrow_w = min_width(iv.lo, iv.hi, out.signed)
            if narrow_w >= out.width:
                continue
            if g.num_nodes() + NARROWING_NODES > node_limit:
                return applied
            g.narrowings += 1
            narrow = Annotation(narrow_w, out.signed)
            ncid, nnid = g.add((n.op, narrow, n.slots, n.children, n.name,
                                n.value, n.indices))
            wrap_op = "sext" if out.signed else "zext"
            _, wnid = g.add((wrap_op, out, (narrow,), (ncid,), None, None,
                             None))
            subs = _NO_SUBS[len(n.children)]
            if g.union(nid, wnid, RuleJust(
                    WIDTH_REDUCE_RULE, lhs=Skeleton(nid, subs),
                    rhs=Skeleton(wnid, (Skeleton(nnid, subs),)))):
                applied += 1
    return applied
