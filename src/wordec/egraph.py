"""Two-rooted e-graph over annotated word-level terms.

Nodes are hash-consed; classes live in a union-find.  Congruence repair is
deferred to rebuild().  Every union records a justification edge between two
concrete nodes in an explanation forest, from which single-rewrite proof
steps are later reconstructed.  The forest is two per-node lists, each
node's parent (`up`) and the justification of that edge (`why`), and a rule
justification is flat: the rule, its shape and the ids of the nodes it
rewrote.  The `Skeleton`s of its two sides are built only when the explainer
reads them.  Each class keeps a use list (the nodes with a child in it), so
rebuild() and the interval refinement it ends with visit only what the
merges since the last rebuild touched.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Mapping, NamedTuple, Sequence

from . import analysis
from .ir import Annotation, Term


class EGraphError(Exception):
    pass


class NodeRec(NamedTuple):
    """One e-node, and the key it is filed under in the table: a node
    compares and hashes equal to the tuple of its fields.  Children are
    class ids that may have been merged since; canonicalize through the
    union-find before comparing."""

    op: str                      # opcode, 'var' or 'const'
    out: Annotation
    slots: tuple[Annotation, ...]
    children: tuple[int, ...]
    name: str | None = None
    value: int | None = None
    indices: tuple[int, int] | None = None

    def term(self, operands: Sequence[tuple[Annotation, Term]],
             out: Annotation) -> Term:
        """This node's head over the given (slot, child term) operands, with
        output annotation `out`."""
        return Term(self.op, out, name=self.name, value=self.value,
                    operands=tuple(operands), indices=self.indices)


class Skeleton(NamedTuple):
    """Concrete instantiation of one side of a rewrite: the node at each
    structured pattern position.  `subs[i]` is None where the pattern had a
    variable (the child class stands for itself); `subs` is None when the
    whole side is a variable, witnessed by one of its class's nodes."""

    node: int
    subs: "tuple[Skeleton | None, ...] | None"


def _fill(shape: Skeleton | None,
          nodes: tuple[int, ...]) -> Skeleton | None:
    """The skeleton `shape` stands for, each position index read in
    `nodes`."""
    if shape is None:
        return None
    subs = shape.subs
    return Skeleton(nodes[shape.node], subs if not subs else
                    tuple(_fill(sub, nodes) for sub in subs))


class RuleJust(NamedTuple):
    """One rewrite's justification.  `shape` is the rule's (lhs, rhs)
    skeletons with each node a position in `nodes`: the lhs's structured
    positions, then the rhs's, each in pre-order.  A rule's applications
    share its one shape, so an application records only its node ids."""

    rule_id: str
    shape: tuple[Skeleton, Skeleton]
    nodes: tuple[int, ...]

    @property
    def lhs(self) -> Skeleton:
        return _fill(self.shape[0], self.nodes)

    @property
    def rhs(self) -> Skeleton:
        return _fill(self.shape[1], self.nodes)

    @classmethod
    def of(cls, rule_id: str, lhs: Skeleton, rhs: Skeleton) -> "RuleJust":
        """The justification whose sides are `lhs` and `rhs`."""
        nodes: list[int] = []

        def shape(skel: Skeleton | None) -> Skeleton | None:
            if skel is None:
                return None
            nodes.append(skel.node)
            return Skeleton(len(nodes) - 1, skel.subs if not skel.subs else
                            tuple(shape(sub) for sub in skel.subs))

        return cls(rule_id, (shape(lhs), shape(rhs)), tuple(nodes))


CONGRUENCE = "congruence"

# slot-annotation tuple -> the one instance of it that new nodes share
_SLOTS: dict[tuple[Annotation, ...], tuple[Annotation, ...]] = {}


@dataclass(slots=True)
class EClass:
    node_ids: list[int] = field(default_factory=list)
    interval: "analysis.Interval | None" = None
    uses: list[int] = field(default_factory=list)  # nodes with a child here


@dataclass
class IterationStats:
    """One saturation iteration: its matches, the applications that added
    nothing, the seconds of each phase, and the nodes its rebuild re-keyed
    and the congruence merges it made."""

    matches: int
    redundant_applications: int
    match_s: float
    apply_s: float
    width_reduce_s: float
    rebuild_s: float
    rekeyed: int
    congruences: int


@dataclass
class RuleCounts:
    """One rule's matches over a saturation run, and the applications that
    added something.  For width reduction, the narrowings it found and the
    ones that joined two classes."""

    matches: int = 0
    useful_applications: int = 0


@dataclass
class SaturationReport:
    iterations: int = 0
    node_counts: list[int] = field(default_factory=list)
    class_counts: list[int] = field(default_factory=list)
    stop_reason: str = ""
    roots_merged: bool = False
    redundant_applications: int = 0
    per_iteration: list[IterationStats] = field(default_factory=list)
    rules: dict[str, RuleCounts] = field(default_factory=dict)  # by rule id


class EGraph:
    def __init__(self):
        # node id -> its record, which is the key it was last filed under
        self.nodes: list[NodeRec] = []
        self.hashcons: dict[NodeRec, int] = {}   # canonical key -> node id
        self.live = bytearray()                  # node id -> 0 once dropped
        self.parent: list[int] = []              # union-find, by node id
        self.classes: dict[int, EClass] = {}     # canonical id -> class
        # explanation forest, by node id: the parent, or -1 at a root, and
        # the justification of the edge to it
        self.up: list[int] = []
        self.why: list[object] = []
        self.unions = 0
        self.congruences = 0                     # unions made by rebuild
        self.rekeyed = 0                         # nodes rebuild re-keyed
        self.narrowings = 0                      # width reduction's narrowings
        self.roots: tuple[int, int] | None = None  # (root_S cid, root_I cid)
        # upkeep since the last rebuild: nodes whose key names a merged-away
        # class, classes whose member list changed, and classes whose
        # interval narrowed (since the last refine_intervals)
        self.stale: list[int] = []
        self.reshaped: set[int] = set()
        self.narrowed: set[int] = set()

    # -- union-find ---------------------------------------------------------

    def find(self, cid: int) -> int:
        while self.parent[cid] != cid:
            self.parent[cid] = self.parent[self.parent[cid]]
            cid = self.parent[cid]
        return cid

    # -- node insertion -----------------------------------------------------

    def _key(self, n: NodeRec) -> NodeRec:
        """n with canonical children: the key it belongs under."""
        return NodeRec(n.op, n.out, n.slots, tuple(map(self.find, n.children)),
                       n.name, n.value, n.indices)

    def add(self, node: NodeRec | tuple) -> tuple[int, int]:
        """Insert a node, given as a NodeRec or a tuple of its fields, and
        return (class id, node id).  Its children are canonicalized first;
        an existing node under the same key is returned unchanged.  A new
        node is filed under itself and founds a class with its own id, so a
        node's class is `find(node id)`; its slot tuple is the one every
        node with those slot annotations shares."""
        parent = self.parent
        for c in node[3]:
            if parent[c] != c:  # the key, built once, as _key builds it
                node = (*node[:3], tuple(map(self.find, node[3])), *node[4:])
                break
        nid = self.hashcons.get(node)
        if nid is not None:
            c = parent[nid]  # find's fast path: no path to halve
            return (c if parent[c] == c else self.find(nid)), nid
        op, out, slots, children, name, value, indices = node
        node = NodeRec._make((op, out, _SLOTS.setdefault(slots, slots),
                              children, name, value, indices))
        nid = len(self.nodes)
        self.nodes.append(node)
        self.live.append(1)
        parent.append(nid)
        self.up.append(-1)
        self.why.append(None)
        self.hashcons[node] = nid
        classes = self.classes
        kids = []
        for c in children:
            cls = classes[c]
            kids.append(cls.interval)
            uses = cls.uses
            if not uses or uses[-1] != nid:  # once per distinct child class
                uses.append(nid)
        classes[nid] = EClass([nid], analysis.interval_make(node, kids), [])
        return nid, nid

    def add_term(self, t: Term) -> tuple[int, int]:
        """Insert a term bottom-up; returns (class id, node id) of the root."""
        nid = self._term_node(t, True, {})
        return self.find(nid), nid

    def lookup(self, t: Term) -> int | None:
        """Node id of the canonical node heading term t, or None when some
        subterm of t is not in the graph."""
        return self._term_node(t, False, {})

    def _term_node(self, t: Term, insert: bool, memo: dict) -> int | None:
        """t's node id; `memo` holds each subterm object already reached in
        this call by id, so a subterm shared by many parents is walked
        once."""
        if id(t) in memo:
            return memo[id(t)]
        kids = []
        for _, child in t.operands:
            nid = self._term_node(child, insert, memo)
            if nid is None:
                return None
            kids.append(self.find(nid))
        n = NodeRec(t.kind, t.out, tuple(s for s, _ in t.operands),
                    tuple(kids), t.name, t.value, t.indices)
        memo[id(t)] = nid = self.add(n)[1] if insert else self.hashcons.get(n)
        return nid

    def congruent(self, a: int, b: int) -> bool:
        """Nodes a and b have the same head and the same child classes."""
        return self._key(self.nodes[a]) == self._key(self.nodes[b])

    # -- merging and the explanation forest ---------------------------------

    def _forest_link(self, a: int, b: int, just: object) -> None:
        """Attach edge a--b by rerooting b's proof tree at b: each edge on
        b's path to its root turns round, keeping its justification."""
        up, why = self.up, self.why
        cur, par, j = b, a, just
        while cur != -1:
            nxt, nj = up[cur], why[cur]
            up[cur], why[cur] = par, j
            cur, par, j = nxt, cur, nj

    def forest_path(self, a: int, b: int) -> list[tuple[int, int, object]]:
        """Edges (x, y, justification) on the explanation-forest path from
        node a to node b."""
        up, why = self.up, self.why
        up_a: list[int] = [a]
        seen = {a: 0}
        cur = a
        while up[cur] != -1:
            cur = up[cur]
            seen[cur] = len(up_a)
            up_a.append(cur)
        chain_b: list[int] = [b]
        cur = b
        while cur not in seen:
            cur = up[cur]
            if cur == -1:
                raise EGraphError(f"nodes {a} and {b} are not connected")
            chain_b.append(cur)
        path = [(x, up[x], why[x]) for x in up_a[:seen[cur]]]
        path += [(up[x], x, why[x]) for x in reversed(chain_b[:-1])]
        return path

    def union(self, a: int, b: int, why: object) -> bool:
        """Union the classes of nodes a and b, whose equality `why` justifies:
        the smaller class id is kept and the forest gains the edge
        (a, b, why).  Returns False, recording nothing, when they are one
        class already."""
        parent = self.parent
        c1, c2 = parent[a], parent[b]  # find's fast path, as in add
        if parent[c1] != c1:
            c1 = self.find(a)
        if parent[c2] != c2:
            c2 = self.find(b)
        if c1 == c2:
            return False
        keep, drop = (c1, c2) if c1 < c2 else (c2, c1)
        kc, dc = self.classes[keep], self.classes[drop]
        ki, di = kc.interval, dc.interval
        # the inner interval when one holds the other, else the intersection
        if ki.lo <= di.lo and di.hi <= ki.hi:
            iv = di
        elif di.lo <= ki.lo and ki.hi <= di.hi:
            iv = ki
        else:
            try:
                iv = analysis.interval_merge(ki, di)
            except analysis.AnalysisError as e:
                rule = getattr(why, "rule_id", why)
                raise analysis.AnalysisError(f"merge by {rule}: {e}") from None
        parent[drop] = keep
        del self.classes[drop]
        kc.node_ids.extend(dc.node_ids)
        if iv != ki or iv != di:
            self.narrowed.add(keep)
        kc.interval = iv
        kc.uses.extend(dc.uses)
        self.stale.extend(dc.uses)  # their keys name `drop`
        self.reshaped.add(keep)
        self._forest_link(a, b, why)
        self.unions += 1
        return True

    # -- rebuild ------------------------------------------------------------

    def rebuild(self) -> None:
        """Restore congruence and the dedup table to a fixpoint, then refine
        intervals to their fixpoint.

        The result, merge order and witness edges included, is that of
        rescanning the table in node-id order until a scan merges nothing,
        but each pass visits only the nodes such a scan would re-key: those
        whose key names a merged-away class, in node-id order.  A visited
        node v drops its old entry and is re-filed: its record becomes its
        fresh key k.  If nobody holds k, v takes it.  If a later node w holds
        it, v takes it too, record and all, and w is visited in turn, to
        collide with v as in the scan.  If an earlier node w holds it, v
        leaves the table (`live[v]` is 0), and its class merges with w's
        unless they are the same.  A merge makes the users of the
        merged-away class stale: those after v join this pass, the others
        the next one, as a scan would meet them."""
        hashcons, live, nodes, find = (self.hashcons, self.live, self.nodes,
                                       self.find)
        todo = sorted(set(self.stale))  # a sorted list is a heap
        self.stale = []
        while todo:
            later: list[int] = []
            while todo:
                v = heappop(todo)
                while todo and todo[0] == v:
                    heappop(todo)
                if not live[v]:
                    continue  # no longer in the table
                old = nodes[v]
                if hashcons.get(old) == v:
                    del hashcons[old]
                key = nodes[v] = self._key(old)
                self.rekeyed += 1
                w = hashcons.get(key)
                if w is None or w > v:
                    if w is not None:
                        del hashcons[key]  # so the table keeps v's record
                        heappush(todo, w)
                    hashcons[key] = v
                    continue
                live[v] = 0
                self.reshaped.add(find(v))
                if self.union(w, v, CONGRUENCE):
                    self.congruences += 1
                    for u in self.stale:
                        if u > v:
                            heappush(todo, u)
                        else:
                            later.append(u)
                    self.stale = []
            todo = sorted(set(later))
        # member lists: the live nodes, which the last pass found congruent
        # only within their class, in node-id order
        for cid in {find(c) for c in self.reshaped}:
            cls = self.classes[cid]
            cls.node_ids = sorted(n for n in cls.node_ids if live[n])
        self.reshaped = set()
        analysis.refine_intervals(self)

    # -- queries ------------------------------------------------------------

    def num_nodes(self) -> int:
        return len(self.hashcons)

    def num_classes(self) -> int:
        return len(self.classes)

    def roots_merged(self) -> bool:
        return self.find(self.roots[0]) == self.find(self.roots[1])

    # -- terms from a per-class pick ----------------------------------------

    def term(self, nid: int, pick: Mapping[int, int],
             memo: dict[int, Term]) -> Term:
        """The term headed by node nid in which every child class c is
        realised by node pick[c], recursively.  `memo` maps each class
        realised so far to its term and may be shared between calls with the
        same pick.  A pick that reaches its own class again is cyclic and
        raises EGraphError; a class missing from pick raises KeyError."""
        onpath: set[int] = set()

        def realize_class(c: int) -> Term:
            c = self.find(c)
            if c not in memo:
                if c in onpath:
                    raise EGraphError(f"cyclic selection through class {c}")
                onpath.add(c)
                memo[c] = realize_node(pick[c])
                onpath.discard(c)
            return memo[c]

        def realize_node(i: int) -> Term:
            n = self.nodes[i]
            return n.term([(slot, realize_class(ch))
                           for slot, ch in zip(n.slots, n.children)], n.out)

        return realize_node(nid)

    # -- dumping ------------------------------------------------------------

    def dump(self, shared_sets=None) -> dict:
        """JSON-friendly dump: classes, nodes, annotations, roots, intervals,
        and spec/impl/shared coloring when shared sets are given."""
        color = {}
        if shared_sets is not None:
            for c in shared_sets.c_spec:
                color[c] = "spec"
            for c in shared_sets.c_impl:
                color[c] = "impl"
            for c in shared_sets.c_shared:
                color[c] = "shared"
        classes = []
        for cid, cls in sorted(self.classes.items()):
            nodes = []
            for nid in cls.node_ids:
                n = self.nodes[nid]
                nodes.append({
                    "op": n.op, "out": str(n.out),
                    "slots": [str(s) for s in n.slots],
                    "children": [self.find(c) for c in n.children],
                    "name": n.name, "value": n.value, "indices": n.indices,
                })
            entry = {"id": cid, "nodes": nodes,
                     "interval": [cls.interval.lo, cls.interval.hi]}
            if cid in color:
                entry["color"] = color[cid]
            classes.append(entry)
        return {
            "classes": classes,
            "roots": {"spec": self.find(self.roots[0]),
                      "impl": self.find(self.roots[1])},
        }


def init_pair(spec, impl) -> EGraph:
    """Initialize an e-graph holding both designs, sharing structure.

    The designs must declare identical input ports (names and annotations).
    """
    if spec.inputs != impl.inputs:
        raise EGraphError(
            f"port mismatch between designs: {spec.inputs} vs {impl.inputs}")
    g = EGraph()
    cs, _ = g.add_term(spec.body)
    ci, _ = g.add_term(impl.body)
    g.roots = (cs, ci)
    g.rebuild()
    return g


def saturate(g: EGraph, rules: Sequence, limits: dict | None = None,
             stop_on_merge: bool = True) -> SaturationReport:
    """Equality saturation: each iteration matches every rule against the
    pre-iteration graph, applies all matches constructively, runs the
    width-reduction analysis pass, then rebuilds.  The node and time budgets
    are checked after each rule's matching and before each application; one
    that is spent stops the matching and the applications, and the run ends
    after that iteration's width reduction and rebuild.  The node budget is
    hard: an application goes ahead only if the graph has room for every
    node its rule's rhs can add (`rule.rhs_nodes`), a narrowing only if it
    has room for two, and an iteration starts only with room for a
    narrowing.

    The cyclic garbage collector is paused for the run and left as it was
    found: saturation makes no reference cycles, so each collection would
    only re-walk the growing graph and free nothing, and each match is freed
    as soon as it is applied."""
    limits = dict(limits or {})
    iter_limit = limits.get("iter", 5)
    node_limit = limits.get("nodes", 50_000)
    time_limit = limits.get("time", 60.0)
    if iter_limit <= 0 or node_limit <= 0 or time_limit <= 0:
        raise EGraphError("saturation limits must be positive")
    report = SaturationReport()
    start = time.monotonic()
    report.node_counts.append(g.num_nodes())
    report.class_counts.append(g.num_classes())
    per_rule = report.rules
    for r in rules:
        per_rule.setdefault(r.id, RuleCounts())
    narrowing = per_rule.setdefault(analysis.WIDTH_REDUCE_RULE, RuleCounts())

    def over_budget(room: int = 0) -> str | None:
        """The budget that is spent, if the graph has no room for `room`
        more nodes or the time is up."""
        if g.num_nodes() + room > node_limit:
            return "node-limit"
        if time.monotonic() - start > time_limit:
            return "timeout"
        return None

    hashcons, monotonic = g.hashcons, time.monotonic
    collecting = gc.isenabled()
    gc.disable()
    try:
        reason = "iter-limit"
        for it in range(iter_limit):
            spent = over_budget(analysis.NARROWING_NODES)
            if spent:
                reason = spent
                break
            before = (g.num_nodes(), g.num_classes(), g.unions)
            t0 = time.perf_counter()
            found = []
            for r in rules:
                matches = r.matches(g)
                counts = per_rule[r.id]
                counts.matches += len(matches)
                found.append((counts, matches, r.rhs_nodes))
                spent = over_budget()
                if spent:
                    break
            t1 = time.perf_counter()
            redundant = 0
            for counts, matches, room in found:
                if spent:
                    break  # finish the iteration: leave it congruent
                cap = node_limit - room
                for i, m in enumerate(matches):
                    # over_budget(room), inline; it only names the budget
                    if (len(hashcons) > cap
                            or monotonic() - start > time_limit):
                        spent = over_budget(room)
                        break
                    matches[i] = None  # freed once applied
                    if m.apply(g):
                        counts.useful_applications += 1
                    else:
                        redundant += 1
            t2 = time.perf_counter()
            narrowings = g.narrowings
            narrowing.useful_applications += analysis.width_reduction_pass(
                g, node_limit)
            narrowing.matches += g.narrowings - narrowings
            rekeyed, congruences = g.rekeyed, g.congruences
            t3 = time.perf_counter()
            g.rebuild()
            report.per_iteration.append(IterationStats(
                sum(len(ms) for _, ms, _ in found), redundant, t1 - t0,
                t2 - t1, t3 - t2, time.perf_counter() - t3,
                g.rekeyed - rekeyed, g.congruences - congruences))
            report.redundant_applications += redundant
            report.iterations = it + 1
            report.node_counts.append(g.num_nodes())
            report.class_counts.append(g.num_classes())
            if spent:
                reason = spent
                break
            if stop_on_merge and g.roots is not None and g.roots_merged():
                reason = "roots-merged"
                break
            if (g.num_nodes(), g.num_classes(), g.unions) == before:
                reason = "saturated"
                break
    finally:
        if collecting:
            gc.enable()
    report.stop_reason = reason
    report.roots_merged = g.roots is not None and g.roots_merged()
    return report
