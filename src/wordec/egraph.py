"""Two-rooted e-graph over annotated word-level terms.

Nodes are hash-consed; classes live in a union-find.  Congruence repair is
deferred to rebuild().  Every union records a justification edge between two
concrete nodes in an explanation forest, from which single-rewrite proof
steps are later reconstructed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import analysis
from .ir import Annotation, Term


class EGraphError(Exception):
    pass


@dataclass(frozen=True)
class NodeRec:
    """One e-node as originally added.  Children are class ids that may have
    been merged since; canonicalize through the union-find before comparing."""

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


@dataclass(frozen=True)
class Skeleton:
    """Concrete instantiation of one side of a rewrite: the node at each
    structured pattern position.  `subs[i]` is None where the pattern had a
    variable (the child class stands for itself)."""

    node: int
    subs: tuple["Skeleton | None", ...]


@dataclass(frozen=True)
class Leaf:
    """One side of a rewrite that is a bare class variable: the whole class
    stands for itself, witnessed by one of its concrete nodes."""

    node: int


@dataclass(frozen=True)
class RuleJust:
    rule_id: str
    lhs: Skeleton | Leaf
    rhs: Skeleton | Leaf
    lhs_node: int
    rhs_node: int


CONGRUENCE = "congruence"


@dataclass
class EClass:
    id: int
    node_ids: list[int] = field(default_factory=list)
    interval: "analysis.Interval | None" = None


@dataclass
class IterationStats:
    """One saturation iteration: its matches, the applications that added
    nothing, and the seconds of each phase."""

    matches: int
    redundant_applications: int
    match_s: float
    apply_s: float
    width_reduce_s: float
    rebuild_s: float


@dataclass
class SaturationReport:
    iterations: int = 0
    node_counts: list[int] = field(default_factory=list)
    class_counts: list[int] = field(default_factory=list)
    stop_reason: str = ""
    roots_merged: bool = False
    redundant_applications: int = 0
    per_iteration: list[IterationStats] = field(default_factory=list)


class EGraph:
    def __init__(self):
        self.nodes: list[NodeRec] = []
        self.node_class: list[int] = []          # class at add time (stale ok)
        self.hashcons: dict[tuple, int] = {}     # canonical key -> node id
        self.parent: list[int] = []              # union-find
        self.classes: dict[int, EClass] = {}     # canonical id -> class
        self.proof_parent: dict[int, tuple[int, object]] = {}  # explanation forest
        self.unions = 0
        self.roots: tuple[int, int] | None = None       # (root_S cid, root_I cid)
        self.root_nodes: tuple[int, int] | None = None  # node ids of the roots

    # -- union-find ---------------------------------------------------------

    def find(self, cid: int) -> int:
        while self.parent[cid] != cid:
            self.parent[cid] = self.parent[self.parent[cid]]
            cid = self.parent[cid]
        return cid

    def class_of(self, node_id: int) -> int:
        return self.find(self.node_class[node_id])

    # -- node insertion -----------------------------------------------------

    def _key(self, n: NodeRec) -> tuple:
        return (n.op, n.out, n.slots, tuple(self.find(c) for c in n.children),
                n.name, n.value, n.indices)

    def add_node(self, n: NodeRec) -> tuple[int, int]:
        """Insert a node, returning (class id, node id).  Deduplicated: an
        existing canonical node is returned unchanged."""
        key = self._key(n)
        if key in self.hashcons:
            nid = self.hashcons[key]
            return self.class_of(nid), nid
        nid = len(self.nodes)
        self.nodes.append(n)
        cid = len(self.parent)
        self.parent.append(cid)
        self.node_class.append(cid)
        self.hashcons[key] = nid
        cls = EClass(cid, [nid])
        children_ivs = [self.classes[self.find(c)].interval for c in n.children]
        cls.interval = analysis.interval_make(n, children_ivs)
        self.classes[cid] = cls
        return cid, nid

    def add_term(self, t: Term) -> tuple[int, int]:
        """Insert a term bottom-up; returns (class id, node id) of the root."""
        nid = self._term_node(t, insert=True)
        return self.class_of(nid), nid

    def lookup(self, t: Term) -> int | None:
        """Node id of the canonical node heading term t, or None when some
        subterm of t is not in the graph."""
        return self._term_node(t, insert=False)

    def _term_node(self, t: Term, insert: bool) -> int | None:
        kids = []
        for _, child in t.operands:
            nid = self._term_node(child, insert)
            if nid is None:
                return None
            kids.append(self.class_of(nid))
        # NodeRec's fields, in order, with canonical children: the node's key
        fields = (t.kind, t.out, tuple(s for s, _ in t.operands), tuple(kids),
                  t.name, t.value, t.indices)
        if insert:
            return self.add_node(NodeRec(*fields))[1]
        return self.hashcons.get(fields)

    def congruent(self, a: int, b: int) -> bool:
        """Nodes a and b have the same head and the same child classes."""
        return self._key(self.nodes[a]) == self._key(self.nodes[b])

    # -- merging and the explanation forest ---------------------------------

    def _forest_link(self, a: int, b: int, just: object) -> None:
        """Attach edge a--b by rerooting b's proof tree at b."""
        path = []
        cur = b
        while cur in self.proof_parent:
            nxt, j = self.proof_parent[cur]
            path.append((cur, nxt, j))
            cur = nxt
        for child, par, j in reversed(path):
            del self.proof_parent[child]
            self.proof_parent[par] = (child, j)
        self.proof_parent[b] = (a, just)

    def forest_path(self, a: int, b: int) -> list[tuple[int, int, object]]:
        """Edges (x, y, justification) on the explanation-forest path from
        node a to node b."""
        up_a: list[int] = [a]
        seen = {a: 0}
        cur = a
        while cur in self.proof_parent:
            cur = self.proof_parent[cur][0]
            seen[cur] = len(up_a)
            up_a.append(cur)
        chain_b: list[int] = [b]
        cur = b
        while cur not in seen:
            if cur not in self.proof_parent:
                raise EGraphError(f"nodes {a} and {b} are not connected")
            cur = self.proof_parent[cur][0]
            chain_b.append(cur)
        path: list[tuple[int, int, object]] = []
        for x in up_a[:seen[cur]]:
            par, just = self.proof_parent[x]
            path.append((x, par, just))
        down = []
        for x in chain_b[:-1]:
            par, just = self.proof_parent[x]
            down.append((par, x, just))
        path.extend(reversed(down))
        return path

    def merge(self, c1: int, c2: int, justification: object = None,
              edge: tuple[int, int] | None = None) -> int:
        """Union two classes.  `edge` names the two concrete nodes whose
        equality justifies the union; required whenever c1 != c2."""
        c1, c2 = self.find(c1), self.find(c2)
        if c1 == c2:
            return c1
        if edge is None:
            raise EGraphError("merge of distinct classes needs a witness edge")
        keep, drop = (c1, c2) if c1 < c2 else (c2, c1)
        try:
            iv = analysis.interval_merge(self.classes[keep].interval,
                                         self.classes[drop].interval)
        except analysis.AnalysisError as e:
            rule = getattr(justification, "rule_id", justification)
            raise analysis.AnalysisError(f"merge by {rule}: {e}") from None
        self.parent[drop] = keep
        kc, dc = self.classes[keep], self.classes.pop(drop)
        kc.node_ids.extend(dc.node_ids)
        kc.interval = iv
        self._forest_link(edge[0], edge[1], justification)
        self.unions += 1
        return keep

    # -- rebuild ------------------------------------------------------------

    def rebuild(self) -> None:
        """Restore congruence and the dedup table to a fixpoint, then refine
        intervals to their fixpoint."""
        changed = True
        while changed:
            changed = False
            table: dict[tuple, int] = {}
            for nid, n in enumerate(self.nodes):
                key = self._key(n)
                other = table.get(key)
                if other is None:
                    table[key] = nid
                elif self.class_of(other) != self.class_of(nid):
                    self.merge(self.class_of(other), self.class_of(nid),
                               CONGRUENCE, edge=(other, nid))
                    changed = True
            self.hashcons = table
        # member lists: the canonical nodes, which the last pass found
        # congruent only within their class; table order is node-id order
        members: dict[int, list[int]] = {c: [] for c in self.classes}
        for nid in self.hashcons.values():
            members[self.class_of(nid)].append(nid)
        for cid, cls in self.classes.items():
            cls.node_ids = members[cid]
        analysis.refine_intervals(self)

    # -- queries ------------------------------------------------------------

    def canonical_classes(self) -> list[EClass]:
        return [self.classes[c] for c in sorted(self.classes)]

    def num_nodes(self) -> int:
        return len(self.hashcons)

    def num_classes(self) -> int:
        return len(self.classes)

    def class_nodes(self, cid: int) -> list[NodeRec]:
        return [self.nodes[i] for i in self.classes[self.find(cid)].node_ids]

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
        for cls in self.canonical_classes():
            nodes = []
            for nid in cls.node_ids:
                n = self.nodes[nid]
                nodes.append({
                    "op": n.op, "out": str(n.out),
                    "slots": [str(s) for s in n.slots],
                    "children": [self.find(c) for c in n.children],
                    "name": n.name, "value": n.value, "indices": n.indices,
                })
            entry = {"id": cls.id, "nodes": nodes,
                     "interval": [cls.interval.lo, cls.interval.hi]}
            if cls.id in color:
                entry["color"] = color[cls.id]
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
    cs, ns = g.add_term(spec.body)
    ci, ni = g.add_term(impl.body)
    g.roots = (cs, ci)
    g.root_nodes = (ns, ni)
    g.rebuild()
    return g


def saturate(g: EGraph, rules: Sequence, limits: dict | None = None,
             stop_on_merge: bool = True) -> SaturationReport:
    """Equality saturation: each iteration matches every rule against the
    pre-iteration graph, applies all matches constructively, runs the
    width-reduction analysis pass, then rebuilds.  The node and time budgets
    are checked before each application; one that is spent stops the
    applications, and the run ends after that iteration's width reduction
    and rebuild."""
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

    def over_budget() -> str | None:
        if g.num_nodes() > node_limit:
            return "node-limit"
        if time.monotonic() - start > time_limit:
            return "timeout"
        return None

    reason = "iter-limit"
    for it in range(iter_limit):
        spent = over_budget()
        if spent:
            reason = spent
            break
        before = (g.num_nodes(), g.num_classes(), g.unions)
        t0 = time.perf_counter()
        matches = []
        for r in rules:
            matches.extend(r.matches(g))
        t1 = time.perf_counter()
        redundant = 0
        for m in matches:
            spent = over_budget()
            if spent:
                break  # finish the iteration, so the graph is congruent
            if not m.apply(g):
                redundant += 1
        t2 = time.perf_counter()
        analysis.width_reduction_pass(g)
        t3 = time.perf_counter()
        g.rebuild()
        report.per_iteration.append(IterationStats(
            len(matches), redundant, t1 - t0, t2 - t1, t3 - t2,
            time.perf_counter() - t3))
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
    else:
        reason = "iter-limit"
    report.stop_reason = reason
    report.roots_merged = g.roots is not None and g.roots_merged()
    return report
