"""Extraction of maximally-shared design pairs from the two-rooted e-graph.

The objective follows the class-sharing formulation: selecting a node whose
class is shared between the spec and impl cones earns K = |C|; every other
selected node costs 1.  Constraints: at most one node per class, children of
selected nodes selected, both roots selected, no unused selections, and the
selected child relation acyclic.  Solved by a self-contained branch-and-bound
whose bound counts the shared classes still to come by the fewer of two
per-class facts over the undecided needed classes: the open shared classes
they reach, and the sum of their tree bounds.  A greedy bottom-up extraction
provides the incumbent and the fallback.  export_lp() writes the same
program in LP format for an external solver.  Both read one Model, built by
build_model(): one candidate node per class and set of child classes, the
classes where a cycle can form (where alone acyclicity is enforced), each
class's reach mask and its tree bound.  With both bounds, the search proves
fir8's optimum in 24,679 nodes and vbsme8's in 441, where reach alone took
107,682 and 217,842; a transposition table of finished subproblems takes
fir8's down to 1,099.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass

from .egraph import EGraph, EGraphError
from .ir import Term


class ExtractionError(Exception):
    pass


@dataclass(frozen=True)
class SharedSets:
    c_spec: frozenset[int]
    c_impl: frozenset[int]
    c_shared: frozenset[int]
    K: int


@dataclass
class ExtractionResult:
    s_star: Term
    i_star: Term
    objective: int
    shared_node_count: int
    method: str                       # "ilp" or "greedy"
    selection: dict[int, int]         # canonical class id -> node id
    timed_out: bool = False
    visits: int = 0                   # branch-and-bound nodes visited
    bound: int | None = None          # the root's upper bound on objective
    entries: int = 0                  # transposition-table entries kept


def reachable(g: EGraph, root: int) -> frozenset[int]:
    """Least child-closure of canonical class ids from a root class."""
    seen: set[int] = set()
    stack = [g.find(root)]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        for nid in g.classes[c].node_ids:
            for ch in g.nodes[nid].children:
                stack.append(g.find(ch))
    return frozenset(seen)


def shared(g: EGraph) -> SharedSets:
    c_spec = reachable(g, g.roots[0])
    c_impl = reachable(g, g.roots[1])
    return SharedSets(c_spec, c_impl, c_spec & c_impl, g.num_classes())


def _result_from_selection(g: EGraph, sh: SharedSets, sel: dict[int, int],
                           method: str, timed_out: bool = False
                           ) -> ExtractionResult:
    roots = [g.find(r) for r in g.roots]
    memo: dict[int, Term] = {}
    try:
        s_star, i_star = (g.term(sel[r], sel, memo) for r in roots)
    except EGraphError as e:
        raise ExtractionError(str(e)) from None
    used = set(memo) | set(roots)  # classes actually used by either design
    sel = {c: n for c, n in sel.items() if c in used}
    shared_n = sum(1 for c in sel if c in sh.c_shared)
    obj = sh.K * shared_n - (len(sel) - shared_n)
    return ExtractionResult(s_star, i_star, obj, shared_n, method, sel,
                            timed_out)


# ---------------------------------------------------------------------------
# Greedy extraction
# ---------------------------------------------------------------------------

def pick_nodes(g: EGraph, free: frozenset[int] = frozenset()
               ) -> dict[int, int]:
    """Per canonical class, the node heading its cheapest finite term, by
    bottom-up fixpoint: cost(n) = w(class) + sum of the best child-class
    costs, with w = 0 for classes in `free` and 1 otherwise (so with no free
    classes the cost is the term size).  Ties go to the smaller term, then
    the smaller node id.  Cycle members are never picked while an acyclic
    alternative exists; a class with no finite term is left out."""
    INF = (float("inf"), float("inf"))
    cost: dict[int, tuple] = {c: INF for c in g.classes}
    pick: dict[int, int] = {}
    changed = True
    while changed:
        changed = False
        for cid in sorted(g.classes):
            w0 = 0 if cid in free else 1
            for nid in g.classes[cid].node_ids:
                n = g.nodes[nid]
                c, s = float(w0), 1.0
                ok = True
                for ch in n.children:
                    cc, cs = cost[g.find(ch)]
                    if cc == float("inf"):
                        ok = False
                        break
                    c += cc
                    s += cs
                if not ok:
                    continue
                cur = cost[cid]
                key = (c, s)
                if key < cur or (key == cur and nid < pick.get(cid, 1 << 60)):
                    if cost[cid] != key or pick.get(cid) != nid:
                        cost[cid], pick[cid] = key, nid
                        changed = True
    return pick


def extract_greedy(g: EGraph, sh: SharedSets | None = None) -> ExtractionResult:
    """Greedy extraction: `pick_nodes` with the shared classes free.
    Tree-style cost addition deliberately double-counts common
    subexpressions — that is the known limitation this greedy has."""
    if sh is None:
        sh = shared(g)
    pick = pick_nodes(g, sh.c_shared)
    for r in g.roots:
        if g.find(r) not in pick:
            raise ExtractionError("no finite representative for a root class")
    return _result_from_selection(g, sh, pick, "greedy")


# ---------------------------------------------------------------------------
# The extraction model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    """The sharing program of one graph, read by both branch-and-bound and
    the LP export.  All class ids are canonical."""
    universe: list[int]              # classes reachable from either root
    roots: list[int]
    weight: dict[int, int]           # K for a shared class, -1 otherwise
    kids: dict[int, list[int]]       # candidate node -> sorted child classes
    cand: dict[int, list[int]]       # class -> candidates, fewest children
                                     # first (cheap incumbents early), then
                                     # by node id; one per child-class set
    cyclic: frozenset[int]           # classes on a cycle of candidate edges
    reach: dict[int, int]            # class -> bitmask of itself and every
                                     # class below it through any candidate;
                                     # bit i stands for universe[i]
    most: dict[int, int]             # class -> upper bound on the shared
                                     # classes of any acyclic selection
                                     # under it, itself included


def build_model(g: EGraph, sh: SharedSets) -> Model:
    """The model of g.  A node whose children include its own class can
    never be selected (it would close a cycle), so it is not a candidate.
    Nodes of one class with the same set of child classes (they differ only
    in annotations or in child order or multiplicity) add the same weight
    and the same edges, so only the first of them is a candidate."""
    universe = sorted(sh.c_spec | sh.c_impl)
    cand: dict[int, list[int]] = {}
    kids: dict[int, list[int]] = {}
    for c in universe:
        cand[c] = []
        seen: set[tuple[int, ...]] = set()
        for nid in sorted(g.classes[c].node_ids,
                          key=lambda nid: (len(g.nodes[nid].children), nid)):
            ks = sorted({g.find(ch) for ch in g.nodes[nid].children})
            if c not in ks and tuple(ks) not in seen:
                seen.add(tuple(ks))
                cand[c].append(nid)
                kids[nid] = ks
    cyclic, reach, most = _condense(universe, cand, kids, sh.c_shared)
    return Model(universe, sorted({g.find(r) for r in g.roots}),
                 {c: sh.K if c in sh.c_shared else -1 for c in universe},
                 kids, cand, cyclic, reach, most)


def _condense(universe: list[int], cand: dict[int, list[int]],
              kids: dict[int, list[int]], shared_classes: frozenset[int]
              ) -> tuple[frozenset[int], dict[int, int], dict[int, int]]:
    """The classes of every strongly connected component of more than one
    class, where class c has an edge to each child class of its candidates,
    and the reach mask and tree bound of every class (Tarjan's algorithm,
    iterative: class graphs can be deep).  Tarjan closes each component
    after every component below it, so its mask is the union of its
    members' bits and its successors' masks, one mask shared by all its
    members.  The tree bound `most` caps the shared classes of a selection
    under a class at the shared classes it reaches; off a cycle, it is also
    at most the class itself plus, for its best candidate, the sum of its
    children's bounds, since a sub-DAG holds no more classes than its
    tree."""
    bit = {c: 1 << i for i, c in enumerate(universe)}
    shared_bits = sum(bit[c] for c in shared_classes)
    succ = {c: {k for n in cand[c] for k in kids[n]} for c in universe}
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    cyclic: set[int] = set()
    reach: dict[int, int] = {}
    most: dict[int, int] = {}
    work: list[tuple[int, object]] = []  # (class, its unexplored edges)

    def visit(c: int) -> None:
        index[c] = low[c] = len(index)
        stack.append(c)
        on_stack.add(c)
        work.append((c, iter(succ[c])))

    for root in universe:
        if root in index:
            continue
        visit(root)
        while work:
            c, edges = work[-1]
            for k in edges:
                if k not in index:
                    visit(k)
                    break
                if k in on_stack:
                    low[c] = min(low[c], index[k])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[c])
                if low[c] == index[c]:
                    scc = [stack.pop()]
                    while scc[-1] != c:
                        scc.append(stack.pop())
                    on_stack.difference_update(scc)
                    if len(scc) > 1:
                        cyclic.update(scc)
                    mask = 0
                    for s in scc:  # no mask yet for members: get() is 0
                        mask |= bit[s]
                        for k in succ[s]:
                            mask |= reach.get(k, 0)
                    most_c = (mask & shared_bits).bit_count()
                    if len(scc) == 1:  # c alone, on no cycle
                        most_c = min(most_c, (c in shared_classes) + max(
                            (sum(most[k] for k in kids[n]) for n in cand[c]),
                            default=0))
                    for s in scc:
                        reach[s] = mask
                        most[s] = most_c
    return frozenset(cyclic), reach, most


# ---------------------------------------------------------------------------
# ILP via branch-and-bound
# ---------------------------------------------------------------------------

# The transposition table's budget, in key bits: each entry is charged two
# masks over the universe and a word per class on a cycle, so a universe of
# 13k classes keeps about 1,300 entries (some 4 MB) and fir8's 52 keep 300k.
_TABLE_BITS = 1 << 25


def extract_ilp(g: EGraph, sh: SharedSets | None = None,
                timeout: float = 10.0) -> ExtractionResult:
    """Exact solution of the sharing ILP by depth-first branch-and-bound over
    per-class node choices.  Every later selection lies under an undecided
    needed class, so the bound adds K times the fewer of two counts of the
    shared classes still to come: the unselected ones that an undecided
    needed class reaches, and the sum of those classes' tree bounds
    (`Model.most`).  It adds -1 for each undecided needed class that is not
    shared.  A tighter bound prunes more but returns the same selection:
    every ancestor of the first optimum in depth-first order still bounds
    at least its objective.  Acyclicity is checked on the fly, and only for
    classes on a cycle of the model: elsewhere no choice can close one.

    A transposition table remembers finished subproblems.  What a subtree
    can still gain is fixed by its state: the undecided needed classes, the
    selected classes inside their reach, and the chosen node of each of
    those on a cycle (the acyclicity check walks those choices).  A subtree
    that finishes within the deadline leaves no completion above the
    incumbent, so `best_obj - obj` caps the gain of its state; a later
    visit of that state is pruned when `obj + cap` cannot beat the
    incumbent, by the bound's own tie rule, so the first optimum in
    depth-first order is never cut and the selection is the one the search
    returns without the table.  The table holds what `_TABLE_BITS` allows
    and, when full, drops the entry least recently stored.  It takes fir8's
    proof from 24,679 visits to 1,099 and leaves vbsme8's at 441."""
    if sh is None:
        sh = shared(g)
    K = sh.K
    deadline = time.monotonic() + timeout

    incumbent = extract_greedy(g, sh)
    best_obj = incumbent.objective
    best_sel: dict[int, int] | None = None
    timed_out = False
    m = build_model(g, sh)
    bit = {c: 1 << i for i, c in enumerate(m.universe)}
    shared_bits = sum(bit[c] for c in sh.c_shared)
    cyclic_bits = sum(bit[c] for c in m.cyclic)

    sel: dict[int, int] = {}
    sel_bits = 0  # the classes in sel

    def reaches(src: int, dst: int) -> bool:
        stack, seen = [src], set()
        while stack:
            c = stack.pop()
            if c == dst:
                return True
            if c in seen:
                continue
            seen.add(c)
            if c in sel:
                stack.extend(m.kids[sel[c]])
        return False

    def bound(obj: int, need: list[int]) -> tuple[int, int, int]:
        """The bound, the undecided needed classes and their reach."""
        below, most, private, undecided = 0, 0, 0, 0
        for c in set(need):
            if c not in sel:
                below |= m.reach[c]
                most += m.most[c]
                private += c not in sh.c_shared
                undecided |= bit[c]
        reached = (below & shared_bits & ~sel_bits).bit_count()
        return obj + K * min(most, reached) - private, undecided, below

    def beaten(b: int) -> bool:
        """Whether no completion worth at most b can replace the best."""
        return b < best_obj or (b == best_obj and best_sel is not None)

    table: OrderedDict[tuple, int] = OrderedDict()  # state -> gain cap
    room = _TABLE_BITS // (2 * len(m.universe) + 64 * len(m.cyclic))

    def state(undecided: int, below: int) -> tuple:
        """The table's key for the current subproblem."""
        chosen = []
        cyc = sel_bits & below & cyclic_bits
        while cyc:
            low = cyc & -cyc
            chosen.append(sel[m.universe[low.bit_length() - 1]])
            cyc ^= low
        return undecided, sel_bits & below, tuple(chosen)

    visits = 0

    def dfs(need: list[int], obj: int):
        nonlocal best_obj, best_sel, timed_out, sel_bits, visits
        visits += 1
        if time.monotonic() > deadline:
            timed_out = True
            return
        if not need:
            if obj > best_obj or (obj == best_obj and best_sel is None):
                best_obj = obj
                best_sel = dict(sel)
            return
        b, undecided, below = bound(obj, need)
        if beaten(b):
            return
        c = need[-1]
        rest = need[:-1]
        if c in sel:
            dfs(rest, obj)
            return
        key = cap = None
        if room:
            key = state(undecided, below)
            cap = table.get(key)
            if cap is not None and beaten(obj + cap):
                return
        on_cycle = c in m.cyclic
        for nid in m.cand[c]:
            kids = m.kids[nid]
            if on_cycle and any(reaches(k, c) for k in kids):
                continue  # would close a cycle in the selected child relation
            sel[c] = nid
            sel_bits |= bit[c]
            new = [k for k in kids if k not in sel]
            dfs(rest + new, obj + m.weight[c])
            del sel[c]
            sel_bits ^= bit[c]
            if timed_out:
                return
        if key is not None:
            gain = best_obj - obj
            if cap is not None:
                gain = min(cap, gain)
                table.pop(key, None)  # evicted meanwhile, or moved to the end
            if len(table) >= room:
                table.popitem(last=False)
            table[key] = gain

    root_bound = bound(0, m.roots)[0]
    dfs(list(m.roots), 0)

    if best_sel is None:
        # no complete solution found in time: greedy incumbent, flagged
        res = incumbent
        res.timed_out = timed_out
    else:
        res = _result_from_selection(g, sh, best_sel, "ilp", timed_out)
    res.visits = visits
    res.bound = root_bound
    res.entries = len(table)
    return res


# ---------------------------------------------------------------------------
# LP-format export (optional external-solver interface)
# ---------------------------------------------------------------------------

def export_lp(g: EGraph, sh: SharedSets | None = None) -> str:
    """The extraction ILP in CPLEX LP format: a binary x_<class>_<node> per
    candidate and, for classes on a cycle only, an integer order variable
    t_<class> with big-M = the number of such classes."""
    if sh is None:
        sh = shared(g)
    m = build_model(g, sh)

    def x(c: int, n: int) -> str:
        return f"x_{c}_{n}"

    def one_of(c: int) -> str:
        return " + ".join(x(c, n) for n in m.cand[c])

    xs = [(c, n) for c in m.universe for n in m.cand[c]]
    obj = " ".join(f"{'+' if m.weight[c] >= 0 else '-'} {abs(m.weight[c])} "
                   f"{x(c, n)}" for c, n in xs)
    rows = [f"{one_of(r)} = 1" for r in m.roots]  # both roots implemented
    rows += [f"{one_of(c)} <= 1" for c in m.universe if c not in m.roots]
    parents: dict[int, list[str]] = {c: [] for c in m.universe}
    for c, n in xs:  # children of a selected node selected
        for ch in m.kids[n]:
            rows.append(f"{one_of(ch)} - {x(c, n)} >= 0")
            parents[ch].append(x(c, n))
    for c, n in xs:  # no unused selections
        if c not in m.roots:
            rows.append(f"{' + '.join(parents[c]) or '0 x_none'} - "
                        f"{x(c, n)} >= 0")
    order = sorted(m.cyclic)
    M = len(order)
    for c, n in xs:  # acyclicity: t_child + 1 <= t_c + M (1 - x_cn)
        if c in m.cyclic:
            rows += [f"t_{ch} - t_{c} + {M} {x(c, n)} <= {M - 1}"
                     for ch in m.kids[n] if ch in m.cyclic]
    lines = ["Maximize", " obj: " + obj, "Subject To"]
    lines += [f" c{i}: {row}" for i, row in enumerate(rows)]
    if order:
        lines += ["Bounds"] + [f" 0 <= t_{c} <= {M - 1}" for c in order]
        lines += ["General", " " + " ".join(f"t_{c}" for c in order)]
    lines += ["Binary", " " + " ".join(x(c, n) for c, n in xs), "End"]
    return "\n".join(lines) + "\n"
