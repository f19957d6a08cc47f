"""Extraction of maximally-shared design pairs from the two-rooted e-graph.

The objective follows the class-sharing formulation: selecting a node whose
class is shared between the spec and impl cones earns K = |C|; every other
selected node costs 1.  Constraints: at most one node per class, children of
selected nodes selected, both roots selected, no unused selections, and the
selected child relation acyclic.  Solved by a self-contained branch-and-bound
(instances are small); a greedy bottom-up extraction provides the incumbent
and the fallback.  export_lp() writes the same program in LP format for an
external solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
# ILP via branch-and-bound
# ---------------------------------------------------------------------------

def extract_ilp(g: EGraph, sh: SharedSets | None = None,
                timeout: float = 10.0) -> ExtractionResult:
    """Exact solution of the sharing ILP by depth-first branch-and-bound over
    per-class node choices, with on-the-fly acyclicity and an optimistic
    bound of K per still-undecided shared class."""
    if sh is None:
        sh = shared(g)
    universe = sorted(sh.c_spec | sh.c_impl)
    K = sh.K
    roots = sorted({g.find(g.roots[0]), g.find(g.roots[1])})
    deadline = time.monotonic() + timeout

    incumbent = extract_greedy(g, sh)
    best_obj = incumbent.objective
    best_sel: dict[int, int] | None = None
    timed_out = False

    # candidate nodes per class, cheapest-greedy first for fast incumbents
    cand = {c: sorted(g.classes[c].node_ids,
                      key=lambda nid: (len(g.nodes[nid].children), nid))
            for c in universe}
    kids_of = {nid: sorted({g.find(ch) for ch in g.nodes[nid].children})
               for c in universe for nid in cand[c]}
    obj_of = {c: (K if c in sh.c_shared else -1) for c in universe}

    sel: dict[int, int] = {}

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
                stack.extend(kids_of[sel[c]])
        return False

    def bound(obj: int, need: list[int]) -> int:
        b = obj
        needset = set(need)
        for c in universe:
            if c in sel:
                continue
            if c in sh.c_shared:
                b += K
            elif c in needset:
                b -= 1
        return b

    def dfs(need: list[int], obj: int):
        nonlocal best_obj, best_sel, timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return
        if not need:
            if obj > best_obj or (obj == best_obj and best_sel is None):
                best_obj = obj
                best_sel = dict(sel)
            return
        b = bound(obj, need)
        if b < best_obj or (b == best_obj and best_sel is not None):
            return
        c = need[-1]
        rest = need[:-1]
        if c in sel:
            dfs(rest, obj)
            return
        for nid in cand[c]:
            kids = kids_of[nid]
            if any(reaches(k, c) for k in kids):
                continue  # would close a cycle in the selected child relation
            sel[c] = nid
            new = [k for k in kids if k not in sel]
            dfs(rest + new, obj + obj_of[c])
            del sel[c]
            if timed_out:
                return

    dfs(list(roots), 0)

    if best_sel is None:
        # no complete solution found in time: greedy incumbent, flagged
        incumbent.method = "greedy"
        incumbent.timed_out = timed_out
        return incumbent
    res = _result_from_selection(g, sh, best_sel, "ilp", timed_out)
    return res


def enumerate_optimum(g: EGraph, sh: SharedSets | None = None) -> int:
    """Brute-force optimum of the sharing objective (small graphs only);
    the test oracle for ILP optimality."""
    if sh is None:
        sh = shared(g)
    universe = sorted(sh.c_spec | sh.c_impl)
    if len(universe) > 14:
        raise ExtractionError("graph too large for exhaustive enumeration")
    roots = sorted({g.find(g.roots[0]), g.find(g.roots[1])})
    best = None
    choices = [[None] + list(g.classes[c].node_ids) for c in universe]

    def valid_and_score(assign: dict[int, int | None]) -> int | None:
        seln = {c: n for c, n in assign.items() if n is not None}
        for r in roots:
            if r not in seln:
                return None
        # children selected; acyclic; no unused
        for c, nid in seln.items():
            for ch in g.nodes[nid].children:
                if g.find(ch) not in seln:
                    return None
        used: set[int] = set()
        stack = list(roots)
        while stack:
            c = stack.pop()
            if c in used:
                continue
            used.add(c)
            stack.extend(g.find(ch) for ch in g.nodes[seln[c]].children)
        if used != set(seln):
            return None  # unused selection
        # acyclicity among used classes
        state: dict[int, int] = {}

        def cyc(c: int) -> bool:
            if state.get(c) == 2:
                return False
            if state.get(c) == 1:
                return True
            state[c] = 1
            for ch in g.nodes[seln[c]].children:
                if cyc(g.find(ch)):
                    return True
            state[c] = 2
            return False

        if any(cyc(r) for r in roots):
            return None
        shared_n = sum(1 for c in seln if c in sh.c_shared)
        return sh.K * shared_n - (len(seln) - shared_n)

    import itertools
    for combo in itertools.product(*choices):
        score = valid_and_score(dict(zip(universe, combo)))
        if score is not None and (best is None or score > best):
            best = score
    if best is None:
        raise ExtractionError("no valid selection exists")
    return best


# ---------------------------------------------------------------------------
# LP-format export (optional external-solver interface)
# ---------------------------------------------------------------------------

def export_lp(g: EGraph, sh: SharedSets | None = None) -> str:
    """The extraction ILP in CPLEX LP format: binary x_<class>_<node> per
    candidate, integer order variable t_<class> per class, big-M = |C|."""
    if sh is None:
        sh = shared(g)
    universe = sorted(sh.c_spec | sh.c_impl)
    K = sh.K
    M = g.num_classes()
    roots = sorted({g.find(g.roots[0]), g.find(g.roots[1])})

    def x(c, n):
        return f"x_{c}_{n}"

    obj_terms = []
    for c in universe:
        w = K if c in sh.c_shared else -1
        for nid in g.classes[c].node_ids:
            obj_terms.append(f"{'+' if w >= 0 else '-'} {abs(w)} {x(c, nid)}")
    lines = ["Maximize", " obj: " + " ".join(obj_terms), "Subject To"]
    idx = 0

    def con(expr: str):
        nonlocal idx
        lines.append(f" c{idx}: {expr}")
        idx += 1

    for r in roots:  # Eq: both roots implemented
        con(" + ".join(x(r, n) for n in g.classes[r].node_ids) + " = 1")
    for c in universe:  # at most one node per class
        if c not in roots:
            con(" + ".join(x(c, n) for n in g.classes[c].node_ids) + " <= 1")
    for c in universe:
        for nid in g.classes[c].node_ids:
            kids = {g.find(ch) for ch in g.nodes[nid].children}
            for ch in sorted(kids):  # children of a selected node selected
                con(" + ".join(x(ch, m) for m in g.classes[ch].node_ids)
                    + f" - {x(c, nid)} >= 0")
    parents: dict[int, list[tuple[int, int]]] = {c: [] for c in universe}
    for c in universe:
        for nid in g.classes[c].node_ids:
            for ch in {g.find(k) for k in g.nodes[nid].children}:
                if ch in parents:
                    parents[ch].append((c, nid))
    for c in universe:  # no unused selections
        if c in roots:
            continue
        rhs = " + ".join(x(p, n) for p, n in parents[c]) or "0 x_none"
        for nid in g.classes[c].node_ids:
            con(f"{rhs} - {x(c, nid)} >= 0")
    for c in universe:  # acyclicity: t_child + 1 <= t_c + M (1 - x_cn)
        for nid in g.classes[c].node_ids:
            for ch in sorted({g.find(k) for k in g.nodes[nid].children}):
                con(f"t_{ch} - t_{c} + {M} {x(c, nid)} <= {M - 1}")
    lines.append("Bounds")
    for c in universe:
        lines.append(f" 0 <= t_{c} <= {M - 1}")
    lines.append("General")
    lines.append(" " + " ".join(f"t_{c}" for c in universe))
    lines.append("Binary")
    names = [x(c, n) for c in universe for n in g.classes[c].node_ids]
    lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"
