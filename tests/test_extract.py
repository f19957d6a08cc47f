import random
import re

import numpy as np
import pytest

from wordec.egraph import CONGRUENCE, EGraph, NodeRec, init_pair, saturate
from wordec.extract import (ExtractionError, SharedSets,
                            _result_from_selection, build_model, export_lp,
                            extract_greedy, extract_ilp, reachable, shared)
from wordec.fixtures import load_pair, names
from wordec.ir import Annotation, Term, evaluate
from wordec.oracle import OracleConfig, check_equiv
from wordec.frontend import Design
from wordec.rewrites import baseline_rules

U4 = Annotation(4)


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


def _leaf(g, name):
    return g.add(NodeRec("var", U4, (), (), name=name))


def _node(g, children):
    if len(children) == 1:
        return g.add(NodeRec("neg", U4, (U4,), tuple(children)))
    return g.add(NodeRec("+", U4, (U4, U4), tuple(children)))


def random_egraph(seed: int) -> EGraph:
    """Random acyclic two-rooted e-graph (structure only; not semantically
    meaningful) for extraction-optimality testing."""
    rng = random.Random(seed)
    g = EGraph()
    nleaves = rng.randint(2, 4)
    classes = [_leaf(g, f"v{i}")[0] for i in range(nleaves)]
    nclasses = rng.randint(nleaves + 2, 12)
    while len(classes) < nclasses:
        k = rng.randint(1, 2)
        kids = [rng.choice(classes) for _ in range(k)]
        cid, nid = _node(g, kids)
        if cid in classes:
            continue
        classes.append(cid)
        # maybe give the class alternative nodes (still acyclic: children
        # drawn from strictly earlier classes)
        for _ in range(rng.randint(0, 2)):
            kids2 = [rng.choice(classes[:-1])
                     for _ in range(rng.randint(1, 2))]
            c2, n2 = _node(g, kids2)
            if g.find(c2) == g.find(cid) or c2 in classes:
                continue
            g.union(nid, n2, CONGRUENCE)
    g.rebuild()
    live = [c for c in classes if g.find(c) == c]
    g.roots = (rng.choice(live), rng.choice(live))
    return g


def random_cyclic_egraph(seed: int) -> EGraph:
    """A random_egraph plus one to three merges, each putting a new node
    over a class into one of that class's child classes, so that it closes
    a cycle of two or more classes; the spec root heads the last cycle."""
    rng = random.Random(-1 - seed)
    g = random_egraph(seed)
    want, tries = rng.randint(1, 3), 0
    while want and tries < 20:
        tries += 1
        edges = sorted({(c, g.find(ch)) for c in g.classes
                        for nid in g.classes[c].node_ids
                        for ch in g.nodes[nid].children} - {
                            (c, c) for c in g.classes})
        top, below = rng.choice(edges)
        size = len(g.nodes)
        cid, nid = _node(g, [top] * rng.randint(1, 2))
        if len(g.nodes) == size:
            continue  # the node exists already: no new edge
        g.union(g.classes[below].node_ids[0], nid, CONGRUENCE)
        g.rebuild()
        g.roots = (g.find(top), g.find(g.roots[1]))
        want -= 1
    return g


def with_twins(g: EGraph, seed: int) -> EGraph:
    """g plus, in up to three classes, a twin of one of its nodes: the same
    child classes under another annotation, child order or multiplicity, so
    that the model keeps only the first of the two.  The roots are redrawn
    so that both designs share some classes but not all."""
    rng = random.Random(1000 + seed)
    nodes = [(nid, g.nodes[nid]) for c in sorted(g.classes)
             for nid in g.classes[c].node_ids if g.nodes[nid].children]
    for nid, n in rng.sample(nodes, min(3, len(nodes))):
        kids = list(n.children)
        if len(kids) == 2 and rng.random() < 0.5:
            kids.reverse()
        elif len(kids) == 1:
            kids *= 2  # + [a, a] twins neg [a]
        out = rng.choice((U4, Annotation(5)))
        size = len(g.nodes)
        _, twin = g.add(NodeRec("+" if len(kids) == 2 else "neg", out,
                                (U4,) * len(kids), tuple(kids)))
        if len(g.nodes) > size:  # a new node: no classes merge
            g.union(nid, twin, CONGRUENCE)
    g.rebuild()
    top = sorted(g.classes)[len(g.classes) // 2:]
    for _ in range(20):
        g.roots = (rng.choice(top), rng.choice(top))
        sh = shared(g)
        if sh.c_shared and sh.c_shared != sh.c_spec | sh.c_impl:
            break
    return g


def diamond_egraph() -> EGraph:
    """Both roots can reach a shared subtree only through a detour that the
    greedy bottom-up cost treats as more expensive than a private path."""
    g = EGraph()
    s0, _ = _leaf(g, "s0")
    s1, _ = _leaf(g, "s1")
    p, _ = _node(g, [s0, s1])                  # the shared prize
    m2, _ = _node(g, [p])
    m1, _ = _node(g, [m2])
    lx, _ = _leaf(g, "x")
    x, _ = _node(g, [lx])
    r_good, nrg = _node(g, [m1])
    r_cheap, nrc = _node(g, [x])
    g.union(nrg, nrc, CONGRUENCE)
    n2, _ = _node(g, [p, p])                   # impl-side detour
    n1, _ = _node(g, [n2])
    ly, _ = _leaf(g, "y")
    y, _ = _node(g, [ly])
    i_good, nig = _node(g, [n1])
    i_cheap, nic = _node(g, [y])
    g.union(nig, nic, CONGRUENCE)
    g.rebuild()
    g.roots = (g.find(r_good), g.find(i_good))
    return g


class TestReachableShared:
    def test_leaf_only(self):
        g = EGraph()
        c, _ = _leaf(g, "a")
        g.rebuild()
        g.roots = (c, c)
        assert reachable(g, c) == frozenset({c})

    def test_fig1_full_merge_means_all_shared(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        sh = shared(g)
        assert g.roots_merged()
        assert reachable(g, g.roots[0]) == reachable(g, g.roots[1])
        assert sh.c_shared == sh.c_spec == sh.c_impl


class TestIlpOptimality:
    def test_matches_enumeration_on_random_graphs(self):
        for seed in range(20):
            g = random_egraph(seed)
            res = extract_ilp(g, timeout=30.0)
            assert not res.timed_out
            assert res.objective == enumerate_optimum(g), seed

    def test_matches_enumeration_on_random_cyclic_graphs(self):
        for seed in range(40):
            g = random_cyclic_egraph(seed)
            assert build_model(g, shared(g)).cyclic, seed
            res = extract_ilp(g, timeout=30.0)
            assert not res.timed_out
            assert res.objective == enumerate_optimum(g), seed

    def test_matches_enumeration_with_twins_and_private_classes(self):
        dropped = mixed = 0
        for seed in range(40):
            base = random_egraph if seed % 2 else random_cyclic_egraph
            g = with_twins(base(seed // 2), seed)
            sh = shared(g)
            m = build_model(g, sh)
            dropped += sum(len(g.classes[c].node_ids)
                           for c in m.universe) - len(m.kids)
            mixed += bool(sh.c_shared) and sh.c_shared != set(m.universe)
            res = extract_ilp(g, timeout=30.0)
            assert not res.timed_out
            assert res.objective == enumerate_optimum(g, sh), seed
        assert dropped >= 40 and mixed >= 20, (dropped, mixed)

    def test_greedy_dominated_by_ilp(self):
        strict = False
        for seed in range(20):
            g = random_egraph(seed)
            gr = extract_greedy(g)
            il = extract_ilp(g, timeout=30.0)
            assert gr.shared_node_count <= il.shared_node_count, seed
            assert gr.objective <= il.objective, seed

    def test_diamond_strictly_better_for_ilp(self):
        g = diamond_egraph()
        gr = extract_greedy(g)
        il = extract_ilp(g, timeout=30.0)
        assert il.objective == enumerate_optimum(g)
        assert gr.shared_node_count < il.shared_node_count
        assert gr.objective < il.objective


class TestExtractedDesigns:
    def test_roots_merged_gives_identical_pair(self):
        spec, impl = load_pair("fig1-scaled")
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        res = extract_ilp(g, timeout=20.0)
        assert res.s_star == res.i_star

    def test_equivalent_to_originals(self):
        for name in ("fig1-scaled", "adpcm", "boxfilter", "fig4"):
            spec, impl = load_pair(name)
            g = init_pair(spec, impl)
            saturate(g, baseline_rules())
            res = extract_ilp(g, timeout=20.0)
            cfg = OracleConfig(max_exhaustive_bits=16)
            for orig, star in ((spec, res.s_star), (impl, res.i_star)):
                d = Design("star", orig.inputs, (orig.output[0], star.out),
                           star)
                assert check_equiv(orig, d, cfg).status == "pass", name

    def test_greedy_on_merged_graph_valid(self):
        spec, impl = load_pair("adpcm")
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        res = extract_greedy(g)
        env = {"x": 11}
        assert evaluate(res.s_star, env) == evaluate(spec.body, env)


class TestFixtureOptimum:
    @pytest.mark.parametrize("name, fmt, objective", [
        ("fir8", "ir", 1820), ("fir8", "sv", 1820),
        ("vbsme8", "ir", 15006), ("vbsme8", "sv", 15006)])
    def test_branch_and_bound_finishes(self, name, fmt, objective):
        g = init_pair(*load_pair(name, fmt))
        saturate(g, baseline_rules())
        res = extract_ilp(g, timeout=60.0)
        assert not res.timed_out and res.method == "ilp"
        assert res.objective == objective


class TestRealization:
    def test_cyclic_selection_rejected(self):
        # class {x, neg(x)}: selecting neg for it realises an infinite term
        g = EGraph()
        x, nx = _leaf(g, "x")
        n, nn = _node(g, [x])
        g.union(nx, nn, CONGRUENCE)
        g.rebuild()
        c = g.find(x)
        g.roots = (c, c)
        assert _result_from_selection(g, shared(g), {c: nx}, "ilp").s_star \
            == Term("var", U4, name="x")
        with pytest.raises(ExtractionError):
            _result_from_selection(g, shared(g), {c: nn}, "ilp")


class TestModel:
    def test_self_loop_node_is_no_candidate(self):
        g = EGraph()
        x, nx = _leaf(g, "x")
        n, nn = _node(g, [x])
        g.union(nx, nn, CONGRUENCE)
        g.rebuild()
        c = g.find(x)
        g.roots = (c, c)
        m = build_model(g, shared(g))
        assert m.cand == {c: [nx]} and m.cyclic == frozenset()

    def test_cycle_classes(self):
        # a = neg(b), b = {y, neg(a)}: a and b form a cycle, y does not
        g = EGraph()
        y, ny = _leaf(g, "y")
        b, _ = _node(g, [y])
        a, _ = _node(g, [b])
        nb, nnb = _node(g, [a])
        g.union(g.classes[b].node_ids[0], nnb, CONGRUENCE)
        g.rebuild()
        g.roots = (g.find(a), g.find(a))
        m = build_model(g, shared(g))
        assert m.cyclic == {g.find(a), g.find(b)}
        assert g.find(y) not in m.cyclic


    def test_one_candidate_per_child_class_set(self):
        # class r: neg(a), then a + b, b + a, a + b at width 5 and a + a;
        # only neg(a) and the first a + b have a child-class set of their own
        g = EGraph()
        a, _ = _leaf(g, "a")
        b, _ = _leaf(g, "b")
        r, n_neg = _node(g, [a])
        n_ab = _node(g, [a, b])[1]
        n_ba = _node(g, [b, a])[1]
        n_ab5 = g.add(NodeRec("+", Annotation(5), (U4, U4), (a, b)))[1]
        n_aa = _node(g, [a, a])[1]
        for n in (n_ab, n_ba, n_ab5, n_aa):
            g.union(n_neg, n, CONGRUENCE)
        g.rebuild()
        g.roots = (g.find(r), g.find(r))
        m = build_model(g, shared(g))
        assert m.cand[g.find(r)] == [n_neg, n_ab]
        assert m.kids[n_ab] == sorted([a, b])
        assert not {n_ba, n_ab5, n_aa} & set(m.kids)

    def test_fixture_candidates_are_first_of_their_child_class_set(self):
        g = init_pair(*load_pair("fir8"))
        saturate(g, baseline_rules())
        m = build_model(g, shared(g))

        def order(n):
            return len(g.nodes[n].children), n

        def kid_set(n):
            return frozenset(g.find(ch) for ch in g.nodes[n].children)

        dropped = 0
        for c in m.universe:
            assert m.cand[c] == sorted(m.cand[c], key=order)
            kept = {kid_set(n): n for n in m.cand[c]}
            assert len(kept) == len(m.cand[c])
            for n in g.classes[c].node_ids:
                if n in m.cand[c] or c in kid_set(n):
                    continue
                dropped += 1
                assert order(kept[kid_set(n)]) < order(n)
        assert dropped > 0

    def test_reach_is_candidate_closure(self):
        for seed in range(20):
            for g in (random_egraph(seed), random_cyclic_egraph(seed),
                      with_twins(random_cyclic_egraph(seed), seed)):
                m = build_model(g, shared(g))
                pos = {c: i for i, c in enumerate(m.universe)}
                for c in m.universe:
                    seen, stack = set(), [c]
                    while stack:
                        k = stack.pop()
                        if k not in seen:
                            seen.add(k)
                            stack += [ch for n in m.cand[k]
                                      for ch in m.kids[n]]
                    assert m.reach[c] == sum(1 << pos[k] for k in seen), seed


_TERM = re.compile(r"([+-])?\s*(\d+)?\s*([a-z]\w*)")


def _linear(expr: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for sign, coef, var in _TERM.findall(expr):
        out[var] = out.get(var, 0) + (-1 if sign == "-" else 1) * int(
            coef or 1)
    return out


def lp_optimum(text: str) -> int:
    """Optimum of an export_lp program, by scipy's MILP solver (HiGHS)."""
    optimize = pytest.importorskip("scipy.optimize")
    section, obj, rows, bounds, integer = None, {}, [], {}, set()
    for line in text.splitlines():
        line = line.strip()
        if line in ("Maximize", "Subject To", "Bounds", "General", "Binary",
                    "End"):
            section = line
        elif section == "Maximize":
            obj = _linear(line.split(":", 1)[1])
        elif section == "Subject To":
            lhs, op, rhs = re.fullmatch(r"c\d+: (.*) (<=|>=|=) (-?\d+)",
                                        line).groups()
            rows.append((_linear(lhs), op, int(rhs)))
        elif section == "Bounds":
            lo, var, hi = re.fullmatch(r"(-?\d+) <= (\w+) <= (-?\d+)",
                                       line).groups()
            bounds[var] = (int(lo), int(hi))
        elif section in ("General", "Binary"):
            for var in line.split():
                integer.add(var)
                bounds.setdefault(var, (0, 1))
    names = sorted(set(obj).union(*(lin for lin, _, _ in rows)))
    col = {v: i for i, v in enumerate(names)}
    a = np.zeros((len(rows), len(names)))
    for i, (lin, _, _) in enumerate(rows):
        for v, coef in lin.items():
            a[i, col[v]] = coef
    rhs = np.array([r for _, _, r in rows], dtype=float)
    lo = np.where([op != "<=" for _, op, _ in rows], rhs, -np.inf)
    hi = np.where([op != ">=" for _, op, _ in rows], rhs, np.inf)
    c = np.zeros(len(names))
    for v, coef in obj.items():
        c[col[v]] = -coef  # milp minimises
    res = optimize.milp(
        c, constraints=optimize.LinearConstraint(a, lo, hi),
        integrality=[v in integer for v in names],
        bounds=optimize.Bounds([bounds.get(v, (0, np.inf))[0] for v in names],
                               [bounds.get(v, (0, np.inf))[1] for v in names]))
    assert res.success, res.message
    return round(-res.fun)


class TestLpExport:
    def test_sections_present(self):
        text = export_lp(diamond_egraph())
        for section in ("Maximize", "Subject To", "Binary", "End"):
            assert section in text
        assert "x_" in text
        # no cycle can form: no order variables, no bounds on them
        assert "t_" not in text and "Bounds" not in text
        text = export_lp(random_cyclic_egraph(0))
        for section in ("Bounds", "General"):
            assert section in text
        assert "t_" in text

    def test_optimum_matches_enumeration(self):
        for seed in range(40):
            for g in (random_egraph(seed), random_cyclic_egraph(seed)):
                assert lp_optimum(export_lp(g)) == enumerate_optimum(g), seed

    # HiGHS cross-checks branch-and-bound on the saturated bundled pairs;
    # vbsme8 is left out, as HiGHS alone takes seconds on it
    @pytest.mark.parametrize("fmt", ["ir", "sv"])
    @pytest.mark.parametrize("name", [n for n in names() if n != "vbsme8"])
    def test_optimum_matches_ilp(self, name, fmt):
        g = init_pair(*load_pair(name, fmt))
        saturate(g, baseline_rules())
        text = export_lp(g)
        if name == "fig4":
            assert "t_" in text  # fig4 keeps a two-class cycle
        res = extract_ilp(g, timeout=20.0)
        assert not res.timed_out
        assert lp_optimum(text) == res.objective
