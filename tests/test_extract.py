import random

import pytest

from wordec.egraph import CONGRUENCE, EGraph, NodeRec, init_pair, saturate
from wordec.extract import (ExtractionError, _result_from_selection,
                            enumerate_optimum, export_lp, extract_greedy,
                            extract_ilp, reachable, shared)
from wordec.fixtures import load_pair
from wordec.ir import Annotation, Term, evaluate
from wordec.oracle import OracleConfig, check_equiv
from wordec.frontend import Design
from wordec.rewrites import baseline_rules

U4 = Annotation(4)


def _leaf(g, name):
    return g.add_node(NodeRec("var", U4, (), (), name=name))


def _node(g, children):
    if len(children) == 1:
        return g.add_node(NodeRec("neg", U4, (U4,), tuple(children)))
    return g.add_node(NodeRec("+", U4, (U4, U4), tuple(children)))


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
            g.merge(cid, c2, CONGRUENCE, edge=(nid, n2))
    g.rebuild()
    live = [c for c in classes if g.find(c) == c]
    g.roots = (rng.choice(live), rng.choice(live))
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
    g.merge(r_good, r_cheap, CONGRUENCE, edge=(nrg, nrc))
    n2, _ = _node(g, [p, p])                   # impl-side detour
    n1, _ = _node(g, [n2])
    ly, _ = _leaf(g, "y")
    y, _ = _node(g, [ly])
    i_good, nig = _node(g, [n1])
    i_cheap, nic = _node(g, [y])
    g.merge(i_good, i_cheap, CONGRUENCE, edge=(nig, nic))
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


class TestRealization:
    def test_cyclic_selection_rejected(self):
        # class {x, neg(x)}: selecting neg for it realises an infinite term
        g = EGraph()
        x, nx = _leaf(g, "x")
        n, nn = _node(g, [x])
        g.merge(x, n, CONGRUENCE, edge=(nx, nn))
        g.rebuild()
        c = g.find(x)
        g.roots = (c, c)
        assert _result_from_selection(g, shared(g), {c: nx}, "ilp").s_star \
            == Term("var", U4, name="x")
        with pytest.raises(ExtractionError):
            _result_from_selection(g, shared(g), {c: nn}, "ilp")


class TestLpExport:
    def test_sections_present(self):
        g = diamond_egraph()
        text = export_lp(g)
        for section in ("Maximize", "Subject To", "Bounds", "Binary", "End"):
            assert section in text
        assert "x_" in text and "t_" in text
