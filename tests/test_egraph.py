import gc
import hashlib
import itertools
import random
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordec import egraph
from wordec.analysis import (AnalysisError, Interval, interval_make,
                             interval_merge)
from wordec.egraph import (CONGRUENCE, EGraph, EGraphError, NodeRec,
                           RuleJust, Skeleton, init_pair, saturate)
from wordec.extract import pick_nodes
from wordec.fixtures import load_pair, names
from wordec.frontend import Design
from wordec.ir import Annotation, const, evaluate, op, var
from wordec.rewrites import Match, RuleError, baseline_rules, parse_rules

from test_frontend import _ANNS, _terms


def ann(w, s=False):
    return Annotation(w, s)


def _add(a, b, w):
    return op("+", ann(w), (a.out, a), (b.out, b))


class TestHashCons:
    def test_dedup_identical_terms(self):
        g = EGraph()
        a = var("a", ann(4))
        t = _add(a, a, 5)
        c1, _ = g.add_term(t)
        c2, _ = g.add_term(t)
        assert g.find(c1) == g.find(c2)

    def test_distinct_annotations_distinct_classes(self):
        g = EGraph()
        a = var("a", ann(4))
        c1, _ = g.add_term(_add(a, a, 5))
        c2, _ = g.add_term(_add(a, a, 6))
        assert g.find(c1) != g.find(c2)


    @pytest.mark.parametrize("name", names())
    def test_table_after_saturation(self, name):
        g = init_pair(*load_pair(name))
        saturate(g, baseline_rules(), {"iter": 3}, stop_on_merge=False)
        assert all(type(n) is NodeRec for n in g.nodes)
        # a live node's record is the key object it is filed under
        keys = {id(k): k for k in g.hashcons}
        for nid in (nid for nid, on in enumerate(g.live) if on):
            n = g.nodes[nid]
            assert n == g._key(n), (name, nid)
            assert g.hashcons[n] == nid, (name, nid)
            assert keys.get(id(n)) is n, (name, nid)
        assert sum(g.live) == g.num_nodes()
        assert len(g.live) == len(g.nodes)

    def test_add_canonicalizes_stale_children(self):
        g = EGraph()
        a, b = ann(4), ann(5)
        ca, na = g.add(NodeRec("var", a, (), (), name="a"))
        cb, nb = g.add(NodeRec("var", a, (), (), name="b"))
        cp, np_ = g.add(NodeRec("+", b, (a, a), (ca, ca)))
        g.union(nb, na, CONGRUENCE)  # class ca is kept, cb merges away
        g.rebuild()
        assert g.find(cb) == ca != cb
        size = len(g.nodes)
        assert g.add(NodeRec("+", b, (a, a), (cb, cb))) == (cp, np_)
        assert g.add(("+", b, (a, a), (cb, ca), None, None, None)) \
            == (cp, np_)
        assert len(g.nodes) == size


class TestMergeAndCongruence:
    def test_union_contract(self):
        g = EGraph()
        ca, na = g.add_term(var("a", ann(4)))
        cb, nb = g.add_term(var("b", ann(4)))
        cc, nc = g.add_term(var("c", ann(4)))
        assert ca < cb < cc
        # two classes: the edge (a, b, why) joins the forest, the smaller
        # class id is kept
        assert g.union(nc, na, "why") is True
        assert g.find(nc) == g.find(na) == ca
        assert g.unions == 1
        assert forest_edges(g) == [(na, nc, "why", None, None)]
        assert g.forest_path(nc, na) == [(nc, na, "why")]
        # two nodes of one class: nothing is recorded
        forest = forest_edges(g)
        assert g.union(na, nc, "again") is False
        assert g.union(nb, nb, "self") is False
        assert forest_edges(g) == forest and g.unions == 1

    def test_unsound_union_names_the_rule(self):
        g = EGraph()
        _, n1 = g.add_term(const(1, ann(4)))
        _, n2 = g.add_term(const(2, ann(4)))
        parent = list(g.parent)
        with pytest.raises(AnalysisError, match="merge by bad-rule: "):
            g.union(n1, n2, RuleJust.of("bad-rule", Skeleton(n1, None),
                                        Skeleton(n2, None)))
        assert g.parent == parent and g.unions == 0 and not forest_edges(g)

    def test_upward_propagation_one_level(self):
        g = EGraph()
        a, b = var("a", ann(4)), var("b", ann(4))
        ca, na = g.add_term(a)
        cb, nb = g.add_term(b)
        p1, _ = g.add_term(_add(a, a, 5))
        p2, _ = g.add_term(_add(b, b, 5))
        g.rebuild()
        assert g.find(p1) != g.find(p2)
        g.union(na, nb, CONGRUENCE)
        g.rebuild()
        assert g.find(p1) == g.find(p2)

    def test_upward_propagation_two_levels(self):
        g = EGraph()
        a, b = var("a", ann(4)), var("b", ann(4))
        g1 = _add(_add(a, a, 5), _add(a, a, 5), 6)
        g2 = _add(_add(b, b, 5), _add(b, b, 5), 6)
        ca, na = g.add_term(a)
        cb, nb = g.add_term(b)
        t1, _ = g.add_term(g1)
        t2, _ = g.add_term(g2)
        g.rebuild()
        g.union(na, nb, CONGRUENCE)
        g.rebuild()
        assert g.find(t1) == g.find(t2)

    def test_rebuild_noop_on_canonical(self):
        g = EGraph()
        a = var("a", ann(4))
        g.add_term(_add(a, a, 5))
        g.rebuild()
        n, c = g.num_nodes(), g.num_classes()
        g.rebuild()
        assert (g.num_nodes(), g.num_classes()) == (n, c)


class DictForest:
    """The explanation forest as a dict of (parent, why) by node, each
    union rerooting the path it joins by moving its entries: the reference
    for `EGraph`'s per-node lists."""

    def __init__(self):
        self.parent: dict[int, tuple[int, object]] = {}

    def link(self, a: int, b: int, just: object) -> None:
        path = []
        cur = b
        while cur in self.parent:
            nxt, j = self.parent[cur]
            path.append((cur, nxt, j))
            cur = nxt
        for child, par, j in reversed(path):
            del self.parent[child]
            self.parent[par] = (child, j)
        self.parent[b] = (a, just)

    def path(self, a: int, b: int) -> list[tuple[int, int, object]]:
        up_a, seen, cur = [a], {a: 0}, a
        while cur in self.parent:
            cur = self.parent[cur][0]
            seen[cur] = len(up_a)
            up_a.append(cur)
        chain_b, cur = [b], b
        while cur not in seen:
            if cur not in self.parent:
                raise EGraphError(f"nodes {a} and {b} are not connected")
            cur = self.parent[cur][0]
            chain_b.append(cur)
        path = [(x, *self.parent[x]) for x in up_a[:seen[cur]]]
        down = [(self.parent[x][0], x, self.parent[x][1])
                for x in chain_b[:-1]]
        return path + down[::-1]


class TestExplanationForest:
    @settings(max_examples=150, deadline=None)
    @given(size=st.integers(1, 10),
           unions=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                           max_size=30))
    def test_paths_match_the_dict_forest(self, size, unions):
        g = EGraph()
        nodes = [g.add(NodeRec("var", ann(4), (), (), name=f"v{i}"))[1]
                 for i in range(size)]
        ref = DictForest()
        for k, (a, b) in enumerate(unions):
            a, b = nodes[a % size], nodes[b % size]
            if g.union(a, b, f"u{k}"):
                ref.link(a, b, f"u{k}")
        assert {v: (p, w) for v, (p, w) in enumerate(zip(g.up, g.why))
                if p != -1} == ref.parent
        for a, b in itertools.product(nodes, repeat=2):
            if g.find(a) == g.find(b):
                assert g.forest_path(a, b) == ref.path(a, b), (a, b)
            else:
                for forest_path in (g.forest_path, ref.path):
                    with pytest.raises(EGraphError, match="not connected"):
                        forest_path(a, b)

    def test_rule_just_sides(self):
        lhs = Skeleton(7, (Skeleton(3, (None, None)), None))
        rhs = Skeleton(9, (None, Skeleton(8, ()), Skeleton(5, None)))
        just = RuleJust.of("r", lhs, rhs)
        assert just.nodes == (7, 3, 9, 8, 5)
        assert just.shape == (Skeleton(0, (Skeleton(1, (None, None)), None)),
                              Skeleton(2, (None, Skeleton(3, ()),
                                           Skeleton(4, None))))
        assert (just.rule_id, just.lhs, just.rhs) == ("r", lhs, rhs)
        bare = RuleJust.of("r", Skeleton(4, None), Skeleton(6, (None,)))
        assert bare == ("r", (Skeleton(0, None), Skeleton(1, (None,))),
                        (4, 6))


class TestInitPair:
    def test_fig1_shares_only_inputs(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        from wordec.extract import shared
        sh = shared(g)
        shared_ops = {g.nodes[n].op
                      for c in sh.c_shared for n in g.classes[c].node_ids}
        assert shared_ops == {"var"}
        assert len(sh.c_shared) == 4

    def test_identical_designs_share_root(self):
        spec, _ = load_pair("fig1")
        g = init_pair(spec, spec)
        assert g.roots_merged()

    @pytest.mark.parametrize("name", names())
    def test_lookup_finds_every_subterm(self, name):
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)

        def subterms(t):
            yield t
            for _, c in t.operands:
                yield from subterms(c)

        for t in (*subterms(spec.body), *subterms(impl.body)):
            nid = g.lookup(t)
            assert nid is not None, (name, t.kind)
            n = g.nodes[nid]
            assert (n.op, n.out, n.name, n.value) == \
                (t.kind, t.out, t.name, t.value)
        absent = var("no_such_input", ann(4))
        assert g.lookup(absent) is None
        assert g.lookup(_add(absent, absent, 5)) is None

    def test_doubling_chain_is_linear(self):
        """A subterm shared by many parents is inserted and looked up once
        per call: the chain w_i = w_{i-1} + w_{i-1} of 40 wires, a tree of
        2^40 leaves, is 41 nodes."""
        a8 = ann(8)

        def chain():
            w = var("x", a8)
            for _ in range(40):
                w = _add(w, w, 8)
            return w

        w = chain()
        t0 = time.perf_counter()
        g = EGraph()
        _, root = g.add_term(w)
        assert len(g.nodes) == 41
        assert g.lookup(w) == root
        # and the chain against a separately built copy of itself
        d = Design("chain", (("x", a8),), "y", w)
        g = init_pair(d, Design("copy", (("x", a8),), "y", chain()))
        assert len(g.nodes) == 41 and g.roots_merged()
        assert time.perf_counter() - t0 < 1.0

    def test_port_mismatch_rejected(self):
        spec, _ = load_pair("fig1")
        other = Design("other", (("Z", ann(4)),), "O", var("Z", ann(4)))
        with pytest.raises(EGraphError):
            init_pair(spec, other)


class TestSaturate:
    def test_fig4_two_iterations(self):
        spec, impl = load_pair("fig4")
        g = init_pair(spec, impl)
        rep = saturate(g, baseline_rules())
        assert rep.roots_merged and rep.iterations <= 2

    def test_fig1_merges_within_five(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        rep = saturate(g, baseline_rules())
        assert rep.roots_merged and rep.iterations <= 5

    def test_empty_rules_saturates_unchanged(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        rep = saturate(g, [])
        assert rep.stop_reason == "saturated"
        assert not rep.roots_merged
        # only the width-analysis pass may add nodes; a second run is a no-op
        n1 = g.num_nodes()
        saturate(g, [])
        assert g.num_nodes() == n1

    def test_limits_respected(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        rep = saturate(g, baseline_rules(), {"iter": 1}, stop_on_merge=False)
        assert rep.iterations == 1

    def test_node_limit_without_room_for_a_narrowing(self):
        # fig4 starts with 5 nodes: a limit of 6 leaves no room for the two
        # nodes of a narrowing, so no iteration starts
        g = init_pair(*load_pair("fig4"))
        assert g.num_nodes() == 5
        rep = saturate(g, baseline_rules(), {"nodes": 6})
        assert (rep.iterations, rep.stop_reason) == (0, "node-limit")
        assert rep.node_counts == [5] and g.num_nodes() == 5

    def test_node_limit_binds_inside_an_iteration(self):
        # fir8's third iteration alone grows 384 nodes to 2332: the budget
        # stops its applications, and the iteration still rebuilds
        g = init_pair(*load_pair("fir8"))
        rep = saturate(g, baseline_rules(), {"nodes": 1000},
                       stop_on_merge=False)
        assert rep.stop_reason == "node-limit" and rep.iterations == 3
        assert rep.node_counts[-1] < 2332
        state = (g.num_nodes(), g.num_classes(), g.unions)
        g.rebuild()
        assert (g.num_nodes(), g.num_classes(), g.unions) == state

    @pytest.mark.parametrize("limit", [1000, 5000])
    def test_width_reduction_keeps_the_node_budget(self, limit):
        # an application goes ahead only with room for its rule's rhs
        # nodes, and a narrowing only with room for two
        g = init_pair(*load_pair("fir8"))
        rep = saturate(g, baseline_rules(), {"nodes": limit},
                       stop_on_merge=False)
        assert rep.stop_reason == "node-limit"
        assert max(rep.node_counts) <= limit, rep.node_counts
        assert g.num_nodes() <= limit

    @pytest.mark.parametrize("name, limit", [
        ("vbsme4", 33), ("vbsme4", 36), ("vbsme4", 84), ("vbsme4", 150),
        ("fir8", 48), ("fir8", 61)])
    def test_a_three_node_rhs_keeps_the_node_budget(self, name, limit):
        # b + (a + 0) for a + b: an application can add three nodes, and
        # at these limits a budget that made room for one would overshoot
        rules = parse_rules(
            "comm-add-zero : (+ ?wo ?so ?w1 ?s1 ?a ?w2 ?s2 ?b)"
            " => (+ ?wo ?so ?w2 ?s2 ?b ?w1 ?s1"
            "      (+ ?w1 ?s1 ?w1 ?s1 ?a ?w1 ?s1 (const 0 ?w1 ?s1))) ;")
        assert rules[0].rhs_nodes == 3
        g = init_pair(*load_pair(name))
        assert g.num_nodes() <= limit
        rep = saturate(g, rules + baseline_rules(), {"nodes": limit},
                       stop_on_merge=False)
        assert rep.stop_reason == "node-limit"
        assert max(rep.node_counts) <= limit, rep.node_counts
        assert rep.rules["comm-add-zero"].useful_applications > 0

    @staticmethod
    def _ticking_clock(monkeypatch):
        """A clock that ticks a second per reading, from 0."""
        ticks = itertools.count()
        monkeypatch.setattr(egraph, "time", SimpleNamespace(
            monotonic=lambda: float(next(ticks)),
            perf_counter=time.perf_counter))

    def test_time_limit_binds_inside_an_iteration(self, monkeypatch):
        # the start, the check before the first iteration, the check after
        # each rule's matches and the checks before two applications leave
        # the third application over the budget
        g = init_pair(*load_pair("fig1"))
        rules = baseline_rules()
        self._ticking_clock(monkeypatch)
        rep = saturate(g, rules, {"time": len(rules) + 3.5},
                       stop_on_merge=False)
        assert rep.stop_reason == "timeout" and rep.iterations == 1
        assert rep.per_iteration[0].matches > 2
        applied = sum(c.useful_applications for rid, c in rep.rules.items()
                      if rid != "width-reduce")
        assert applied + rep.redundant_applications == 2

    def test_time_limit_binds_while_matching(self, monkeypatch):
        # the check after the third rule's matches reads 4 s: no later rule
        # matches and nothing is applied, but the iteration still narrows
        # and rebuilds
        g = init_pair(*load_pair("fig1"))
        rules = baseline_rules()
        self._ticking_clock(monkeypatch)
        rep = saturate(g, rules, {"time": 3.5}, stop_on_merge=False)
        assert rep.stop_reason == "timeout" and rep.iterations == 1
        pattern = [rep.rules[r.id] for r in rules if r.id != "width-reduce"]
        assert rep.per_iteration[0].matches \
            == sum(c.matches for c in pattern[:3]) > 0
        assert all(c.matches == 0 for c in pattern[3:])
        assert all(c.useful_applications == 0 for c in pattern)
        assert rep.redundant_applications == 0
        assert rep.rules["width-reduce"].useful_applications > 0
        state = (g.num_nodes(), g.num_classes(), g.unions)
        g.rebuild()
        assert (g.num_nodes(), g.num_classes(), g.unions) == state

    def test_per_iteration_stats(self):
        spec, impl = load_pair("vbsme4")
        g = init_pair(spec, impl)
        rules = baseline_rules()
        rep = saturate(g, rules, {"iter": 3}, stop_on_merge=False)
        assert len(rep.per_iteration) == rep.iterations == 3
        assert sum(st.redundant_applications for st in rep.per_iteration) \
            == rep.redundant_applications
        for st in rep.per_iteration:
            assert 0 <= st.redundant_applications <= st.matches
            assert min(st.match_s, st.apply_s, st.width_reduce_s,
                       st.rebuild_s) >= 0
            # a congruence merge drops a node its rebuild re-keyed
            assert 0 <= st.congruences <= st.rekeyed
        assert sum(st.congruences for st in rep.per_iteration) <= g.unions
        # the match counts are those of the graph each iteration started on
        g2 = init_pair(spec, impl)
        for st in rep.per_iteration:
            assert st.matches == sum(len(r.matches(g2)) for r in rules)
            saturate(g2, rules, {"iter": 1}, stop_on_merge=False)

    def test_per_rule_counts(self):
        spec, impl = load_pair("vbsme4")
        g = init_pair(spec, impl)
        rules = baseline_rules()
        rep = saturate(g, rules, {"iter": 3}, stop_on_merge=False)
        assert list(rep.rules) == [r.id for r in rules]  # width-reduce last
        narrowing = rep.rules["width-reduce"]
        assert 0 < narrowing.useful_applications <= narrowing.matches
        pattern = [c for rid, c in rep.rules.items() if rid != "width-reduce"]
        assert sum(c.matches for c in pattern) \
            == sum(st.matches for st in rep.per_iteration)
        assert sum(c.matches - c.useful_applications for c in pattern) \
            == rep.redundant_applications
        for c in rep.rules.values():
            assert 0 <= c.useful_applications <= c.matches
        # each rule's matches are those it finds on each iteration's graph
        g2 = init_pair(spec, impl)
        found = dict.fromkeys(rep.rules, 0)
        for _ in range(rep.iterations):
            for r in rules:
                found[r.id] += len(r.matches(g2))
            saturate(g2, rules, {"iter": 1}, stop_on_merge=False)
        assert found == {rid: c.matches for rid, c in rep.rules.items()
                         if rid != "width-reduce"} | {"width-reduce": 0}

    def test_width_reduction_counted_without_its_rule(self):
        g = init_pair(*load_pair("fig1"))
        rep = saturate(g, [], {"iter": 2}, stop_on_merge=False)
        assert list(rep.rules) == ["width-reduce"]
        assert rep.rules["width-reduce"].useful_applications \
            == g.unions - g.congruences > 0

    # saturation results recorded while each match still carried its
    # parameters in a dict; node-id match records must not change them
    PINNED = {
        "vbsme8": (
            [61, 196, 626, 3214, 16601], [61, 97, 246, 1067, 4234], 16360,
            {"comm-add": (2881, 1713), "assoc-add": (7021, 4702),
             "assoc-add-rev": (6836, 4416), "zext-fold": (652, 0),
             "zext-intro": (1407, 589), "width-reduce": (6681, 4627)}),
        "fir8": (
            [44, 115, 384, 2332, 14462], [44, 52, 149, 857, 4373], 13044,
            {"comm-add": (2020, 1365), "comm-mul": (56, 8),
             "assoc-add": (5367, 3574), "assoc-add-rev": (5050, 3447),
             "shift-to-mult": (31, 7), "mult-to-shift": (32, 1),
             "mult-to-add": (8, 2), "zext-fold": (393, 1),
             "zext-intro": (1046, 532), "width-reduce": (5464, 3950)}),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_results_after_four_iterations(self, name):
        g = init_pair(*load_pair(name))
        rep = saturate(g, baseline_rules(), {"iter": 4}, stop_on_merge=False)
        node_counts, class_counts, unions, counts = self.PINNED[name]
        assert rep.node_counts == node_counts
        assert rep.class_counts == class_counts
        assert g.unions == unions
        assert {rid: (c.matches, c.useful_applications)
                for rid, c in rep.rules.items()} \
            == dict.fromkeys(rep.rules, (0, 0)) | counts

    def test_bad_limits_rejected(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        with pytest.raises(EGraphError):
            saturate(g, [], {"iter": 0})

    @pytest.mark.parametrize("name", names())
    def test_members_are_the_canonical_nodes(self, name):
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        by_class = {c: [] for c in g.classes}
        for nid in sorted(g.hashcons.values()):
            by_class[g.find(nid)].append(nid)
        for c, cls in g.classes.items():
            assert cls.node_ids == by_class[c], (name, c)

    @pytest.mark.parametrize("name", names())
    def test_rebuild_matches_full_scan(self, name, monkeypatch):
        # fir8 and vbsme4 merge in their first iteration; three more follow
        limits = {"iter": 4}
        g = init_pair(*load_pair(name))
        saturate(g, baseline_rules(), limits, stop_on_merge=False)
        assert len(g.nodes) >= len(g.hashcons)
        for every_node in (False, True):
            monkeypatch.setattr(EGraph, "rebuild",
                                lambda ref, e=every_node:
                                full_scan_rebuild(ref, e))
            ref = init_pair(*load_pair(name))
            saturate(ref, baseline_rules(), limits, stop_on_merge=False)
            assert_same_graph(g, ref)

    @pytest.mark.parametrize("name", names())
    def test_intervals_are_the_full_sweep_fixpoint(self, name):
        g = init_pair(*load_pair(name))
        saturate(g, baseline_rules(), {"iter": 4}, stop_on_merge=False)
        intervals = {c: cls.interval for c, cls in g.classes.items()}
        full_sweep_refine(g)
        assert {c: cls.interval for c, cls in g.classes.items()} == intervals

    @pytest.mark.parametrize("seed", range(12))
    def test_rebuild_matches_full_scan_on_random_graphs(self, seed):
        # each round instantiates random shapes over three copies of three
        # inputs, merges one input across two copies (a cascade of
        # congruences) and five random pairs of nodes, then rebuilds; every
        # interval holds 0, so no merge is disjoint
        rng = random.Random(seed)
        g, ref = EGraph(), EGraph()
        copies = [[var(f"{x}{i}", ann(4)) for x in "xyz"] for i in range(3)]
        added = []
        for t in [v for leaves in copies for v in leaves]:
            added.append(g.add_term(t)[1])
            ref.add_term(t)

        def shape(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.randrange(3)
            return (rng.choice(["+", "*", "&"]), rng.choice([4, 8]),
                    shape(depth - 1), shape(depth - 1))

        def instance(s, leaves):
            if isinstance(s, int):
                return leaves[s]
            a, b = instance(s[2], leaves), instance(s[3], leaves)
            return op(s[0], ann(s[1]), (a.out, a), (b.out, b))

        for _ in range(5):
            shapes = [shape(3) for _ in range(5)]
            for leaves in copies:
                for s in shapes:
                    t = instance(s, leaves)
                    added.append(g.add_term(t)[1])
                    ref.add_term(t)
            i, j = rng.sample(range(3), 2)
            x = rng.randrange(3)
            merges = [(g.lookup(copies[i][x]), g.lookup(copies[j][x]))]
            merges += [(rng.choice(added), rng.choice(added))
                       for _ in range(5)]
            for a, b in merges:
                g.union(a, b, "random")
                ref.union(a, b, "random")
            g.rebuild()
            full_scan_rebuild(ref)
            assert_same_graph(g, ref)
        assert g.congruences > 0

    def test_narrowing_reaches_users_of_users(self):
        # e joins a + b: [0, 30] narrows to [0, 15], so (a + b) * c stops
        # wrapping ([0, 225]) and then so does ((a + b) * c) + d ([0, 240])
        a, b, c, d, e = (var(x, ann(4)) for x in "abcde")
        s = _add(a, b, 8)
        p = op("*", ann(8), (s.out, s), (c.out, c))
        t = _add(p, d, 8)
        g = EGraph()
        cs, ns = g.add_term(s)
        ct, _ = g.add_term(t)
        ce, ne = g.add_term(e)
        g.rebuild()
        assert g.classes[ct].interval == Interval(0, 255)
        g.union(ns, ne, "test")
        g.rebuild()
        assert g.classes[g.find(ct)].interval == Interval(0, 240)
        intervals = {c: cls.interval for c, cls in g.classes.items()}
        full_sweep_refine(g)
        assert {c: cls.interval for c, cls in g.classes.items()} == intervals

    def test_determinism(self):
        spec, impl = load_pair("vbsme4")
        reports = []
        for _ in range(2):
            g = init_pair(spec, impl)
            reports.append(saturate(g, baseline_rules()))
        assert reports[0].node_counts == reports[1].node_counts
        assert reports[0].class_counts == reports[1].class_counts

    def test_node_count_monotone(self):
        spec, impl = load_pair("fig1")
        g = init_pair(spec, impl)
        rep = saturate(g, baseline_rules(), stop_on_merge=False)
        assert rep.node_counts == sorted(rep.node_counts)


# Four iterations past the merge, recorded before the saturation hot path
# was made lean: nodes and classes after each iteration, unions, each
# iteration's (matches, redundant applications, rekeyed, congruences), each
# rule's (matches, useful applications) where either is not 0, and the
# first 16 hex digits of sha256(repr((g.up, g.why, g.parent))).
_EXACT = {
    "vbsme8": (
        [61, 196, 626, 3214, 16601], [61, 97, 246, 1067, 4234], 16360,
        [(70, 1, 2, 0), (384, 190, 21, 2), (2234, 862, 351, 10),
         (16109, 6324, 5200, 301)],
        {"comm-add": (2881, 1713), "assoc-add": (7021, 4702),
         "assoc-add-rev": (6836, 4416), "zext-fold": (652, 0),
         "zext-intro": (1407, 589), "width-reduce": (6681, 4627)},
        "0a422341a608ceaf"),
    "fir8": (
        [44, 115, 384, 2332, 14462], [44, 52, 149, 857, 4373], 13044,
        [(83, 16, 38, 6), (228, 110, 3, 0), (1364, 460, 153, 4),
         (12328, 4480, 3657, 147)],
        {"comm-add": (2020, 1365), "comm-mul": (56, 8),
         "assoc-add": (5367, 3574), "assoc-add-rev": (5050, 3447),
         "shift-to-mult": (31, 7), "mult-to-shift": (32, 1),
         "mult-to-add": (8, 2), "zext-fold": (393, 1),
         "zext-intro": (1046, 532), "width-reduce": (5464, 3950)},
        "798674e6f2a7ced3"),
}


class TestSaturationIsExact:
    """Saturation computes the same graph, merge for merge: the counts, the
    explanation forest and the union-find's parent array, path halving
    included, are pinned where the limits do not bind."""

    @pytest.mark.parametrize("name", sorted(_EXACT))
    def test_counts_and_forest_pinned(self, name):
        nodes, classes, unions, iterations, rules, digest = _EXACT[name]
        g = init_pair(*load_pair(name))
        rep = saturate(g, baseline_rules(),
                       {"iter": 4, "nodes": 10 ** 9, "time": 1e9},
                       stop_on_merge=False)
        assert (rep.node_counts, rep.class_counts, g.unions) \
            == (nodes, classes, unions)
        assert [(st.matches, st.redundant_applications, st.rekeyed,
                 st.congruences) for st in rep.per_iteration] == iterations
        assert {rid: (c.matches, c.useful_applications)
                for rid, c in rep.rules.items()
                if c.matches or c.useful_applications} == rules
        assert hashlib.sha256(repr((g.up, g.why, g.parent)).encode()) \
            .hexdigest()[:16] == digest


class TestCollectorPause:
    """saturate() runs with the cyclic collector off, which is only safe
    while saturation makes no reference cycles."""

    @staticmethod
    def _saturate(name):
        g = init_pair(*load_pair(name))
        saturate(g, baseline_rules(), {"iter": 5, "nodes": 5000},
                 stop_on_merge=False)
        return g

    def test_saturation_leaves_no_cyclic_garbage(self):
        for name in names():  # compiles the rule programs
            self._saturate(name)
        gc.collect()
        for name in names():
            g = self._saturate(name)
            assert gc.collect() == 0, name
            assert g.num_nodes() > 0

    def test_collector_back_on_after_return(self):
        assert gc.isenabled()
        self._saturate("fig4")
        assert gc.isenabled()

    def test_collector_back_on_after_a_raise(self):
        rules = parse_rules("wider : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) "
                            "=> (+ (?wo+1) ?so ?wa ?sa ?a ?wb ?sb ?b) ;")
        g = init_pair(*load_pair("adpcm"))
        assert gc.isenabled()
        with pytest.raises(RuleError, match="rhs annotation"):
            saturate(g, rules)
        assert gc.isenabled()

    def test_collector_left_off_when_found_off(self):
        gc.disable()
        try:
            self._saturate("fig4")
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestSaturationMemory:
    """Saturation holds little beyond the graph: a match is freed once it
    is applied, and nodes share one slot tuple per distinct value."""

    def test_each_match_is_freed_once_applied(self, monkeypatch):
        applied = []
        apply = Match.apply

        def spy(m, g):
            # reference counting alone (the collector is paused) has freed
            # every match applied before this one
            assert all(ref() is None for ref in applied), len(applied)
            applied.append(weakref.ref(m))
            return apply(m, g)

        monkeypatch.setattr(Match, "apply", spy)
        g = init_pair(*load_pair("vbsme4"))
        rep = saturate(g, baseline_rules(), {"iter": 3}, stop_on_merge=False)
        assert len(applied) > 100
        assert sum(st.matches for st in rep.per_iteration) >= len(applied)

    def test_matches_hold_their_node_ids_only(self):
        # a match is its rule and the ids of its lhs nodes, about 100
        # bytes; one that kept a dict of its parameters and a skeleton of
        # its lhs held about 800
        g = init_pair(*load_pair("vbsme8"))
        rules = baseline_rules()
        saturate(g, rules, {"iter": 3}, stop_on_merge=False)
        for r in rules:
            r.matches(g)  # compiles the matchers
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = [r.matches(g) for r in rules]
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        count = sum(map(len, held))
        assert count > 10_000
        assert size <= 200 * count, size / count

    def test_a_union_leaves_under_three_tracked_objects(self):
        # saturate-deep's vbsme8 run, 100,803 unions.  A union keeps one
        # record: its rule's shared shape and a tuple of node ids, which
        # the collector untracks.  A forest of (parent, why) tuples over
        # skeleton trees left 8.2 tracked objects a union, nodes and classes
        # included; no skeleton is built until the explainer reads one.
        rules = baseline_rules()

        def run():
            g = init_pair(*load_pair("vbsme8"))
            gc.collect()
            tracked = gc.get_objects()
            count = len(tracked)
            skeletons = sum(type(o) is Skeleton for o in tracked)
            del tracked
            saturate(g, rules, {"iter": 5, "nodes": 10 ** 9},
                     stop_on_merge=False)
            gc.collect()
            tracked = gc.get_objects()
            return (g, len(tracked) - count,
                    sum(type(o) is Skeleton for o in tracked) - skeletons)

        run()  # compiles the rule programs and makes their shapes
        g, tracked, skeletons = run()
        assert g.unions > 100_000
        assert tracked < 3 * g.unions, tracked / g.unions
        assert skeletons == 0

    @pytest.mark.parametrize("name", names())
    def test_nodes_share_one_slot_tuple_per_value(self, name):
        g = init_pair(*load_pair(name))
        saturate(g, baseline_rules(), {"iter": 4}, stop_on_merge=False)
        assert len({id(n.slots) for n in g.nodes}) \
            == len({n.slots for n in g.nodes})


def full_scan_rebuild(g: EGraph, every_node: bool = False) -> None:
    """`EGraph.rebuild` rescanning the table's nodes in node-id order until
    a scan merges nothing, then sweeping every class interval.  Each node in
    the table when a scan starts is re-filed: its record becomes its fresh
    key.  With `every_node` the scan also visits the nodes dropped from the
    table, without re-filing them.  That is not the same rebuild: a dropped
    node can meet, before its congruent twin, a node that took the twin's
    fresh key while the twin still holds a stale one, and merge with it, as
    random graphs show."""
    changed = True
    while changed:
        changed = False
        table: dict[tuple, int] = {}
        filed = set(g.hashcons.values())
        for nid in range(len(g.nodes)) if every_node else sorted(filed):
            key = g._key(g.nodes[nid])
            if nid in filed:
                g.nodes[nid] = key
            other = table.get(key)
            if other is None:
                table[key] = nid
            elif g.union(other, nid, CONGRUENCE):
                changed = True
        g.hashcons = table
    members: dict[int, list[int]] = {c: [] for c in g.classes}
    for nid in g.hashcons.values():
        members[g.find(nid)].append(nid)
    for cid, cls in g.classes.items():
        cls.node_ids = members[cid]
    full_sweep_refine(g)


def full_sweep_refine(g: EGraph) -> None:
    """`analysis.refine_intervals` sweeping every class, in class-id order,
    until a sweep narrows nothing."""
    changed = True
    while changed:
        changed = False
        for cid in sorted(g.classes):
            cls = g.classes[cid]
            iv = cls.interval
            for nid in cls.node_ids:
                n = g.nodes[nid]
                kids = [g.classes[g.find(c)].interval for c in n.children]
                iv = interval_merge(iv, interval_make(n, kids))
            if iv != cls.interval:
                cls.interval = iv
                changed = True


def forest_edges(g: EGraph) -> list[tuple]:
    """Each explanation-forest edge as (node, parent, rule id, lhs, rhs),
    in node order, with a rule justification's two sides materialised; any
    other justification stands for its own rule id, with no sides."""
    assert len(g.up) == len(g.why) == len(g.nodes)
    edges = []
    for v, (up, why) in enumerate(zip(g.up, g.why)):
        if up == -1:
            assert why is None, v
        elif isinstance(why, RuleJust):
            # the one record a union keeps is the one its sides make
            assert RuleJust.of(why.rule_id, why.lhs, why.rhs) == why, v
            edges.append((v, up, why.rule_id, why.lhs, why.rhs))
        else:
            edges.append((v, up, why, None, None))
    return edges


def assert_same_graph(g: EGraph, ref: EGraph) -> None:
    assert g.nodes == ref.nodes
    assert [g.find(i) for i in range(len(g.parent))] \
        == [ref.find(i) for i in range(len(ref.parent))]
    assert {c: (cls.node_ids, cls.interval) for c, cls in g.classes.items()} \
        == {c: (cls.node_ids, cls.interval)
            for c, cls in ref.classes.items()}
    assert forest_edges(g) == forest_edges(ref)
    assert g.hashcons == ref.hashcons
    assert g.unions == ref.unions


class TestSemanticSoundness:
    @pytest.mark.parametrize("name", ["fig1-scaled", "fig4", "adpcm",
                                      "vbsme4", "boxfilter"])
    def test_class_members_agree(self, name):
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        rng = random.Random(2)
        pick = pick_nodes(g)
        envs = [{n: rng.randint(a.lo, a.hi) for n, a in spec.inputs}
                for _ in range(100)]
        for cid in list(g.classes):
            if g.find(cid) != cid:
                continue
            terms = []
            for nid in g.classes[cid].node_ids:
                try:
                    terms.append(g.term(nid, pick, {}))
                except Exception:
                    continue
            if len(terms) < 2:
                continue
            for env in envs:
                vals = {evaluate(t, env) for t in terms}
                assert len(vals) == 1, (name, cid, env)


@st.composite
def _term_sets(draw):
    """Three inputs and two random annotated terms over them, using every
    opcode."""
    inputs = tuple((n, draw(_ANNS)) for n in ("a", "b", "c"))
    return inputs, [draw(_terms(inputs, 3)) for _ in range(2)]


class TestClassAgreementProperty:
    """After saturation and width reduction on random terms, every member
    of every class has one output annotation and computes one function: a
    hashcons key that confused two annotations would join classes that
    differ."""

    @settings(max_examples=60, deadline=None)
    @given(case=_term_sets(), seed=st.integers(0, 2 ** 32 - 1))
    def test_members_agree_after_saturation(self, case, seed):
        inputs, terms = case
        g = EGraph()
        for t in terms:
            g.add_term(t)
        g.rebuild()
        saturate(g, baseline_rules(), {"iter": 2}, stop_on_merge=False)
        rng = random.Random(seed)
        envs = [{n: a.lo for n, a in inputs}, {n: a.hi for n, a in inputs}]
        envs += [{n: rng.randint(a.lo, a.hi) for n, a in inputs}
                 for _ in range(8)]
        pick = pick_nodes(g)
        memo: dict = {}
        for cid, cls in g.classes.items():
            members = [g.term(nid, pick, memo) for nid in cls.node_ids]
            assert len({t.out for t in members}) == 1, (cid, members)
            for env in envs:
                values = {evaluate(t, env) for t in members}
                assert len(values) == 1, (cid, env, members)


class TestDump:
    def test_dump_shape(self):
        from wordec.extract import shared
        spec, impl = load_pair("fig4")
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        d = g.dump(shared(g))
        assert set(d) >= {"classes", "roots"}
