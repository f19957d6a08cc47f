import itertools
import random
import time
from types import SimpleNamespace

import pytest

from wordec import egraph
from wordec.egraph import CONGRUENCE, EGraph, EGraphError, init_pair, saturate
from wordec.extract import pick_nodes
from wordec.fixtures import load_pair, names
from wordec.frontend import Design
from wordec.ir import Annotation, const, evaluate, op, var
from wordec.rewrites import baseline_rules


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


class TestMergeAndCongruence:
    def test_merge_idempotent(self):
        g = EGraph()
        c, _ = g.add_term(var("a", ann(4)))
        unions = g.unions
        assert g.merge(c, c, CONGRUENCE) == g.find(c)
        assert g.unions == unions

    def test_upward_propagation_one_level(self):
        g = EGraph()
        a, b = var("a", ann(4)), var("b", ann(4))
        ca, na = g.add_term(a)
        cb, nb = g.add_term(b)
        p1, _ = g.add_term(_add(a, a, 5))
        p2, _ = g.add_term(_add(b, b, 5))
        g.rebuild()
        assert g.find(p1) != g.find(p2)
        g.merge(ca, cb, CONGRUENCE, edge=(na, nb))
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
        g.merge(ca, cb, CONGRUENCE, edge=(na, nb))
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

    def test_port_mismatch_rejected(self):
        spec, _ = load_pair("fig1")
        other = Design("other", (("Z", ann(4)),), ("O", ann(4)),
                       var("Z", ann(4)))
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

    def test_time_limit_binds_inside_an_iteration(self, monkeypatch):
        # a clock that ticks a second per reading: the start, the check
        # before the first iteration and the checks before two applications
        # leave the third application over a 3.5 s budget
        g = init_pair(*load_pair("fig1"))
        ticks = itertools.count()
        monkeypatch.setattr(egraph, "time", SimpleNamespace(
            monotonic=lambda: float(next(ticks)),
            perf_counter=time.perf_counter))
        rep = saturate(g, baseline_rules(), {"time": 3.5},
                       stop_on_merge=False)
        assert rep.stop_reason == "timeout" and rep.iterations == 1
        assert rep.per_iteration[0].matches > 2

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
        # the match counts are those of the graph each iteration started on
        g2 = init_pair(spec, impl)
        for st in rep.per_iteration:
            assert st.matches == sum(len(r.matches(g2)) for r in rules)
            saturate(g2, rules, {"iter": 1}, stop_on_merge=False)

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
            by_class[g.class_of(nid)].append(nid)
        for c, cls in g.classes.items():
            assert cls.node_ids == by_class[c], (name, c)

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


class TestDump:
    def test_dump_shape(self):
        from wordec.extract import shared
        spec, impl = load_pair("fig4")
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        d = g.dump(shared(g))
        assert set(d) >= {"classes", "roots"}
