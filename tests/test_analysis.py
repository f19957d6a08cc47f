import pytest

from wordec.analysis import (AnalysisError, Interval, interval_merge,
                             refine_intervals, width_reduction_pass)
from wordec.egraph import EGraph, init_pair, saturate
from wordec.extract import pick_nodes
from wordec.fixtures import load_pair
from wordec.frontend import Design, parse_sexpr
from wordec.ir import Annotation, const, evaluate, op, var
from wordec.rewrites import baseline_rules


def ann(w, s=False):
    return Annotation(w, s)


def _design(body, inputs):
    return Design("d", tuple(inputs), ("o", body.out), body)


class TestIntervalMerge:
    def test_intersection(self):
        assert interval_merge(Interval(0, 510), Interval(0, 255)) == \
            Interval(0, 255)

    def test_idempotent(self):
        assert interval_merge(Interval(3, 10), Interval(3, 10)) == \
            Interval(3, 10)

    def test_overlap(self):
        assert interval_merge(Interval(3, 10), Interval(5, 20)) == \
            Interval(5, 10)

    def test_disjoint_is_hard_error(self):
        with pytest.raises(AnalysisError):
            interval_merge(Interval(0, 1), Interval(5, 9))


class TestClassIntervals:
    def _graph_for(self, body, inputs):
        d = _design(body, inputs)
        g = EGraph()
        root, _ = g.add_term(body)
        g.rebuild()
        return g, root

    def test_var_full_range(self):
        a = var("a", ann(8))
        g, root = self._graph_for(a, [("a", ann(8))])
        iv = g.classes[g.find(root)].interval
        assert (iv.lo, iv.hi) == (0, 255)

    def test_exact_sum(self):
        a, b = var("a", ann(8)), var("b", ann(8))
        t = op("+", ann(9), (ann(8), a), (ann(8), b))
        g, root = self._graph_for(t, [("a", ann(8)), ("b", ann(8))])
        iv = g.classes[g.find(root)].interval
        assert (iv.lo, iv.hi) == (0, 510)

    def test_wraparound_widens(self):
        a, b = var("a", ann(8)), var("b", ann(8))
        t = op("+", ann(8), (ann(8), a), (ann(8), b))
        g, root = self._graph_for(t, [("a", ann(8)), ("b", ann(8))])
        iv = g.classes[g.find(root)].interval
        assert (iv.lo, iv.hi) == (0, 255)


class TestWidthReduction:
    def test_narrow_sum_gets_zext(self):
        # both addends bounded by 100 -> the 9-bit sum fits in 8 bits
        a = op("&", ann(7), (ann(7), var("a", ann(7))),
               (ann(7), const(100, ann(7))))
        b = op("&", ann(7), (ann(7), var("b", ann(7))),
               (ann(7), const(100, ann(7))))
        t = op("+", ann(9), (ann(7), a), (ann(7), b))
        g = EGraph()
        root, _ = g.add_term(t)
        g.rebuild()
        added = width_reduction_pass(g)
        g.rebuild()
        assert added >= 1
        kinds = {g.nodes[n].op for n in g.classes[g.find(root)].node_ids}
        assert "zext" in kinds

    def test_minimal_width_untouched(self):
        a, b = var("a", ann(8)), var("b", ann(8))
        t = op("+", ann(9), (ann(8), a), (ann(8), b))
        g = EGraph()
        root, _ = g.add_term(t)
        g.rebuild()
        width_reduction_pass(g)
        g.rebuild()
        kinds = {g.nodes[n].op for n in g.classes[g.find(root)].node_ids}
        assert kinds == {"+"}


class TestSoundnessOnFixtures:
    @pytest.mark.parametrize("name", ["fig1-scaled", "fig4", "adpcm",
                                      "boxfilter"])
    def test_random_evaluations_inside_intervals(self, name):
        import random
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)
        saturate(g, baseline_rules())
        rng = random.Random(5)
        pick = pick_nodes(g)
        for _ in range(200):
            env = {n: rng.randint(a.lo, a.hi) for n, a in spec.inputs}
            for cid, cls in g.classes.items():
                if g.find(cid) != cid or cid not in pick:
                    continue
                t = g.term(pick[cid], pick, {})
                v = evaluate(t, env)
                assert cls.interval.lo <= v <= cls.interval.hi, (name, cid)
