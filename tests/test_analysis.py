import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_frontend import _designs

from wordec.analysis import (AnalysisError, Interval, interval_make,
                             interval_merge, refine_intervals,
                             width_reduction_pass)
from wordec.egraph import EGraph, NodeRec, init_pair, saturate
from wordec.extract import pick_nodes
from wordec.fixtures import load_pair
from wordec.frontend import Design, parse_sexpr
from wordec.ir import (ARITY, Annotation, const, evaluate, fit, min_width,
                       op, op_value_range, var)
from wordec.rewrites import baseline_rules


def ann(w, s=False):
    return Annotation(w, s)


def _design(body, inputs):
    return Design("d", tuple(inputs), "o", body)


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

    @pytest.mark.parametrize("amount_width", [40, 62])
    def test_wide_shift_amount_sound(self, amount_width):
        x, y = var("x", ann(8)), var("y", ann(amount_width))
        for out in (ann(8), ann(16, True)):
            t = op("<<", out, (ann(8), x), (ann(amount_width), y))
            g, root = self._graph_for(t, [("x", ann(8)),
                                          ("y", ann(amount_width))])
            iv = g.classes[g.find(root)].interval
            for vx in (0, 1, 255):
                for vy in (0, 1, 8, 15, 16, (1 << amount_width) - 1):
                    assert iv.contains(evaluate(t, {"x": vx, "y": vy}))

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
        added = width_reduction_pass(g, node_limit=1000)
        g.rebuild()
        assert added >= 1
        kinds = {g.nodes[n].op for n in g.classes[g.find(root)].node_ids}
        assert "zext" in kinds

    def test_later_nodes_read_the_interval_a_narrowing_left(self):
        # class {x + y, y + x} spans [0, 30], 5 bits; x + y's zext'd 5-bit
        # copy is already in a class pinned to 3.  Narrowing x + y joins
        # that class, so y + x is narrowed to the 2 bits of [3, 3]
        a4, a5, a8 = ann(4), ann(5), ann(8)
        x, y = var("x", a4), var("y", a4)
        g = EGraph()
        _, xy = g.add_term(op("+", a8, (a4, x), (a4, y)))
        _, yx = g.add_term(op("+", a8, (a4, y), (a4, x)))
        _, wide = g.add_term(op("zext", a8, (a5, op("+", a5, (a4, x),
                                                   (a4, y)))))
        _, three = g.add_term(const(3, a8))
        g.union(xy, yx, "test")
        g.union(wide, three, "test")
        g.rebuild()
        width_reduction_pass(g, node_limit=1000)
        assert sorted({n.out.width for n in g.nodes if n.op == "+"}) \
            == [2, 5, 8]

    def test_minimal_width_untouched(self):
        a, b = var("a", ann(8)), var("b", ann(8))
        t = op("+", ann(9), (ann(8), a), (ann(8), b))
        g = EGraph()
        root, _ = g.add_term(t)
        g.rebuild()
        width_reduction_pass(g, node_limit=1000)
        g.rebuild()
        kinds = {g.nodes[n].op for n in g.classes[g.find(root)].node_ids}
        assert kinds == {"+"}


# Every slot annotation up to 3 bits and output annotation up to 4 bits.
_SLOT_ANNS = [Annotation(w, s) for w in (1, 2, 3) for s in (False, True)]
_OUT_ANNS = [Annotation(w, s) for w in (1, 2, 3, 4) for s in (False, True)]


def _narrowing_mismatches(too_far: int) -> tuple[dict[str, int], int]:
    """Narrow every node the width-reduction pass narrows, one opcode over
    variables of its slot annotations, to `too_far` bits below the width
    its interval needs, as the pass does at 0: the node's interval is
    taken bottom-up through `interval_make`.  Returns the narrowings per
    opcode, and the number whose zext/sext differs from the node on some
    input."""
    cases: dict[str, int] = {}
    mismatches = 0
    for kind, arity in ARITY.items():
        if kind in ("zext", "sext"):
            continue  # the pass does not narrow them
        for slots in itertools.product(_SLOT_ANNS, repeat=arity):
            index_pairs = [None] if kind != "slice" else [
                (hi, lo) for hi in range(slots[0].width)
                for lo in range(hi + 1)]
            xs = [var(f"x{i}", a) for i, a in enumerate(slots)]
            kids = [interval_make(NodeRec("var", a, (), (), x.name), [])
                    for x, a in zip(xs, slots)]
            operands = list(zip(slots, xs))
            envs = [dict(zip((x.name for x in xs), values))
                    for values in itertools.product(
                        *(range(a.lo, a.hi + 1) for a in slots))]
            for indices, out in itertools.product(index_pairs, _OUT_ANNS):
                lo, hi = interval_make(NodeRec(
                    kind, out, slots, tuple(range(arity)),
                    indices=indices), kids)
                narrow_w = min_width(lo, hi, out.signed) - too_far
                if narrow_w >= out.width or narrow_w < 1:
                    continue
                cases[kind] = cases.get(kind, 0) + 1
                narrow = Annotation(narrow_w, out.signed)
                wide = op(kind, out, *operands, indices=indices)
                wrapped = op("sext" if out.signed else "zext", out, (
                    narrow, op(kind, narrow, *operands, indices=indices)))
                mismatches += any(evaluate(wide, env) != evaluate(wrapped, env)
                                  for env in envs)
    return cases, mismatches


class TestNarrowingSoundness:
    """What the width-reduction pass adds equals the node it narrows, on
    every opcode it narrows.  `WidthReduceRule.validate`, the catalogue
    audit's check of the pass, covers only `+`."""

    def test_every_narrowed_opcode(self):
        cases, mismatches = _narrowing_mismatches(0)
        assert set(cases) == set(ARITY) - {"zext", "sext"}
        assert sum(cases.values()) > 1000 and mismatches == 0

    def test_one_bit_too_far_is_caught(self):
        cases, mismatches = _narrowing_mismatches(1)
        assert mismatches > sum(cases.values()) // 2

    @settings(max_examples=300, deadline=None)
    @given(slots=st.tuples(*[st.sampled_from(_OUT_ANNS)] * 2),
           out=st.sampled_from(_OUT_ANNS),
           ends=st.lists(st.integers(-20, 20), min_size=4, max_size=4))
    def test_sum_fast_path_is_the_general_rule(self, slots, out, ends):
        # `+` has its own path in interval_make; the general one fits each
        # child into its slot, takes op_value_range and fits the output
        kids = [Interval(min(ends[:2]), max(ends[:2])),
                Interval(min(ends[2:]), max(ends[2:]))]
        ranges = [fit(*iv, a) for iv, a in zip(kids, slots)]
        want = fit(*op_value_range("+", slots, ranges, None, out.width), out)
        assert interval_make(NodeRec("+", out, slots, (0, 1)), kids) == want


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


def _sample_envs(d: Design, seed: int) -> list[dict]:
    rng = random.Random(seed)
    envs = [{n: a.lo for n, a in d.inputs}, {n: a.hi for n, a in d.inputs}]
    return envs + [{n: rng.randint(a.lo, a.hi) for n, a in d.inputs}
                   for _ in range(30)]


class TestIntervalProperties:
    """Random annotated terms over all 18 opcodes, drawn by the strategy of
    the frontend round-trip property."""

    @settings(max_examples=300, deadline=None)
    @given(d=_designs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_values_inside_class_intervals(self, d, seed):
        g = EGraph()
        g.add_term(d.body)
        g.rebuild()
        classes: dict = {}  # subterm -> its class

        def collect(t):
            if t not in classes:
                classes[t] = g.find(g.lookup(t))
                for _, child in t.operands:
                    collect(child)

        collect(d.body)
        for env in _sample_envs(d, seed):
            for t, cid in classes.items():
                v = evaluate(t, env)
                assert g.classes[cid].interval.contains(v), (t, env, v)

    @settings(max_examples=300, deadline=None)
    @given(d=_designs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_width_reduction_keeps_class_members_equal(self, d, seed):
        g = EGraph()
        g.add_term(d.body)
        g.rebuild()
        width_reduction_pass(g, node_limit=10_000)
        g.rebuild()
        pick, memo = pick_nodes(g), {}
        members = {cid: [g.term(nid, pick, memo) for nid in cls.node_ids]
                   for cid, cls in g.classes.items() if g.find(cid) == cid}
        for env in _sample_envs(d, seed):
            for cid, terms in members.items():
                values = {evaluate(t, env) for t in terms}
                assert len(values) == 1, (cid, env, values)
                assert g.classes[cid].interval.contains(values.pop())
