import copy
import itertools
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordec.ir import (ARITY, SHIFT_OPS, Annotation, IrError, Term,
                       UnboundVariableError, coerce, const, evaluate,
                       evaluate_many, exact_width, min_width, op,
                       op_value_range, var, vectorizable)


def ann(w, s=False):
    return Annotation(w, s)


class TestAnnotation:
    def test_range(self):
        assert (ann(8).lo, ann(8).hi) == (0, 255)
        assert (ann(8, True).lo, ann(8, True).hi) == (-128, 127)

    def test_invalid_width(self):
        with pytest.raises(IrError, match="width must be >= 1, got 0"):
            Annotation(0)
        with pytest.raises(IrError):
            Annotation(-3, True)


class TestAnnotationInterning:
    """Annotation(w, s) is one object per (w, s), which keeps the value
    semantics of a (width, signed) pair."""

    PAIRS = [(w, s) for w in (1, 2, 3, 4, 8, 31, 64, 65)
             for s in (False, True)]

    def test_equal_pairs_are_one_object(self):
        assert Annotation(4, 1) is Annotation(4, True)
        assert Annotation(4) is Annotation(4, False) is Annotation(4, 0)
        assert Annotation(np.int64(4), np.bool_(True)) is Annotation(4, True)
        assert Annotation(width=5, signed=True) is Annotation(5, True)
        assert Annotation(4) is not Annotation(4, True)
        a = Annotation(np.int64(7))
        assert type(a.width) is int and type(a.signed) is bool

    def test_non_integer_width_rejected(self):
        with pytest.raises(TypeError):
            Annotation(4.0)

    def test_equality_and_hash_follow_the_pair(self):
        for p, q in itertools.product(self.PAIRS, repeat=2):
            a, b = Annotation(*p), Annotation(*q)
            assert (a == b) == (p == q) and (a != b) == (p != q)
            if p == q:
                assert hash(a) == hash(b)
        assert Annotation(4) != (4, False)
        assert len({Annotation(w, s) for w, s in self.PAIRS * 2}) \
            == len(self.PAIRS)

    def test_order_is_the_pair_order(self):
        shuffled = list(reversed(self.PAIRS))
        assert [(a.width, a.signed) for a in
                sorted(Annotation(*p) for p in shuffled)] == sorted(shuffled)
        assert Annotation(4, True) > Annotation(4) >= Annotation(4)
        assert Annotation(3, True) <= Annotation(4) < Annotation(4, True)
        with pytest.raises(TypeError):
            Annotation(4) < (5, False)

    def test_repr_and_str(self):
        assert repr(Annotation(4)) == "Annotation(width=4, signed=False)"
        assert repr(Annotation(8, True)) == "Annotation(width=8, signed=True)"
        assert str(Annotation(4)) == "4 unsigned"
        assert str(Annotation(8, True)) == "8 signed"
        a = Annotation(4, True)
        assert (a.lo, a.hi, a.mask, a.sign, a.signage) \
            == (-8, 7, 15, 8, "signed")
        assert a.contains(-8) and not a.contains(8)

    def test_immutable(self):
        a = Annotation(4)
        with pytest.raises(AttributeError):
            a.width = 5
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(AttributeError):
            del a.signed
        assert Annotation(4).width == 4

    def test_pickle_and_copy_give_the_same_object(self):
        a = Annotation(12, True)
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, proto)) is a
        assert copy.copy(a) is a
        assert copy.deepcopy(a) is a
        t = op("+", Annotation(5), (Annotation(4), var("x", Annotation(4))),
               (Annotation(4), const(3, Annotation(4))))
        assert pickle.loads(pickle.dumps(t)) == t
        assert copy.deepcopy(t).out is t.out


class TestCoerce:
    def test_identity(self):
        assert coerce(255, ann(8), ann(8)) == 255

    def test_sign_extend_reinterpret(self):
        # -1 as 8-bit signed is 0xFF; sign-extended to 9 bits it is 0x1FF.
        assert coerce(-1, ann(8, True), ann(9)) == 511

    def test_truncate(self):
        assert coerce(300, ann(9), ann(8)) == 44

    def test_round_trip_widening(self):
        for w1, w2 in ((4, 6), (8, 8), (3, 11)):
            for s1 in (False, True):
                for s2 in (False, True):
                    a, b = ann(w1, s1), ann(w2, s2)
                    for v in range(a.lo, a.hi + 1):
                        assert coerce(coerce(v, a, b), b, a) == v


class TestEvaluate:
    def test_add_exact(self):
        t = op("+", ann(9), (ann(8), var("a", ann(8))),
               (ann(8), var("b", ann(8))))
        assert evaluate(t, {"a": 255, "b": 255}) == 510

    def test_add_wraparound(self):
        t = op("+", ann(8), (ann(8), var("a", ann(8))),
               (ann(8), var("b", ann(8))))
        assert evaluate(t, {"a": 255, "b": 1}) == 0

    def test_shift_fig1_widths(self):
        t = op("<<", ann(31), (ann(16), var("A", ann(16))),
               (ann(4), var("M", ann(4))))
        assert evaluate(t, {"A": 1, "M": 15}) == 32768

    def test_unbound_variable_named(self):
        t = var("zz", ann(4))
        with pytest.raises(UnboundVariableError, match="zz"):
            evaluate(t, {})

    def test_mux(self):
        t = op("mux", ann(4), (ann(1), var("c", ann(1))),
               (ann(4), var("a", ann(4))), (ann(4), var("b", ann(4))))
        assert evaluate(t, {"c": 1, "a": 3, "b": 9}) == 3
        assert evaluate(t, {"c": 0, "a": 3, "b": 9}) == 9

    def test_arithmetic_shift_signed(self):
        t = op(">>>", ann(4, True), (ann(4, True), var("a", ann(4, True))),
               (ann(2), const(1, ann(2))))
        assert evaluate(t, {"a": -8}) == -4
        assert evaluate(t, {"a": 7}) == 3

    def test_slice(self):
        t = op("slice", ann(4), (ann(8), var("a", ann(8))), indices=(5, 2))
        assert evaluate(t, {"a": 0b10110100}) == 0b1101


class TestExactWidth:
    def test_mul(self):
        assert exact_width("*", (ann(16), ann(16))) == ann(32)

    def test_shift(self):
        assert exact_width("<<", (ann(16), ann(4))) == ann(31)

    def test_add(self):
        assert exact_width("+", (ann(4), ann(4))) == ann(5)

    def test_exactness_small_widths(self):
        # With the exact output annotation, no operand values can truncate.
        for opname in ("+", "*", "<<"):
            for w1, w2 in itertools.product((1, 2, 3), repeat=2):
                slots = (ann(w1), ann(w2 if opname != "<<" else min(w2, 2)))
                out = exact_width(opname, slots)
                wide = Annotation(out.width + 2, out.signed)
                a = var("a", slots[0])
                b = var("b", slots[1])
                t1 = op(opname, out, (slots[0], a), (slots[1], b))
                t2 = op(opname, wide, (slots[0], a), (slots[1], b))
                for va in range(slots[0].lo, slots[0].hi + 1):
                    for vb in range(slots[1].lo, slots[1].hi + 1):
                        env = {"a": va, "b": vb}
                        assert evaluate(t1, env) == evaluate(t2, env)


class TestMinWidth:
    def test_values(self):
        assert min_width(0, 0, False) == 1
        assert min_width(0, 255, False) == 8
        assert min_width(0, 256, False) == 9
        assert min_width(-1, 0, True) == 1
        assert min_width(-129, 0, True) == 9


def _random_ann(rng):
    return ann(rng.choice([1, 2, 3, 4, 5, 8, 13, 33, 47, 64, 70]),
               rng.random() < 0.5)


def _random_term(rng, depth, inputs):
    """Random term over every opcode, with random slot and output
    annotations, so operands get resized and results truncated."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            a = _random_ann(rng)
            return const(rng.randint(a.lo, a.hi), a)
        name, a = inputs[rng.randrange(len(inputs))]
        return var(name, a)
    kind = rng.choice(sorted(ARITY))
    operands = []
    for i in range(ARITY[kind]):
        slot = (ann(rng.randint(1, 6), rng.random() < 0.5)
                if kind in SHIFT_OPS and i == 1 else _random_ann(rng))
        operands.append((slot, _random_term(rng, depth - 1, inputs)))
    indices = None
    if kind == "slice":
        lo = rng.randrange(operands[0][0].width)
        indices = (rng.randint(lo, operands[0][0].width - 1), lo)
    return op(kind, _random_ann(rng), *operands, indices=indices)


class TestEvaluateMany:
    def test_matches_scalar_on_random_terms(self):
        import random
        rng = random.Random(11)
        inputs = [("a", ann(4)), ("b", ann(5)), ("c", ann(3, True)),
                  ("d", ann(45, True))]
        kinds, lanes = set(), set()
        for _ in range(300):
            t = _random_term(rng, 3, inputs)
            kinds.add(t.kind)
            lanes.add(vectorizable(t))
            envs = [{n: rng.randint(a.lo, a.hi) for n, a in inputs}
                    for _ in range(64)]
            arrs = {n: np.array([e[n] for e in envs], dtype=np.int64)
                    for n, _ in inputs}
            got = evaluate_many(t, arrs)
            want = [evaluate(t, e) for e in envs]
            assert got.tolist() == want, t
        assert kinds >= set(ARITY) and lanes == {True, False}

    def test_not_vectorizable_when_wide(self):
        a = var("a", ann(40))
        t = op("*", ann(80), (ann(40), a), (ann(40), a))
        assert not vectorizable(t)


class TestOpValueRange:
    def test_add(self):
        lo, hi = op_value_range("+", (ann(9), ann(9)), [(0, 100), (0, 100)])
        assert (lo, hi) == (0, 200)

    def test_sub_signed_corners(self):
        lo, hi = op_value_range("-", (ann(5, True), ann(5, True)),
                                [(0, 15), (0, 15)])
        assert (lo, hi) == (-15, 15)

    @pytest.mark.parametrize("kind", ["&", "|", "^"])
    def test_bitwise_contains_every_result(self, kind):
        # mixed signage: 1 (1 bit, unsigned) & -1 (1 bit, signed) is 1
        fn = {"&": operator.and_, "|": operator.or_, "^": operator.xor}[kind]
        anns = [ann(w, s) for w in (1, 2, 3) for s in (False, True)]
        for a, b in itertools.product(anns, repeat=2):
            lo, hi = op_value_range(kind, (a, b), [(a.lo, a.hi), (b.lo, b.hi)])
            for x in range(a.lo, a.hi + 1):
                for y in range(b.lo, b.hi + 1):
                    assert lo <= fn(x, y) <= hi, (a, b, x, y)


@settings(max_examples=200, deadline=None)
@given(v=st.integers(-(1 << 12), (1 << 12) - 1),
       w1=st.integers(1, 14), s1=st.booleans(),
       w2=st.integers(1, 14), s2=st.booleans())
def test_coerce_total_and_representable(v, w1, s1, w2, s2):
    a, b = Annotation(w1, s1), Annotation(w2, s2)
    v = a.lo + (v - a.lo) % (a.hi - a.lo + 1)   # clamp into a's range
    got = coerce(v, a, b)
    assert b.lo <= got <= b.hi


class TestTermStructure:
    def test_replace_and_at(self):
        a = var("a", ann(4))
        b = var("b", ann(4))
        t = op("+", ann(5), (ann(4), a), (ann(4), b))
        assert t.at((0,)) == a
        t2 = t.replace((1,), a)
        assert t2.at((1,)) == a
        assert t2 != t

    def test_bad_arity_rejected(self):
        with pytest.raises(IrError):
            op("+", ann(5), (ann(4), var("a", ann(4))))
