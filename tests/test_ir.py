import copy
import itertools
import math
import operator
import pickle
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordec import ir
from wordec.ir import (ARITY, ROW_INT64_WIDTH, SHIFT_OPS, Annotation, IrError,
                       RowAnnotation, RowTerm, Term, UnboundVariableError,
                       coerce, const, evaluate, evaluate_many,
                       first_mismatch, first_mismatches, fit, min_width, op,
                       op_value_range, pair_mismatches, var, vectorizable)


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
        # a term's stored hash stays behind: a str hashes differently in a
        # process with another hash seed
        hash(t)
        assert "_hash" in vars(t)
        assert "_hash" not in vars(pickle.loads(pickle.dumps(t)))


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


def exact_width(kind, slots, indices=None, out_width=None):
    """Smallest output annotation under which `evaluate` never truncates,
    over all representable operand values; a `<<` amount is clamped at
    `out_width` as in `op_value_range`."""
    ranges = [(s.lo, s.hi) for s in slots]
    lo, hi = op_value_range(kind, tuple(slots), ranges, indices, out_width)
    return Annotation(min_width(lo, hi, lo < 0), lo < 0)


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


class TestWideShiftAmount:
    """A `<<` with a 40- or 62-bit amount slot: the range, lane and width
    computations clamp the amount at the output width, as the lanes do,
    instead of building an integer of about 2^40 bits."""

    @pytest.mark.parametrize("amount_width", [40, 62])
    def test_lanes_and_exact_width_sound(self, amount_width):
        x, y = var("x", ann(8)), var("y", ann(amount_width))
        slots = (ann(8), ann(amount_width))
        t = op("<<", ann(8), (slots[0], x), (slots[1], y))
        # a 62-bit amount slot is past int64 lanes
        assert vectorizable(t) == (amount_width < 62)
        envs = [{"x": vx, "y": vy} for vx in (0, 1, 5, 255)
                for vy in (0, 1, 7, 8, 9, 40, (1 << amount_width) - 1)]
        arrs = {n: np.array([e[n] for e in envs], dtype=np.int64)
                for n in ("x", "y")}
        assert evaluate_many(t, arrs).tolist() == [evaluate(t, e)
                                                   for e in envs]
        wide = exact_width("<<", slots, out_width=8)
        assert wide == ann(16)
        tw = op("<<", wide, (slots[0], x), (slots[1], y))
        for e in envs:
            assert coerce(evaluate(tw, e), wide, ann(8)) == evaluate(t, e)
            if e["y"] <= 8:
                assert evaluate(tw, e) == e["x"] << e["y"]


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


class TestFirstMismatches:
    """One `RowTerm` pair, `(kind x y)` on both sides with x coerced into
    the output annotation, over a grid of instances: every x, y and output
    annotation in a small range, the output past ROW_INT64_WIDTH when
    `wide`.  y is coerced into the output annotation too, where a product
    then needs 80 bits, except as a shift amount, which keeps y's own
    annotation.  The annotations are columns 0 (x), 1 (y) and 2 (output)."""

    @pytest.mark.parametrize("wide", [False, True], ids=["int64", "exact"])
    @pytest.mark.parametrize("kinds", [("*", "|"), ("<<", "*")])
    def test_each_instance_as_first_mismatch(self, kinds, wide,
                                             monkeypatch):
        lanes, sizes, run = set(), [], ir._run

        def recording(p, env, exact, shape, *args):
            lanes.add(exact)
            sizes.append(math.prod(shape))
            return run(p, env, exact, shape, *args)

        grid = list(itertools.product(
            (1, 2, 3), (False, True), (1, 2), (False, True),
            (2, ROW_INT64_WIDTH + 9) if wide else (2, 3), (False, True)))
        cols = [np.array(c) for c in zip(*grid)]
        columns = [RowAnnotation.of(cols[i], cols[i + 1]) for i in (0, 2, 4)]
        operands = ((2, RowTerm("var", 0, name="x")),
                    (1 if kinds[0] in SHIFT_OPS else 2,
                     RowTerm("var", 1, name="y")))
        a, b = (RowTerm(k, 2, operands) for k in kinds)
        inputs = [("x", 0), ("y", 1)]
        instances = np.flatnonzero(np.arange(len(grid)) % 5 != 3)
        monkeypatch.setattr(ir, "ROWS", 7)  # spaces span batches
        with monkeypatch.context() as m:  # the scalar reference runs too
            m.setattr(ir, "_run", recording)
            got = first_mismatches(ir.program([a, b]), columns, inputs,
                                   instances)
        assert got and set(got) <= set(instances.tolist())
        for i in instances.tolist():
            wx, sx, wy, sy, wo, so = grid[i]
            xa, ya, oa = ann(wx, sx), ann(wy, sy), ann(wo, so)
            ys = ya if kinds[0] in SHIFT_OPS else oa
            scalar = [op(k, oa, (oa, var("x", xa)), (ys, var("y", ya)))
                      for k in kinds]
            want = first_mismatch(*scalar, [("x", xa), ("y", ya)])
            assert got.get(i) == want, grid[i]
        assert lanes == {wide}
        # a pair that never differs runs every space whole, each assignment
        # once, in batches of at most ROWS entries
        sizes.clear()
        with monkeypatch.context() as m:
            m.setattr(ir, "_run", recording)
            assert first_mismatches(ir.program([a, a]), columns, inputs,
                                    instances) == {}
        assert max(sizes) <= 7
        assert sum(sizes) == sum(2 ** (grid[i][0] + grid[i][2])
                                 for i in instances.tolist())


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

    def test_equality_reads_every_field_past_equal_hashes(self):
        # with every stored hash forced equal, only the walk tells apart
        def make(kind="+", out=5, slot=4, name="x", value=3):
            t = op(kind, ann(out), (ann(slot), var(name, ann(4))),
                   (ann(4), const(value, ann(4))))
            for node in (t, t.operands[0][1], t.operands[1][1]):
                object.__setattr__(node, "_hash", 0)
            return t

        base = make()
        assert base == make() and base is not make()
        for field, other in [("kind", "-"), ("out", 6), ("slot", 5),
                             ("name", "y"), ("value", 2)]:
            assert base != make(**{field: other}), field

    def test_bad_arity_rejected(self):
        with pytest.raises(IrError):
            op("+", ann(5), (ann(4), var("a", ann(4))))

    @pytest.mark.parametrize("make, message", [
        (lambda a: Term("var", a), "var terms need a name"),
        (lambda a: Term("const", a, value=16),
         "constant 16 not representable"),
        (lambda a: Term("neg", a, operands=((a, var("x", a)),) * 2),
         "neg expects 1 operands, got 2"),
        (lambda a: Term("slice", a, operands=((a, var("x", a)),)),
         r"slice needs \(hi, lo\) indices"),
        (lambda a: Term("slice", a, operands=((a, var("x", a)),),
                        indices=(1, 2)), r"bad slice indices \(1, 2\)"),
        (lambda a: Term("slice", a, operands=((a, var("x", a)),),
                        indices=(5, 2)),
         r"bad slice indices \(5, 2\) for a 4-bit operand"),
        (lambda a: Term("%", a, operands=((a, var("x", a)),) * 2),
         "unknown opcode: %"),
    ], ids=["unnamed-var", "unrepresentable-const", "arity",
            "slice-no-indices", "slice-bad-indices", "slice-past-operand",
            "unknown-opcode"])
    def test_malformed_term_rejected(self, make, message):
        with pytest.raises(IrError, match=message):
            make(ann(4))


class TestFit:
    @pytest.mark.parametrize("a", [ann(w, s) for w in (1, 2, 3)
                                   for s in (False, True)])
    def test_holds_every_coerced_value(self, a):
        # the range a coercion into `a` can produce: the same range when
        # `a` holds it (coercion is then the identity), else all of `a`
        for lo, hi in itertools.combinations_with_replacement(range(-9, 10),
                                                              2):
            got = {coerce(v, a, a) for v in range(lo, hi + 1)}
            f_lo, f_hi = fit(lo, hi, a)
            assert got <= set(range(f_lo, f_hi + 1)), (lo, hi)
            if a.lo <= lo and hi <= a.hi:
                assert (f_lo, f_hi) == (lo, hi)
            else:
                assert (f_lo, f_hi) == (a.lo, a.hi)


# ---------------------------------------------------------------------------
# The recursive tree walk that `ir.program` replaced, kept as the reference:
# every occurrence of a subterm is evaluated, and a coercion is skipped only
# when its annotations alone show it to be the identity.
# ---------------------------------------------------------------------------

def _reference_bound(t):
    """Max bits any exact intermediate of `t` can need (pre-truncation)."""
    worst = t.out.width + 1  # +1: signed magnitude
    for slot, child in t.operands:
        worst = max(worst, slot.width + 1, _reference_bound(child))
    if t.kind in ARITY:
        slots = tuple(slot for slot, _ in t.operands)
        lohi = [(s.lo, s.hi) for s in slots]
        lo, hi = op_value_range(t.kind, slots, lohi, t.indices, t.out.width)
        worst = max(worst, max(abs(lo), abs(hi)).bit_length() + 1)
    return worst


class _ReferenceLanes:
    def __init__(self, exact, env):
        self.dtype = object if exact else np.int64
        self.env = env
        self.rows = len(next(iter(env.values()))) if env else 1

    def bits(self, v, a):
        return v & a.mask

    def interpret(self, bits, a):
        if not a.signed:
            return bits
        return (bits ^ a.sign) - a.sign

    def coerce(self, v, src, dst):
        if src is dst or (dst.lo <= src.lo and src.hi <= dst.hi):
            return v
        return self.interpret(self.bits(v, dst), dst)

    def value(self, t):
        if t.kind == "var":
            return np.asarray(self.env[t.name], dtype=self.dtype)
        if t.kind == "const":
            return np.broadcast_to(np.asarray(t.value, dtype=self.dtype),
                                   self.rows)
        vals = [self.coerce(self.value(child), child.out, slot)
                for slot, child in t.operands]
        slots = [slot for slot, _ in t.operands]
        k = t.kind
        if k in ("+", "-", "*", "&", "|", "^"):
            r = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "&": operator.and_, "|": operator.or_,
                 "^": operator.xor}[k](vals[0], vals[1])
        elif k == "neg":
            r = -vals[0]
        elif k == "~":
            r = ~vals[0]
        elif k in SHIFT_OPS:
            amt = self.bits(vals[1], slots[1])
            if k == "<<":
                r = vals[0] << np.minimum(amt, t.out.width)
            elif k == ">>":
                r = (self.bits(vals[0], slots[0])
                     >> np.minimum(amt, slots[0].width))
            else:
                r = vals[0] >> np.minimum(amt, slots[0].width)
        elif k == "mux":
            r = np.where(vals[0] != 0, vals[1], vals[2])
        elif k == "concat":
            r = ((self.bits(vals[0], slots[0]) << slots[1].width)
                 | self.bits(vals[1], slots[1]))
        elif k == "slice":
            hi, lo = t.indices
            r = (self.bits(vals[0], slots[0]) >> lo) & ((1 << (hi - lo + 1))
                                                        - 1)
        elif k == "==":
            r = (vals[0] == vals[1]).astype(self.dtype)
        elif k == "<":
            r = (vals[0] < vals[1]).astype(self.dtype)
        elif k == "zext":
            r = self.bits(vals[0], slots[0])
        else:
            assert k == "sext"
            sign = 1 << (slots[0].width - 1)
            r = (self.bits(vals[0], slots[0]) ^ sign) - sign
        return self.interpret(self.bits(r, t.out), t.out)


def _reference_evaluate_many(t, env):
    return _ReferenceLanes(_reference_bound(t) > 62, env).value(t)


def _reference_first_mismatch(a, b, inputs, samples=None, seed=0):
    names = [n for n, _ in inputs]
    anns = [x for _, x in inputs]
    sizes = [x.hi - x.lo + 1 for x in anns]
    total = math.prod(sizes) if samples is None else samples
    rng = np.random.default_rng(seed) if samples is not None else None
    for start in range(0, total, ir.ROWS):
        n = min(ir.ROWS, total - start)
        if samples is None:
            idx = (np.unravel_index(np.arange(start, start + n), sizes)
                   if sizes else ())
            env = {nm: i + x.lo for nm, i, x in zip(names, idx, anns)}
        else:
            env = {nm: ir._draw(rng, x, n) for nm, x in zip(names, anns)}
        va = _reference_evaluate_many(a, env)
        vb = _reference_evaluate_many(b, env)
        bad = np.flatnonzero(va != vb)
        if bad.size:
            i = int(bad[0])
            return ({nm: int(env[nm][i]) for nm in names},
                    int(va[i]), int(vb[i]))
    return None


_PAIR_INPUTS = [("a", ann(3)), ("b", ann(2, True)), ("c", ann(4))]


@st.composite
def _shared_pairs(draw, widths):
    """Two terms over _PAIR_INPUTS that share subterm objects: a random
    term built from a pool that reuses its members, and that term with one
    subterm replaced by another pool member (or a structurally equal copy
    of the whole).  The pool also holds structurally equal distinct
    objects, and nodes that differ from another only in one slot."""
    anns = st.builds(Annotation, st.sampled_from(widths), st.booleans())
    pool = [var(n, a) for n, a in _PAIR_INPUTS]
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.integers(0, 9))
        if how == 0:
            a = draw(anns)
            pool.append(const(draw(st.integers(a.lo, a.hi)), a))
            continue
        if how == 1:
            t = draw(st.sampled_from(pool))
            pool.append(Term(t.kind, t.out, t.name, t.value, t.operands,
                             t.indices))
            continue
        kind = draw(st.sampled_from(sorted(ARITY)))

        def slot(i):
            if kind in SHIFT_OPS and i == 1:  # a narrow shift amount
                return Annotation(draw(st.integers(1, 6)), draw(st.booleans()))
            return draw(anns)

        operands = [(slot(i), draw(st.sampled_from(pool)))
                    for i in range(ARITY[kind])]
        indices = None
        if kind == "slice":
            w = operands[0][0].width
            lo = draw(st.integers(0, w - 1))
            indices = (draw(st.integers(lo, w - 1)), lo)
        t = op(kind, draw(anns), *operands, indices=indices)
        pool.append(t)
        if draw(st.booleans()):  # the same node but for one slot
            i = draw(st.integers(0, len(operands) - 1))
            a = slot(i)
            if kind == "slice":  # a slot that still holds the sliced bits
                a = Annotation(max(a.width, indices[0] + 1), a.signed)
            operands[i] = (a, operands[i][1])
            pool.append(op(kind, t.out, *operands, indices=indices))
    a = pool[-1]
    if draw(st.integers(0, 4)) == 0:
        b = Term(a.kind, a.out, a.name, a.value, a.operands, a.indices)
    else:
        at = ()
        while a.at(at).operands and draw(st.booleans()):
            at += (draw(st.integers(0, len(a.at(at).operands) - 1)),)
        b = a.replace(at, draw(st.sampled_from(pool)))
    return a, b


class TestProgram:
    """`program` against the recursive reference walk and scalar
    `evaluate`, on term pairs that share subterms, as a waterfall step's
    two designs do."""

    @pytest.mark.parametrize("widths", [(1, 2, 3, 4, 5, 8, 13),
                                        (1, 3, 8, 33, 47, 64, 70)],
                             ids=["int64", "exact"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_reference_walk(self, widths, data):
        a, b = data.draw(_shared_pairs(widths))
        if widths[-1] > 62:  # a root past int64 puts the pair on objects
            a, b = (op("zext", ann(70), (t.out, t)) for t in (a, b))
        p = ir.program([a, b])
        assert p.vectorizable == (widths[-1] < 62)
        assert p.vectorizable == (_reference_bound(a) <= 62
                                  and _reference_bound(b) <= 62)
        assert vectorizable(a) == (_reference_bound(a) <= 62)
        grid = np.meshgrid(*(np.arange(x.lo, x.hi + 1)
                             for _, x in _PAIR_INPUTS), indexing="ij")
        env = {n: g.ravel() for (n, _), g in zip(_PAIR_INPUTS, grid)}
        got = [v.tolist() for v in evaluate_many(p, env)]
        assert got == [_reference_evaluate_many(t, env).tolist()
                       for t in (a, b)]
        assert evaluate_many(a, env).tolist() == got[0]
        # a select of the roots in the other order, and of b alone
        q = ir.select(p, p.roots[::-1])
        assert [v.tolist() for v in evaluate_many(q, env)] == got[::-1]
        assert q.vectorizable == p.vectorizable
        assert ir.select(p, p.roots[1:]).vectorizable == vectorizable(b)
        for row in range(0, len(env["a"]), 37):
            e = {n: int(v[row]) for n, v in env.items()}
            assert [evaluate(a, e), evaluate(b, e)] == [g[row] for g in got]
        # batches of a few rows, so that a space spans several
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ir, "ROWS", 40)
            assert (first_mismatch(a, b, _PAIR_INPUTS)
                    == _reference_first_mismatch(a, b, _PAIR_INPUTS))
            samples = data.draw(st.integers(1, 300))
            seed = data.draw(st.integers(0, 2 ** 32 - 1))
            assert (first_mismatch(a, b, _PAIR_INPUTS, samples, seed)
                    == _reference_first_mismatch(a, b, _PAIR_INPUTS,
                                                 samples, seed))

    def test_distinct_subterms_are_one_step(self):
        x, y = var("x", ann(4)), var("y", ann(4))
        s1 = op("+", ann(5), (ann(4), x), (ann(4), y))
        s2 = op("+", ann(5), (ann(4), var("x", ann(4))), (ann(4), y))
        s3 = op("+", ann(5), (ann(4, True), x), (ann(4), y))  # one slot
        a = op("*", ann(10), (ann(5), s1), (ann(5), s2))
        b = op("*", ann(10), (ann(5), s2), (ann(5), s3))
        p = ir.program([a, b])
        # post-order: x, y, s1 (= s2), a, s3, b
        assert [s.node for s in p.steps] == [x, y, s1, a, s3, b]
        assert p.roots == [3, 5]
        assert [s.args for s in p.steps] == [(), (), (0, 1), (2, 2), (0, 1),
                                             (2, 4)]
        # each array is dropped after its last use, and a root never
        assert p.drops == [[], [], [], [], [0, 1], [2, 4]]

    def test_select_keeps_the_steps_below_its_roots(self):
        x, y = var("x", ann(4)), var("y", ann(4))
        s1 = op("+", ann(5), (ann(4), x), (ann(4), y))
        s3 = op("+", ann(5), (ann(4, True), x), (ann(4), y))
        a = op("*", ann(10), (ann(5), s1), (ann(5), s1))
        b = op("*", ann(10), (ann(5), s1), (ann(5), s3))
        one = const(1, ann(60))
        wide = op("*", ann(70), (ann(10), a), (ann(60), one))
        p = ir.program([a, b, wide])
        assert not p.vectorizable
        q = ir.select(p, [p.roots[1], p.roots[0]])
        # p's steps but the two of `wide` alone, in p's order, as they are
        # but for their operands' new numbers
        kept = [s for s in p.steps if s.node not in (one, wide)]
        assert len(kept) == 6
        assert [s._replace(args=()) for s in q.steps] \
            == [s._replace(args=()) for s in kept]
        assert [[q.steps[j].node for j in s.args] for s in q.steps] \
            == [[p.steps[j].node for j in s.args] for s in kept]
        assert [q.steps[r].node for r in q.roots] == [b, a]
        # each array is dropped after its last use, and a root never
        last = {j: i for i, s in enumerate(q.steps) for j in s.args}
        assert q.drops == [[j for j, k in last.items()
                            if k == i and j not in q.roots]
                           for i in range(6)]
        assert q.vectorizable
        assert ir.select(p, []) == ([], [], [], True)

    def test_identity_coercions_and_truncations(self):
        x = var("x", ann(4))
        fits = op("+", ann(5), (ann(4), x), (ann(8, True), x))
        wraps = op("+", ann(4), (ann(4), x), (ann(3), x))
        p = ir.program([fits, wraps])
        f, w = (p.steps[r] for r in p.roots)
        assert f.same == (True, True) and f.fits and f.range == (0, 30)
        # a 3-bit slot can wrap x, and the sum can wrap 4 bits
        assert w.same == (True, False) and not w.fits
        assert w.range == (0, 15)

    def test_row_terms_alike_are_one_step(self):
        # annotations are column indices: a slot that reads its operand's
        # output column coerces nothing
        x = RowTerm("var", 0, name="x")
        s1 = RowTerm("+", 0, ((0, x), (0, x)))
        s2 = RowTerm("+", 0, ((0, x), (0, x)))  # equal, not the same
        p = ir.program([RowTerm("*", 0, ((0, s1), (0, s1))),
                        RowTerm("*", 0, ((0, s2), (0, s1))),
                        RowTerm("-", 1, ((0, s2), (1, x)))])
        assert len(p.steps) == 4
        assert p.roots == [2, 2, 3]
        assert [s.same for s in p.steps] == [
            (), (True, True), (True, True), (True, False)]


class TestPairMismatches:
    """`pair_mismatches` checks many pairs in one pass and finds, for each,
    what `first_mismatch` finds on that pair alone."""

    def _pairs(self):
        """Over two 8-bit inputs: a pair that differs on the first row, one
        that never differs, and one that differs only on the last."""
        u1, u8, u9 = ann(1), ann(8), ann(9)
        x, y = var("x", u8), var("y", u8)
        top = const(255, u8)
        last = op("&", u1, (u1, op("==", u1, (u8, x), (u8, top))),
                  (u1, op("==", u1, (u8, y), (u8, top))))
        return [(op("+", u9, (u8, x), (u1, const(1, u1))),
                 op("+", u9, (u8, x), (u1, const(0, u1)))),
                (op("+", u9, (u8, x), (u8, y)), op("+", u9, (u8, y), (u8, x))),
                (last, const(0, u1))], [("x", u8), ("y", u8)]

    def test_mismatch_in_first_slice_while_others_run_to_end(self,
                                                             monkeypatch):
        pairs, inputs = self._pairs()
        calls = []

        def counted(p, env):
            calls.append(len(env["x"]))
            return evaluate_many(p, env)

        monkeypatch.setattr(ir, "evaluate_many", counted)
        got = pair_mismatches(pairs, inputs)
        assert got == [({"x": 0, "y": 0}, 1, 0), None,
                       ({"x": 255, "y": 255}, 1, 0)]
        # 2^16 rows, a batch of ROWS at a time, to the end of the space
        assert calls == [ir.ROWS] * ((1 << 16) // ir.ROWS)
        assert got == [first_mismatch(a, b, inputs) for a, b in pairs]
        p = ir.program([t for pair in pairs for t in pair])
        assert pair_mismatches(p, inputs) == got
        assert pair_mismatches([], inputs) == []
        for samples, seed in ((100_000, 0), (300, 9)):
            assert pair_mismatches(pairs, inputs, samples, seed) == [
                first_mismatch(a, b, inputs, samples, seed) for a, b in pairs]

    def test_mixed_lanes_meet_the_same_rows(self):
        """A pair whose own program runs on object lanes and pairs on int64
        lanes, checked together, run on object lanes; every batch has one
        size on either lane type, so a seed draws the same rows for each
        pair as it draws for that pair alone."""
        u16, u17 = ann(16), ann(17)
        x, y = var("x", u16), var("y", u16)
        add = op("+", u17, (u16, x), (u16, y))
        wide = op("+", u17, (ann(70, True), add), (ann(1), const(0, ann(1))))
        orr = op("|", u17, (u16, x), (u16, y))
        inputs = [("x", u16), ("y", u16)]
        pairs = [(add, orr), (wide, orr), (add, orr)]
        assert [ir.program(pair).vectorizable for pair in pairs] \
            == [True, False, True]
        assert not ir.program([t for pair in pairs for t in pair]).vectorizable
        for samples, seed in ((100_000, 7), (None, 0)):
            got = pair_mismatches(pairs, inputs, samples, seed)
            assert got == [first_mismatch(a, b, inputs, samples, seed)
                           for a, b in pairs]
            # `wide` computes `add`: the three pairs meet the same rows
            assert got[0] is not None and got[0] == got[1] == got[2]

    @pytest.mark.parametrize("samples", [None, 10_000],
                             ids=["enumerated", "drawn"])
    @pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
    def test_no_batch_longer_than_rows(self, wide, samples, monkeypatch):
        """Every batch is enumerated or drawn, and evaluated, at most ROWS
        rows at a time, on either lane type, and together the batches
        cover the space or the samples."""
        u8, u9 = ann(8), ann(9)
        x, y = var("x", u8), var("y", u8)
        a = op("+", u9, (u8, x), (u8, y))
        if wide:
            a = op("+", u9, (ann(70, True), a), (ann(1), const(0, ann(1))))
        b = op("+", u9, (u8, y), (u8, x))
        assert ir.program([a, b]).vectorizable != wide
        evaluated, drawn = [], []
        run, draw = ir.evaluate_many, ir._draw

        def counted_run(p, env):
            evaluated.append(len(env["x"]))
            return run(p, env)

        def counted_draw(rng, a, n):
            drawn.append(n)
            return draw(rng, a, n)

        monkeypatch.setattr(ir, "evaluate_many", counted_run)
        monkeypatch.setattr(ir, "_draw", counted_draw)
        inputs = [("x", u8), ("y", u8)]
        assert pair_mismatches([(a, b)], inputs, samples, 3) == [None]
        assert max(evaluated) == ir.ROWS
        assert sum(evaluated) == (1 << 16 if samples is None else samples)
        if samples is None:
            assert drawn == []
        else:
            assert max(drawn) <= ir.ROWS
            assert drawn == [n for n in evaluated for _ in inputs]


class TestDeepAndSharedTerms:
    """The evaluator walks are iterative and visit each distinct subterm
    once, so a deep chain needs no deep recursion and a chain of wires that
    each read the one before twice (a tree of 2^n leaves) is linear."""

    def test_deep_chain_under_default_recursion_limit(self):
        a8 = ann(8)
        x = var("x", a8)
        t = x
        for _ in range(2000):
            t = op("+", a8, (a8, t), (a8, const(1, a8)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert vectorizable(t)
            xs = np.arange(256)
            assert evaluate_many(t, {"x": xs}).tolist() \
                == ((xs + 2000) % 256).tolist()
            same = op("+", a8, (a8, x), (a8, const(2000 % 256, a8)))
            assert first_mismatch(t, same, [("x", a8)]) is None
            assert first_mismatch(t, same, [("x", a8)], 500, 3) is None
            assert first_mismatch(t, x, [("x", a8)]) == ({"x": 0}, 208, 0)
        finally:
            sys.setrecursionlimit(limit)

    def test_hash_and_equality_of_deep_chain(self):
        a8 = ann(8)

        def chain(minus_at=None):
            t = var("x", a8)
            for i in range(2000):
                t = op("-" if i == minus_at else "+", a8, (a8, t),
                       (a8, const(1, a8)))
            return t

        t, copy_, changed = chain(), chain(), chain(minus_at=1000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert hash(t) == hash(copy_)
            assert t == copy_ and t is not copy_
            assert t != changed
        finally:
            sys.setrecursionlimit(limit)
        # the value is the hash of the fields, the operand tuples included
        assert hash(t) == hash((t.kind, t.out, t.name, t.value, t.operands,
                                t.indices))

    def test_doubling_chain_is_linear(self):
        a8 = ann(8)
        x = var("x", a8)
        w = x
        for _ in range(64):  # w_i = w_{i-1} + w_{i-1}, mod 2^8
            w = op("+", a8, (a8, w), (a8, w))
        t0 = time.perf_counter()
        assert vectorizable(w)
        assert len(ir.program([w]).steps) == 65
        assert not evaluate_many(w, {"x": np.arange(256)}).any()
        zero = const(0, a8)
        assert first_mismatch(w, zero, [("x", a8)]) is None
        assert first_mismatch(w, zero, [("x", a8)], 100_000, 1) is None
        assert first_mismatch(w, x, [("x", a8)]) == ({"x": 1}, 0, 1)
        assert time.perf_counter() - t0 < 1.0
