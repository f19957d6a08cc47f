import os
import stat
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordec.egraph import init_pair, saturate
from wordec.extract import extract_greedy, extract_ilp
from wordec.fixtures import load_pair, names
from wordec.frontend import Design, parse_sexpr
from wordec import ir
from wordec.frontend import parse_sv
from wordec.ir import (ARITY, SHIFT_OPS, Annotation, Term, const, evaluate,
                       evaluate_many, first_mismatch, op, pair_mismatches,
                       program, var)
from wordec import oracle
from wordec.oracle import (OracleConfig, OracleError, Refusal, Verdict,
                           _degree, _degrees, _grid, _programs, _splits,
                           check_equiv, grid_method, run_waterfall,
                           run_waterfall_dir)
from wordec.proof import build_waterfall, write_waterfall
from wordec.rewrites import baseline_rules

from test_ir import (_PAIR_INPUTS, _reference_first_mismatch, _shared_pairs,
                     exact_width)


def _design(name, body, inputs):
    return Design(name, tuple(inputs), "o", body)


def _ab(width=4):
    a = var("a", Annotation(width))
    b = var("b", Annotation(width))
    return a, b, [("a", Annotation(width)), ("b", Annotation(width))]


class TestCheckEquiv:
    def test_exhaustive_pass(self):
        a, b, ins = _ab()
        d1 = _design("d1", op("+", Annotation(5), (a.out, a), (b.out, b)), ins)
        d2 = _design("d2", op("+", Annotation(5), (b.out, b), (a.out, a)), ins)
        v = check_equiv(d1, d2)
        assert v.status == "pass" and v.method == "exhaustive"

    # a 70-bit output is past int64 lanes, so the oracle runs object lanes
    @pytest.mark.parametrize("out_width", [5, 70], ids=["int64", "object"])
    def test_exhaustive_first_cex_lexicographic(self, out_width):
        a, b, ins = _ab()
        out = Annotation(out_width)
        d1 = _design("d1", op("+", out, (a.out, a), (b.out, b)), ins)
        d2 = _design("d2", op("|", out, (a.out, a), (b.out, b)), ins)
        v = check_equiv(d1, d2)
        assert v.status == "fail"
        assert v.counterexample == {"a": 1, "b": 1}

    def test_sampling_when_too_wide(self):
        d1, d2 = _wide_and_pair()
        cfg = OracleConfig(max_exhaustive_bits=8, samples=500)
        v = check_equiv(d1, d2, cfg)
        assert v.status == "unproven"
        assert v.method == "random(500)"
        assert v.note == "no counterexample found by sampling"
        assert v.declined == (("exhaustive", "32 input bits > 8"),
                              ("grid", "opcode &"))

    def test_wide_polynomial_pair_passes_on_grid(self):
        # a+b vs b+a at 16 bits each: degree 1 in each, so a 2x2 grid
        a, b, ins = _ab(16)
        d1 = _design("d1", op("+", Annotation(17), (a.out, a), (b.out, b)),
                     ins)
        d2 = _design("d2", op("+", Annotation(17), (b.out, b), (a.out, a)),
                     ins)
        v = check_equiv(d1, d2, OracleConfig(max_exhaustive_bits=8))
        assert v.status == "pass" and v.method == "grid(d=1,split=0)"
        assert v.input_bits == 32 and v.note is None

    def test_wide_polynomial_mismatch_fails_on_grid(self):
        # a*b vs a+b differ at the grid point a=0, b=1; z is read by
        # neither side, so the grid leaves it out and the counterexample
        # sets it to 0.  No sample is drawn.
        a, b, ins = _ab(16)
        ins.append(("z", Annotation(16, True)))
        out = Annotation(32)
        d1 = _design("d1", op("*", out, (a.out, a), (b.out, b)), ins)
        d2 = _design("d2", op("+", out, (a.out, a), (b.out, b)), ins)
        v = check_equiv(d1, d2, OracleConfig(samples=0))
        assert (v.status, v.method) == ("fail", "grid(d=1,split=0)")
        assert v.counterexample == {"a": 0, "b": 1, "z": 0}
        assert v.note is None and v.input_bits == 48
        assert evaluate(d1.body, v.counterexample) \
            != evaluate(d2.body, v.counterexample)

    def test_sampling_finds_bug_deterministically(self):
        a, b, ins = _ab(16)
        d1 = _design("d1", op("+", Annotation(17), (a.out, a), (b.out, b)),
                     ins)
        d2 = _design("d2", op("|", Annotation(17), (a.out, a), (b.out, b)),
                     ins)
        cfg = OracleConfig(max_exhaustive_bits=8, samples=2000, seed=5)
        v1 = check_equiv(d1, d2, cfg)
        v2 = check_equiv(d1, d2, cfg)
        assert v1.status == v2.status == "fail"
        assert v1.counterexample == v2.counterexample

    def test_sampled_wide_inputs_give_real_counterexample(self):
        # 70-bit signed inputs are drawn from 32-bit words
        w = Annotation(70, True)
        a, b = var("a", w), var("b", w)
        ins = [("a", w), ("b", w)]
        out = Annotation(71, True)
        d1 = _design("d1", op("+", out, (w, a), (w, b)), ins)
        d2 = _design("d2", op("|", out, (w, a), (w, b)), ins)
        v = check_equiv(d1, d2, OracleConfig(samples=100, seed=3))
        assert v.status == "fail"
        cex = v.counterexample
        assert all(w.lo <= cex[n] <= w.hi for n in ("a", "b"))
        assert evaluate(d1.body, cex) != evaluate(d2.body, cex)

    def test_identical_bodies_short_circuit(self):
        a, b, ins = _ab(16)
        body = op("+", Annotation(17), (a.out, a), (b.out, b))
        d1 = _design("d1", body, ins)
        d2 = _design("d2", body, ins)
        v = check_equiv(d1, d2, OracleConfig(max_exhaustive_bits=1))
        assert v.status == "pass"

    def test_port_mismatch_raises(self):
        a, b, ins = _ab()
        d1 = _design("d1", op("+", Annotation(5), (a.out, a), (b.out, b)), ins)
        c = var("c", Annotation(4))
        d2 = _design("d2", op("+", Annotation(5), (c.out, c), (b.out, b)),
                     [("c", Annotation(4)), ("b", Annotation(4))])
        with pytest.raises(OracleError):
            check_equiv(d1, d2)

    def test_output_annotation_mismatch_raises(self):
        a, b, ins = _ab()
        d1 = _design("d1", op("+", Annotation(5), (a.out, a), (b.out, b)), ins)
        d2 = _design("d2", op("+", Annotation(6), (a.out, a), (b.out, b)), ins)
        with pytest.raises(OracleError):
            check_equiv(d1, d2)


def _script(tmp_path, name, exit_code):
    p = tmp_path / name
    p.write_text(f"#!/bin/sh\nexit {exit_code}\n")
    p.chmod(p.stat().st_mode | stat.S_IEXEC)
    return str(p)


def _wide_and_pair():
    """a&b vs b&a at 16 bits each: too wide to enumerate, and `&` is no
    polynomial, so the grid does not apply."""
    a, b, ins = _ab(16)
    d1 = _design("d1", op("&", Annotation(16), (a.out, a), (b.out, b)), ins)
    d2 = _design("d2", op("&", Annotation(16), (b.out, b), (a.out, a)), ins)
    return d1, d2


class TestExternalChecker:
    @pytest.mark.parametrize("code,status", [(0, "pass"), (1, "fail"),
                                             (2, "unproven")])
    def test_exit_code_mapping(self, tmp_path, code, status):
        d1, d2 = _wide_and_pair()
        cmd = _script(tmp_path, f"chk{code}.sh", code)
        cfg = OracleConfig(max_exhaustive_bits=8, samples=100,
                           external_cmd=f"{cmd} {{left}} {{right}}")
        v = check_equiv(d1, d2, cfg)
        assert v.status == status and v.method == "external"

    def test_sampling_fail_preempts_external(self, tmp_path):
        a, b, ins = _ab(16)
        d1 = _design("d1", op("+", Annotation(17), (a.out, a), (b.out, b)),
                     ins)
        d2 = _design("d2", op("|", Annotation(17), (a.out, a), (b.out, b)),
                     ins)
        cmd = _script(tmp_path, "chk.sh", 0)
        cfg = OracleConfig(max_exhaustive_bits=8, samples=5000,
                           external_cmd=f"{cmd} {{left}} {{right}}")
        v = check_equiv(d1, d2, cfg)
        assert v.status == "fail" and v.method.startswith("random")

    def test_missing_binary_unproven(self):
        d1, d2 = _wide_and_pair()
        cfg = OracleConfig(max_exhaustive_bits=8, samples=100,
                           external_cmd="/nonexistent/checker {left} {right}")
        v = check_equiv(d1, d2, cfg)
        assert v.status == "unproven" and "failed" in v.note


class TestRefusals:
    def test_each_refusal_reaches_the_report(self, tmp_path):
        """`&` is no polynomial, fig1 splits 8 bits, both pairs are too wide
        to enumerate, and a clean sample is left to the external checker;
        each tier's reason is in `declined`, in order, in the report."""
        sampled = ("random", "no counterexample found by sampling")
        pairs = {"and": (_wide_and_pair(), [
                     ("exhaustive", "32 input bits > 7"),
                     ("grid", "opcode &"), sampled]),
                 "fig1": (load_pair("fig1"), [
                     ("exhaustive", "40 input bits > 7"),
                     ("grid", "split too wide"), sampled])}
        cmd = _script(tmp_path, "chk.sh", 0)
        cfg = OracleConfig(max_exhaustive_bits=7, samples=100,
                           external_cmd=f"{cmd} {{left}} {{right}}")
        for (d1, d2), declined in pairs.values():
            v = check_equiv(d1, d2, cfg)
            assert (v.status, v.method) == ("pass", "external")
            assert list(v.declined) == declined
        w = SimpleNamespace(
            designs={f"{name}{i}": d for name, (pair, _) in pairs.items()
                     for i, d in enumerate(pair)},
            obligations=lambda: [{"kind": "step", "rule": name,
                                  "left": f"{name}0", "right": f"{name}1"}
                                 for name in pairs])
        report = run_waterfall(w, cfg).to_json()
        assert [ob["verdict"]["declined"] for ob in report["obligations"]] \
            == [[{"tier": t, "reason": r} for t, r in declined]
                for _, declined in pairs.values()]


_GRID_OPS = ("+", "-", "*", "neg", "zext", "sext", "<<")
_AMOUNT = Annotation(2)
_SMALL = (("x", Annotation(4)), ("y", Annotation(3, True)), ("s", _AMOUNT))
_WIDE = (("x", Annotation(12)), ("y", Annotation(12, True)), ("s", _AMOUNT))


def _any_ann(draw, max_width=10):
    return Annotation(draw(st.integers(1, max_width)), draw(st.booleans()))


@st.composite
def _grid_terms(draw, inputs, depth=3):
    """Terms over the grid tier's opcodes.  Slots are the child's own
    annotation or any other (which may wrap), outputs the exact one or any
    other; a shift amount is `s`, a constant, or a term that wraps (any
    opcode may appear there)."""
    anns = dict(inputs)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 4)) == 0:
            a = _any_ann(draw, 4)
            return const(draw(st.integers(a.lo, a.hi)), a)
        name = draw(st.sampled_from(("x", "y")))
        return var(name, anns[name])
    kind = draw(st.sampled_from(_GRID_OPS))
    if kind == "<<":
        x = draw(_grid_terms(inputs, depth - 1))
        s = var("s", anns["s"])
        amount = draw(st.sampled_from((
            s, const(1, _AMOUNT),
            op("&", _AMOUNT, (_AMOUNT, s), (_AMOUNT, const(2, _AMOUNT))),
            op("+", _AMOUNT, (anns["y"], var("y", anns["y"])), (_AMOUNT, s)),
        )))
        children = (x, amount)
        slots = (_slot(draw, x), _AMOUNT)
    else:
        children = [draw(_grid_terms(inputs, depth - 1))
                    for _ in range(ARITY[kind])]
        slots = tuple(_slot(draw, c) for c in children)
    out = (exact_width(kind, slots) if draw(st.integers(0, 9)) < 9
           else _any_ann(draw, 24))
    return op(kind, out, *zip(slots, children))


def _slot(draw, child):
    return child.out if draw(st.integers(0, 9)) < 9 else _any_ann(draw)


def _positions(t, at=()):
    yield at
    for i, (_, child) in enumerate(t.operands):
        yield from _positions(child, at + (i,))


@st.composite
def _grid_pairs(draw, inputs):
    """Two designs over `inputs`: a random term, and that term with one
    subterm commuted (an equivalent pair), re-annotated, or replaced."""
    t1 = draw(_grid_terms(inputs))
    at = draw(st.sampled_from(list(_positions(t1))))
    sub = t1.at(at)
    how = draw(st.sampled_from(("commute", "annotate", "replace")))
    if how == "commute" and sub.kind in ("+", "*"):
        sub = op(sub.kind, sub.out, *reversed(sub.operands))
    elif how == "annotate" and sub.operands:
        sub = op(sub.kind, _any_ann(draw, 24), *sub.operands)
    else:
        sub = draw(_grid_terms(inputs, 2))
    t2 = t1.replace(at, sub)
    # wide enough for both sides, or any other (which may wrap)
    out = (Annotation(max(t1.out.width, t2.out.width) + 1, True)
           if draw(st.integers(0, 3)) < 3 else _any_ann(draw, 40))
    zero = const(0, Annotation(1))
    return tuple(_design(n, op("+", out, (t.out, t), (zero.out, zero)),
                         inputs) for n, t in (("d1", t1), ("d2", t2)))


def _grid_verdict(d1, d2):
    """Whether the grid proves the pair (True), refutes it (False) or does
    not apply (None).  A refutation's counterexample must be a real one:
    the two original bodies differ on it."""
    try:
        cex = grid_method(d1, d2, OracleConfig(max_exhaustive_bits=64)
                          ).counterexample
    except Refusal:
        return None
    if cex is not None:
        assert set(cex) == {x for x, _ in d1.inputs}
        assert evaluate(d1.body, cex) != evaluate(d2.body, cex), cex
    return cex is None


class TestGridTier:
    @settings(max_examples=300, deadline=None)
    @given(pair=_grid_pairs(_SMALL))
    def test_grid_verdict_agrees_with_exhaustive(self, pair):
        d1, d2 = pair
        proven = _grid_verdict(d1, d2)
        if proven is not None:
            assert (first_mismatch(d1.body, d2.body, d1.inputs)
                    is None) == proven

    @settings(max_examples=200, deadline=None)
    @given(pair=_grid_pairs(_WIDE), seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_verdict_agrees_with_sampling(self, pair, seed):
        d1, d2 = pair
        if _grid_verdict(d1, d2):
            assert first_mismatch(d1.body, d2.body, d1.inputs, 2000,
                                  seed) is None

    @settings(max_examples=300, deadline=None)
    @given(t=_grid_terms(_SMALL))
    def test_degree_and_range_bounds_hold(self, t):
        """Along each input that is not split, the values of `t` have a
        vanishing difference of order one past its degree, and every value
        lies in the computed range."""
        p = program([t])
        split = _splits(p)[p.roots[0]]
        degree = _degrees(p, split)[p.roots[0]]
        if isinstance(degree, Refusal):
            return
        lo, hi = p.steps[p.roots[0]].range
        axes = [np.arange(a.lo, a.hi + 1) for _, a in _SMALL]
        grid = np.meshgrid(*axes, indexing="ij")
        env = {n: g.ravel() for (n, _), g in zip(_SMALL, grid)}
        vals = evaluate_many(t, env).astype(object).reshape(grid[0].shape)
        assert lo <= vals.min() and vals.max() <= hi
        for i, (name, _) in enumerate(_SMALL):
            if name not in split:
                k = (degree or {}).get(name, 0)
                assert not np.diff(vals, n=k + 1, axis=i).any(), (name, k)

    def test_doubling_chain_decides_or_refuses_at_once(self):
        """Each of 64 wires reads the one before twice, a tree of 2^64
        leaves: the tier's walks visit each distinct subterm once."""
        a8, big = Annotation(8), Annotation(72)
        x = var("x", a8)
        wraps, wide = x, x
        for i in range(1, 65):  # w_i = w_{i-1} + w_{i-1}
            wraps = op("+", a8, (a8, wraps), (a8, wraps))
            wide = op("+", Annotation(8 + i), (wide.out, wide),
                      (wide.out, wide))
        times = op("*", big, (big, x), (big, const(1 << 64, big)))
        ins = [("x", a8)]
        t0 = time.perf_counter()
        with pytest.raises(Refusal, match="slot wraps"):
            grid_method(_design("w", wraps, ins),
                        _design("z", const(0, a8), ins), OracleConfig())
        v = grid_method(_design("w", wide, ins), _design("t", times, ins),
                        OracleConfig())
        assert (v.status, v.method) == ("pass", "grid(d=1,split=0)")
        # x feeds a shift amount through the whole chain
        shift = op("<<", a8, (a8, const(1, a8)), (a8, wraps))
        p = program([shift])
        assert _splits(p)[p.roots[0]] == {"x"}
        assert time.perf_counter() - t0 < 1.0

    def test_methods_of_bundled_pairs(self):
        methods = {}
        for name in names():
            try:
                v = grid_method(*load_pair(name), OracleConfig())
                methods[name] = v.method
                assert v.counterexample is None
            except Refusal as e:
                methods[name] = str(e)
        assert methods == {
            "adpcm": "grid(d=1,split=0)", "boxfilter": "opcode mux",
            "fig1": "grid(d=1,split=8)", "fig1-scaled": "grid(d=1,split=4)",
            "fig4": "opcode >>", "fir8": "grid(d=1,split=0)",
            "vbsme4": "opcode <", "vbsme8": "opcode <"}

    def test_budget_reasons(self):
        fig1 = load_pair("fig1")
        with pytest.raises(Refusal, match="split too wide"):
            grid_method(*fig1, OracleConfig(max_exhaustive_bits=7))
        with pytest.raises(Refusal, match="grid too wide"):
            grid_method(*fig1, OracleConfig(max_exhaustive_bits=9))
        v = grid_method(*fig1, OracleConfig(max_exhaustive_bits=10))
        assert (v.method, v.counterexample) == ("grid(d=1,split=8)", None)

    def test_degree_two_grid(self):
        # (x+1)^2 vs x*x + 2x + 1: degree 2 in x needs 3 points, so 2 bits
        u8, u9, u17 = Annotation(8), Annotation(9), Annotation(17)
        x = var("x", u8)
        one = const(1, Annotation(1))
        sq = op("*", u17, (u9, op("+", u9, (u8, x), (one.out, one))),
                (u9, op("+", u9, (u8, x), (one.out, one))))
        two_x = op("<<", u9, (u8, x), (one.out, one))
        poly = op("+", u17, (Annotation(16), op("*", Annotation(16), (u8, x),
                                                 (u8, x))),
                  (Annotation(17), op("+", Annotation(17), (u9, two_x),
                                      (one.out, one))))
        ins = [("x", u8)]
        v = grid_method(_design("a", sq, ins), _design("b", poly, ins),
                        OracleConfig(max_exhaustive_bits=8))
        assert (v.method, v.counterexample) == ("grid(d=2,split=0)", None)

    def _unary_pair(self, x_ann, kind, slot, out):
        """kind(x) vs x itself, both read at `out`: they agree on the grid
        points 0 and 1."""
        x = var("x", x_ann)
        y = var("y", Annotation(8))
        body1 = op("+", out, (out, op(kind, out, (slot, x))), (y.out, y))
        body2 = op("+", out, (x_ann, x), (y.out, y))
        ins = [("x", x_ann), ("y", Annotation(8))]
        return _design("d1", body1, ins), _design("d2", body2, ins)

    @pytest.mark.parametrize("x_ann, kind, why", [
        (Annotation(8, True), "zext", "zext of a negative value"),
        (Annotation(8), "sext", "sext of an unsigned value past the sign bit"),
    ])
    def test_non_identity_extension_is_off_grid(self, x_ann, kind, why):
        d1, d2 = self._unary_pair(x_ann, kind, x_ann, Annotation(12, True))
        with pytest.raises(Refusal, match=why):
            grid_method(d1, d2, OracleConfig())
        v = check_equiv(d1, d2, OracleConfig(max_exhaustive_bits=4,
                                             samples=1000))
        assert v.status == "fail" and ("grid", why) in v.declined

    def test_identity_extensions_are_on_grid(self):
        # zext of an unsigned slot and sext of a signed one change nothing
        for x_ann, kind in ((Annotation(8), "zext"),
                            (Annotation(8, True), "sext")):
            d1, d2 = self._unary_pair(x_ann, kind, x_ann,
                                      Annotation(12, True))
            v = grid_method(d1, d2, OracleConfig())
            assert (v.method, v.counterexample) == ("grid(d=1,split=0)",
                                                    None)

    def test_overflow_is_off_grid(self):
        """x+y through an 8-bit slot agrees with x+y on the grid {0,1}^2
        but differs once the sum passes 255."""
        u8, u9 = Annotation(8), Annotation(9)
        x, y = var("x", u8), var("y", u8)
        wrapped = op("+", u9, (u8, op("+", u8, (u8, x), (u8, y))),
                     (Annotation(1), const(0, Annotation(1))))
        exact = op("+", u9, (u8, x), (u8, y))
        ins = [("x", u8), ("y", u8)]
        d1, d2 = _design("d1", wrapped, ins), _design("d2", exact, ins)
        with pytest.raises(Refusal, match="slot wraps"):
            grid_method(d1, d2, OracleConfig())
        v = check_equiv(d1, d2, OracleConfig(max_exhaustive_bits=8,
                                             samples=1000))
        assert v.status == "fail" and v.method == "random(1000)"
        assert v.note is None
        assert v.declined == (("exhaustive", "16 input bits > 8"),
                              ("grid", "slot wraps"))

    def test_input_too_narrow_for_its_grid_is_enumerated(self):
        # b*b*b has degree 3 in a 1-bit b: a 2-bit grid does not fit, so
        # b's whole range is enumerated
        a, b = var("a", Annotation(16)), var("b", Annotation(1))
        u2, u3 = Annotation(2), Annotation(3)
        bbb = op("*", u3, (u2, op("*", u2, (b.out, b), (b.out, b))),
                 (b.out, b))
        body1 = op("+", Annotation(17), (a.out, a), (u3, bbb))
        body2 = op("+", Annotation(17), (b.out, b), (a.out, a))
        ins = [("a", Annotation(16)), ("b", Annotation(1))]
        v = grid_method(_design("d1", body1, ins), _design("d2", body2, ins),
                        OracleConfig(max_exhaustive_bits=8))
        assert (v.method, v.counterexample) == ("grid(d=3,split=0)", None)


def _reference_split_inputs(p):
    """The inputs that feed a shift amount in `p`, marked in one pass over
    its steps in reversed post-order, where each precedes its operands."""
    below = [False] * len(p.steps)
    for i, s in reversed(list(enumerate(p.steps))):
        for pos, j in enumerate(s.args):
            below[j] |= below[i] or (pos == 1 and s.node.kind in SHIFT_OPS)
    return {s.node.name for s, b in zip(p.steps, below)
            if b and s.node.kind == "var"}


def _reference_degrees(p, split):
    """Each root's degree, or its first Refusal in operand order."""
    out = []
    for s in p.steps:
        try:
            out.append(_degree(p, s, [out[j] for j in s.args], split))
        except Refusal as e:
            out.append(e)
    return [out[r] for r in p.roots]


def _reference_grid_method(d1, d2, cfg):
    """The grid tier on one pair alone, with its own program, split and
    degrees: the reference for the batch tier."""
    inputs = dict(d1.inputs)
    p = program([d1.body, d2.body])
    split = _reference_split_inputs(p)
    degree = {}
    for r in _reference_degrees(p, split):
        if isinstance(r, Refusal):
            raise r
        for x, k in (r or {}).items():
            degree[x] = max(degree.get(x, 0), k)
    split_bits = sum(inputs[x].width for x in split)
    if split_bits > cfg.max_exhaustive_bits:
        raise Refusal("split too wide")
    grid = {x: Annotation(k.bit_length()) for x, k in degree.items()
            if (1 << k.bit_length()) - 1 <= inputs[x].hi}
    space = [(x, grid.get(x, a)) for x, a in d1.inputs
             if x in split or x in degree]
    if sum(a.width for _, a in space) > cfg.max_exhaustive_bits:
        raise Refusal("grid too wide")
    method = f"grid(d={max(degree.values(), default=0)},split={split_bits})"
    cex = pair_mismatches(p, space)[0]
    if cex is None:
        return Verdict("pass", method)
    return Verdict("fail", method,
                   {x: cex[0].get(x, 0) for x, _ in d1.inputs})


@st.composite
def _grid_chains(draw):
    """A chain of designs over _SMALL, each the one before with one subterm
    rewritten: commuted, re-annotated (which may wrap), put under a `<`
    (no polynomial), shifted by `s` (which splits it) or replaced.  So the
    chain's pairs differ in split set, degree and refusal."""
    t = draw(_grid_terms(_SMALL))
    terms = [t]
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.sampled_from(list(_positions(t))))
        sub = t.at(at)
        how = draw(st.sampled_from(
            ("commute", "annotate", "compare", "shift", "replace")))
        if how == "commute" and sub.kind in ("+", "*"):
            sub = op(sub.kind, sub.out, *reversed(sub.operands))
        elif how == "annotate" and sub.operands:
            sub = op(sub.kind, _any_ann(draw, 24), *sub.operands)
        elif how == "compare":
            sub = op("<", Annotation(1), (sub.out, sub),
                     (sub.out, const(sub.out.hi, sub.out)))
        elif how == "shift":
            sub = op("<<", Annotation(sub.out.width + 3, sub.out.signed),
                     (sub.out, sub), (_AMOUNT, var("s", _AMOUNT)))
        else:
            sub = draw(_grid_terms(_SMALL, 2))
        t = t.replace(at, sub)
        terms.append(t)
    out = (Annotation(32, True) if draw(st.integers(0, 3)) < 3
           else _any_ann(draw, 40))
    return [_design(f"d{i}", op("+", out, (t.out, t), (_ZERO.out, _ZERO)),
                    _SMALL) for i, t in enumerate(terms)]


def _waterfall(chain):
    """The waterfall of one step per link of `chain`."""
    return SimpleNamespace(
        designs={d.name: d for d in chain},
        obligations=lambda: [{"kind": "step", "rule": "r", "left": f"d{i}",
                              "right": f"d{i + 1}"}
                             for i in range(len(chain) - 1)])


class TestBatchGrid:
    """The grid tier decides every pair of a waterfall over one program,
    searching each distinct space once; each pair gets what the reference,
    the tier on that pair alone, gives it."""

    @settings(max_examples=200, deadline=None)
    @given(chain=_grid_chains(), bits=st.sampled_from((1, 3, 5, 8)))
    def test_each_pair_as_the_reference(self, chain, bits):
        """Over 9 input bits, no budget here enumerates a pair: identical
        bodies pass on `exhaustive`, and every other pair reaches the grid,
        which splits 0, 2 or 5 bits and searches up to 9."""
        cfg = OracleConfig(max_exhaustive_bits=bits, samples=0)
        pairs = list(zip(chain, chain[1:]))
        batch = _grid(pairs, _programs(pairs), cfg)
        rep = run_waterfall(_waterfall(chain), cfg)
        for i, ((d1, d2), (_, v)) in enumerate(zip(pairs, rep.verdicts)):
            try:
                want = _reference_grid_method(d1, d2, cfg)
            except Refusal as e:
                assert isinstance(batch[i], Refusal) and str(batch[i]) == str(e)
                assert v.method == "exhaustive" or ("grid", str(e)) in v.declined
                continue
            got = (want.status, want.method, want.counterexample)
            assert (batch[i].status, batch[i].method,
                    batch[i].counterexample) == got
            assert v.method == "exhaustive" or (
                v.status, v.method, v.counterexample) == got
            if want.counterexample is not None:
                assert evaluate(d1.body, want.counterexample) \
                    != evaluate(d2.body, want.counterexample)


class TestOneProgram:
    """A check compiles its designs once, one program per input list."""

    @staticmethod
    def _count(monkeypatch) -> list:
        calls = []

        def counted(roots):
            calls.append(len(roots))
            return compile_program(roots)

        compile_program = ir.program
        monkeypatch.setattr(ir, "program", counted)
        monkeypatch.setattr(oracle, "program", counted)
        return calls

    @pytest.mark.parametrize("name", ["fig1", "vbsme8"])
    def test_one_program_per_input_list(self, monkeypatch, name):
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)
        rules = baseline_rules()
        saturate(g, rules)
        w = build_waterfall(g, spec, impl, extract_greedy(g), rules)
        checked = [ob for ob in w.obligations()
                   if ob["kind"] != "assume-guarantee"]
        calls = self._count(monkeypatch)
        rep = run_waterfall(w, OracleConfig(samples=1000))
        assert len(calls) == len({w.designs[ob["left"]].inputs
                                  for ob in checked}) == 1
        assert calls == [2 * len(checked)]
        methods = {v.method.split("(")[0] for _, v in rep.verdicts}
        assert {"grid" if name == "fig1" else "random"} <= methods
        calls.clear()
        check_equiv(spec, impl, OracleConfig(samples=1000))
        assert calls == [2]


_WIDTHS = (1, 2, 3, 4, 5, 8, 13)
_WIDE_SLOT = Annotation(70, True)  # past int64 lanes
_ZERO = const(0, Annotation(1))


@st.composite
def _chains(draw):
    """A chain of designs over _PAIR_INPUTS, each the one before with one
    subterm rewritten: commuted, sent through a 70-bit slot (which puts
    the design on object lanes and changes no value), copied as a new
    object, re-annotated or replaced (either may change the value)."""
    t = draw(_shared_pairs(_WIDTHS))[0]
    terms = [t]
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.sampled_from(list(_positions(t))))
        sub = t.at(at)
        how = draw(st.sampled_from(
            ("commute", "widen", "copy", "annotate", "replace")))
        if how == "commute" and sub.kind in ("+", "*", "&", "|", "^", "=="):
            sub = op(sub.kind, sub.out, *reversed(sub.operands))
        elif how == "widen":
            sub = op("+", sub.out, (_WIDE_SLOT, sub), (_ZERO.out, _ZERO))
        elif how == "copy":
            sub = Term(sub.kind, sub.out, sub.name, sub.value, sub.operands,
                       sub.indices)
        elif how == "annotate" and sub.kind not in ("var", "const"):
            sub = op(sub.kind, _any_ann(draw, 13), *sub.operands,
                     indices=sub.indices)
        elif how == "replace":
            sub = draw(_shared_pairs(_WIDTHS))[0]
        t = t.replace(at, sub)
        terms.append(t)
    out = Annotation(12, True)
    return [_design(f"d{i}", op("+", out, (t.out, t), (_ZERO.out, _ZERO)),
                    _PAIR_INPUTS) for i, t in enumerate(terms)]


def _fields(v):
    return (v.status, v.method, v.counterexample, v.note, v.declined,
            v.input_bits)


class TestSharedPass:
    """`run_waterfall` runs the tier chain over all of a waterfall's
    obligations at once; each verdict is the one `check_equiv` gives on
    that pair alone."""

    @settings(max_examples=150, deadline=None)
    @given(chain=_chains(), bits=st.sampled_from((4, 20)),
           samples=st.integers(0, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_each_verdict_as_alone(self, chain, bits, samples, seed):
        """Over 9 input bits, 4 exhaustive bits leave most pairs to the
        grid and to sampling.  Batches and slices of a few rows make a
        space span several, and the two lane types draw batches of
        different sizes."""
        cfg = OracleConfig(max_exhaustive_bits=bits, samples=samples,
                           seed=seed)
        steps = [{"kind": "step", "rule": "r", "left": f"d{i}",
                  "right": f"d{i + 1}"} for i in range(len(chain) - 1)]
        w = SimpleNamespace(
            designs={d.name: d for d in chain},
            obligations=lambda: steps + [{
                "kind": "assume-guarantee", "rule": None, "left": "d0",
                "right": chain[-1].name}])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ir, "INT64_ROWS", 96)
            mp.setattr(ir, "OBJECT_ROWS", 40)
            mp.setattr(ir, "SLICE_ROWS", 32)
            rep = run_waterfall(w, cfg)
            for (ob, v), d1, d2 in zip(rep.verdicts, chain, chain[1:]):
                alone = check_equiv(d1, d2, cfg)
                assert _fields(v) == _fields(alone), ob
                if v.method == "exhaustive":
                    want = _reference_first_mismatch(d1.body, d2.body,
                                                     _PAIR_INPUTS)
                elif v.method.startswith("random"):
                    want = _reference_first_mismatch(
                        d1.body, d2.body, _PAIR_INPUTS, samples, seed)
                else:
                    continue
                assert v.counterexample == (want and want[0])
        assert rep.verdicts[-1][1].status == rep.assume_guarantee
        assert sum(v.elapsed for _, v in rep.verdicts) > 0

    def test_time_is_split_over_the_pairs(self):
        """Each tier's time is split evenly over the pairs it took: the
        three sampled pairs share one pass, so they read the same."""
        d1, d2 = _wide_and_pair()
        w = SimpleNamespace(
            designs={"a": d1, "b": d2},
            obligations=lambda: [{"kind": "step", "rule": "r", "left": "a",
                                  "right": "b"}] * 3)
        rep = run_waterfall(w, OracleConfig(max_exhaustive_bits=8,
                                            samples=20_000))
        elapsed = [v.elapsed for _, v in rep.verdicts]
        assert elapsed[0] > 0 and len(set(elapsed)) == 1
        assert [v.method for _, v in rep.verdicts] == ["random(20000)"] * 3

    def test_copies_of_a_doubling_chain_pass_at_once(self):
        """Two separately read copies of a 40-wire chain w_i = w_{i-1} +
        w_{i-1}, a tree of 2^40 leaves, are one term: `exhaustive` sees
        their one root step without enumerating the input or comparing
        the trees."""
        wires = [f"w{i}" for i in range(1, 41)]
        text = "\n".join([
            "module chain(x, o);", "  input [7:0] x;", "  output [7:0] o;",
            f"  wire [7:0] {', '.join(wires)};",
            *(f"  assign {w} = {v} + {v};"
              for w, v in zip(wires, ["x"] + wires)),
            "  assign o = w40;", "endmodule"])
        t0 = time.perf_counter()
        d1, d2 = parse_sv(text), parse_sv(text)
        assert d1.body is not d2.body
        v = check_equiv(d1, d2, OracleConfig(max_exhaustive_bits=0))
        assert (v.status, v.method, v.declined) == ("pass", "exhaustive", ())
        assert time.perf_counter() - t0 < 1.0


def _build(name, rules=None):
    spec, impl = load_pair(name)
    g = init_pair(spec, impl)
    rules = rules or baseline_rules()
    saturate(g, rules)
    res = extract_ilp(g, timeout=20.0)
    return build_waterfall(g, spec, impl, res, rules)


class TestRunWaterfall:
    def test_scaled_case_study_all_pass(self):
        w = _build("fig1-scaled")
        rep = run_waterfall(w, OracleConfig(max_exhaustive_bits=16))
        assert rep.overall == "pass"
        assert rep.assume_guarantee == "pass"
        for ob, v in rep.verdicts:
            assert v.status == "pass", (ob, v)

    def test_boxfilter_center_discharged(self):
        w = _build("boxfilter")
        rep = run_waterfall(w, OracleConfig(max_exhaustive_bits=16))
        assert rep.overall == "pass"
        kinds = [ob["kind"] for ob, _ in rep.verdicts]
        assert "center" in kinds

    def test_report_json_shape(self):
        w = _build("fig4")
        rep = run_waterfall(w, OracleConfig(max_exhaustive_bits=16))
        j = rep.to_json()
        assert j["overall"] == "pass"
        assert all({"left", "right", "rule", "kind", "verdict"} <= set(ob)
                   for ob in j["obligations"])
        assert not any(k.startswith("_") for ob in j["obligations"]
                       for k in ob)


class TestRunWaterfallDir:
    @pytest.mark.parametrize("name", names())
    def test_round_trip_matches_in_memory(self, tmp_path, name):
        spec, impl = load_pair(name)
        g = init_pair(spec, impl)
        rules = baseline_rules()
        saturate(g, rules)
        w = build_waterfall(g, spec, impl, extract_greedy(g), rules)
        manifest = write_waterfall(w, tmp_path)
        assert manifest["designs"] == list(w.designs)
        cfg = OracleConfig(max_exhaustive_bits=16)
        mem = run_waterfall(w, cfg)
        disk = run_waterfall_dir(tmp_path, cfg)
        assert disk.overall == mem.overall
        if name == "fig4":
            assert mem.overall == "pass"
        assert [ob for ob, _ in mem.verdicts] == manifest["obligations"] \
            == w.obligations() == [ob for ob, _ in disk.verdicts]
        assert [v.status for _, v in mem.verdicts] \
            == [v.status for _, v in disk.verdicts]

    def test_missing_artifact_is_unproven(self, tmp_path):
        w = _build("fig1-scaled")
        write_waterfall(w, tmp_path)
        victims = sorted((tmp_path / "steps").glob("001_*.ir"))
        assert victims
        os.remove(victims[0])
        rep = run_waterfall_dir(tmp_path, OracleConfig(max_exhaustive_bits=16))
        assert rep.overall == "unproven"
        assert any(v.status == "unproven" and "missing artifact" in (v.note or
                                                                     "")
                   for _, v in rep.verdicts)
        # an unreadable artifact is not checked, so it has no input width
        for _, v in rep.verdicts:
            unread = "missing artifact" in (v.note or "")
            assert ("input_bits" in v.to_json()) == (
                not unread and v.method != "assume-guarantee")

    def test_corrupted_step_fails_overall(self, tmp_path):
        w = _build("fig4")
        write_waterfall(w, tmp_path)
        victim = sorted((tmp_path / "steps").glob("001_*.ir"))[0]
        d = parse_sexpr(victim.read_text())
        # sabotage: swap the body for a constant-zero design of same ports
        from wordec.frontend import emit_sexpr
        from wordec.ir import const
        bad = Design(d.name, d.inputs, d.output, const(0, d.body.out))
        victim.write_text(emit_sexpr(bad))
        rep = run_waterfall_dir(tmp_path, OracleConfig(max_exhaustive_bits=16))
        assert rep.overall == "fail"
        assert rep.assume_guarantee == "fail"
