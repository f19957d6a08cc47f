import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordec
from wordec.fixtures import PAIRS, load_design, load_pair, names
from wordec.frontend import (Design, ParseError, emit_sexpr, emit_sv,
                             parse_sexpr, parse_sv)
from wordec.ir import ARITY, Annotation, Term, evaluate, evaluate_many


def ann(w, s=False):
    return Annotation(w, s)


class TestSexpr:
    def test_simple_add(self):
        d = parse_sexpr("""
        (design adder
          (inputs (a 8 unsigned) (b 8 unsigned))
          (output o 9 unsigned)
          (+ 9 unsigned 8 unsigned (var a 8 unsigned)
             8 unsigned (var b 8 unsigned)))
        """)
        assert d.name == "adder"
        assert d.body.kind == "+"
        assert d.body.out == ann(9)
        assert evaluate(d.body, {"a": 255, "b": 255}) == 510

    def test_passthrough(self):
        d = parse_sexpr("(design p (inputs (a 8 unsigned)) "
                        "(output o 8 unsigned) (var a 8 unsigned))")
        assert d.body.kind == "var"

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse_sexpr("(design bad (inputs (a 8 unsigned)) "
                        "(output o 9 unsigned) "
                        "(+ 9 unsigned 8 unsigned (var a 8 unsigned)))")

    def test_body_annotation_mismatch_located(self):
        with pytest.raises(ParseError, match=r"^design p: body annotation "
                                             r"\(8 unsigned\) does not match "
                                             r"output port \(9 unsigned\) "
                                             r"at line 3, column 3$"):
            parse_sexpr("(design p (inputs (a 8 unsigned))\n"
                        " (output o 9 unsigned)\n"
                        "  (var a 8 unsigned))")

    def test_round_trip_token_identical(self):
        for name in names():
            for stem_design in load_pair(name):
                text = emit_sexpr(stem_design)
                again = parse_sexpr(text)
                assert again.body == stem_design.body
                assert emit_sexpr(again) == text


class TestParseSv:
    def test_fig1a_shape(self):
        d, _ = load_pair("fig1", fmt="sv")
        assert d.body.out == ann(63)
        assert d.body.kind == "*"
        shifts = [c for _, c in d.body.operands]
        assert all(c.kind == "<<" and c.out == ann(31) for c in shifts)

    def test_fig1b_shape(self):
        _, d = load_pair("fig1", fmt="sv")
        assert d.body.kind == "<<"
        (s1, c1), (s2, c2) = d.body.operands
        assert c1.kind in ("*", "zext") and d.body.out == ann(63)

    def test_passthrough_assign(self):
        d = parse_sv("module p(a, o); input [7:0] a; output [7:0] o;\n"
                     "assign o = a; endmodule")
        assert d.body.kind == "var" and d.body.name == "a"

    def test_unsized_literal_and_precedence(self):
        d = parse_sv("module m(a, o); input [3:0] a; output [5:0] o;\n"
                     "assign o = a * 2 + 3; endmodule")
        for v in range(16):
            assert evaluate(d.body, {"a": v}) == v * 2 + 3

    def test_signed_wires(self):
        d = parse_sv("module m(a, b, o);\n"
                     "  input signed [3:0] a, b;\n"
                     "  output signed [4:0] o;\n"
                     "  assign o = a + b; endmodule")
        assert d.body.out == ann(5, True)
        assert evaluate(d.body, {"a": -8, "b": -8}) == -16

    def test_ternary_is_mux(self):
        d = parse_sv("module m(c, a, b, o); input c; input [3:0] a, b;\n"
                     "output [3:0] o; assign o = c ? a : b; endmodule")
        assert d.body.kind == "mux"

    def test_concat_and_slice(self):
        d = parse_sv("module m(a, o); input [7:0] a; output [7:0] o;\n"
                     "assign o = {a[3:0], a[7:4]}; endmodule")
        assert evaluate(d.body, {"a": 0xA5}) == 0x5A

    def test_always_comb(self):
        d = parse_sv("module m(a, o); input [3:0] a; output [4:0] o;\n"
                     "always_comb o = a + a; endmodule")
        assert evaluate(d.body, {"a": 15}) == 30

    @pytest.mark.parametrize("text, expected", [
        ("module m(a, b, o); input [3:0] a, b; output [4:0] o;\n"
         "logic [4:0] t;\n"
         "always_comb begin t = a + b; o = t + 1; end endmodule",
         lambda a, b: a + b + 1),
        ("module m(a, b, o); input [3:0] a, b; output [5:0] o;\n"
         "assign o = (a + b) * 2; endmodule",
         lambda a, b: (a + b) * 2),
        ("module m(a, b, o); input [3:0] a; input [1:0] b; output [6:0] o;\n"
         "assign o = a <<< b; endmodule",
         lambda a, b: a << b),
        ("module m(a, b, o); input [3:0] a; input [1:0] b; output [3:0] o;\n"
         "assign o = a >>> b; endmodule",
         lambda a, b: a >> b),
        ("module m(a, b, o); input [3:0] a, b; output o;\n"
         "assign o = a[3] ^ b[0]; endmodule",
         lambda a, b: (a >> 3 ^ b) & 1),
        ("module m(input [7:0] a, b, output [8:0] o);\n"
         "assign o = a + b; endmodule",
         lambda a, b: a + b),
    ], ids=["always-comb-block", "parentheses", "arithmetic-left-shift",
            "unsigned-arithmetic-right-shift", "bit-select",
            "port-list-declarations"])
    def test_documented_construct(self, text, expected):
        d = parse_sv(text)
        (na, aa), (nb, ab) = d.inputs
        assert (na, nb) == ("a", "b") and not (aa.signed or ab.signed)
        a, b = (x.ravel() for x in np.meshgrid(
            np.arange(aa.hi + 1), np.arange(ab.hi + 1), indexing="ij"))
        np.testing.assert_array_equal(
            evaluate_many(d.body, {"a": a, "b": b}), expected(a, b))

    def test_shared_wires_read_once(self):
        # w_i = w_{i-1} + w_{i-1}: a check that walks the body as a tree
        # takes 2^24 steps here, seconds where the reader takes milliseconds
        n = 24
        lines = ["module dbl(x, o);", "input [7:0] x; output [7:0] o;",
                 "wire [7:0] w0;", "assign w0 = x;"]
        for i in range(1, n):
            lines += [f"wire [7:0] w{i};",
                      f"assign w{i} = w{i - 1} + w{i - 1};"]
        lines += [f"assign o = w{n - 1};", "endmodule"]
        t0 = time.perf_counter()
        d = parse_sv("\n".join(lines))
        assert time.perf_counter() - t0 < 0.5
        t = d.body
        for _ in range(n - 1):
            assert t.kind == "+" and t.operands[0][1] is t.operands[1][1]
            t = t.operands[0][1]
        assert t.kind == "var"

    def test_shared_wires_hash_and_emit_once(self):
        # w_i = w_{i-1} + w_{i-1} over 40 wires: a hash of the whole tree,
        # which emit_sv's memo takes for every wire, visits 2^40 leaves
        # unless each subterm stores its own
        lines = ["module dbl(x, o);", "input [7:0] x; output [7:0] o;"]
        lines += [f"wire [7:0] w{i}; assign w{i} = {v} + {v};"
                  for i, v in zip(range(1, 41), ["x"] + [f"w{i}" for i in
                                                         range(1, 40)])]
        lines += ["assign o = w40;", "endmodule"]
        d = parse_sv("\n".join(lines))
        t0 = time.perf_counter()
        t = d.body
        assert hash(t) == hash((t.kind, t.out, t.name, t.value, t.operands,
                                t.indices))
        text = emit_sv(d)
        assert time.perf_counter() - t0 < 0.5
        assert text.count(" + ") == 40

    @pytest.mark.parametrize("n", [40, 64])
    def test_shared_wires_compare_once(self, n):
        # two separately read copies of w_i = w_{i-1} + w_{i-1}: `==` that
        # walks both bodies as trees visits 2^n pairs of leaves
        def chain(minus_at=None):
            lines = ["module dbl(x, o);", "input [7:0] x; output [7:0] o;"]
            for i in range(1, n + 1):
                v = "x" if i == 1 else f"w{i - 1}"
                o = "-" if i == minus_at else "+"
                lines.append(f"wire [7:0] w{i}; assign w{i} = {v} {o} {v};")
            lines += [f"assign o = w{n};", "endmodule"]
            return parse_sv("\n".join(lines)).body

        a, b, c = chain(), chain(), chain(minus_at=n // 2)
        assert a is not b
        for other, equal in ((b, True), (c, False)):
            t0 = time.perf_counter()
            assert (a == other) is equal
            assert time.perf_counter() - t0 < 1.0

    def test_multiply_driven_rejected(self):
        with pytest.raises(ParseError, match="driv"):
            parse_sv("module m(a, o); input [3:0] a; output [3:0] o;\n"
                     "assign o = a; assign o = a; endmodule")

    def test_cycle_rejected(self):
        with pytest.raises(ParseError):
            parse_sv("module m(a, o); input [3:0] a; output [3:0] o;\n"
                     "wire [3:0] x, y;\n"
                     "assign x = y; assign y = x; assign o = x; endmodule")

    def test_cycle_located_at_its_assignment(self):
        with pytest.raises(ParseError, match=r"^combinational cycle through "
                                             r"'x' at line 3, column 1$"):
            parse_sv("module m(a, o); input [3:0] a; output [3:0] o;\n"
                     "wire [3:0] x, y;\n"
                     "assign x = y; assign y = x; assign o = x; endmodule")

    def test_dependency_error_in_source_order(self):
        # six undriven wires: an error named in hash order would differ
        # between the two seeds, or name another wire than the first
        src = ("module m(a, o); input [3:0] a; output [3:0] o;\n"
               "wire [3:0] u, t, s, r, q, p;\n"
               "assign o = p + q + r + s + t + u; endmodule")
        code = ("import sys\n"
                "from wordec.frontend import ParseError, parse_sv\n"
                "try:\n"
                "    parse_sv(sys.stdin.read())\n"
                "except ParseError as e:\n"
                "    print(e)\n")
        path = str(Path(wordec.__file__).parent.parent)
        messages = []
        for seed in ("0", "4242"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       [path, os.environ.get("PYTHONPATH", "")])}
            r = subprocess.run([sys.executable, "-c", code], input=src,
                               capture_output=True, text=True, env=env,
                               timeout=60, check=True)
            messages.append(r.stdout.strip())
        assert messages[0] == messages[1]
        assert messages[0].startswith("signal 'p' is never driven at line 3")

    # lines 3 to 5 of a module over `a`, with wires x and y
    _WIRES = ("module m(a, o); input [3:0] a; output [3:0] o;\n"
              "wire [3:0] x; wire [1:0] y;\n{}\n{}\n{}\nendmodule")

    @pytest.mark.parametrize("lines, message", [
        (("assign o = x;", "assign x = y;", "assign y = a << x;"),
         "combinational cycle through 'x' at line 4, column 1"),
        (("assign o = x;", "assign x = a + y;", "assign y = x[1:0];"),
         "combinational cycle through 'x' at line 4, column 1"),
        (("assign o = x;", "assign x = a << y;", ""),
         "signal 'y' is never driven at line 4, column 1"),
        (("assign o = x;", "assign x = a + y[1:0];", ""),
         "signal 'y' is never driven at line 4, column 1"),
    ], ids=["cycle-through-shift-amount", "cycle-through-slice",
            "undriven-shift-amount", "undriven-slice"])
    def test_error_behind_shift_amount_or_slice_located(self, lines,
                                                        message):
        # each error is located at the assignment it arises in, not at the
        # output's assignment that leads there
        with pytest.raises(ParseError) as e:
            parse_sv(self._WIRES.format(*lines))
        assert str(e.value) == message

    def test_shift_names_its_value_before_its_amount(self):
        # two undriven wires under one shift: the first in source order
        with pytest.raises(ParseError, match=r"^signal 'y' is never driven "
                                             r"at line 4, column 1$"):
            parse_sv("module m(a, o); input [3:0] a; output [3:0] o;\n"
                     "wire [3:0] x, y, z;\nassign o = x;\n"
                     "assign x = y << z; endmodule")

    def test_unread_wire_not_elaborated(self):
        # out of range, never driven and cyclic, but read by nothing the
        # output reads
        d = parse_sv(self._WIRES.format("assign x = a[9:2] + y;",
                                        "assign y = y;", "assign o = a;"))
        assert d.body == Term("var", ann(4), name="a")

    def test_unsupported_construct_named(self):
        with pytest.raises(ParseError):
            parse_sv("module m(a, o); input [3:0] a; output [3:0] o;\n"
                     "always @(posedge a) o = a; endmodule")

    def test_non_integer_range_bound_located(self):
        with pytest.raises(ParseError, match=r"^expected an integer, got 'a' "
                                             r"at line 2, column 8$"):
            parse_sv("module m(x, o);\n"
                     "input [a:0] x; output [3:0] o;\n"
                     "assign o = x; endmodule")

    @pytest.mark.parametrize("text, token, line, column", [
        ("module m(x, o); input [3:0] x, (; output [3:0] o;\n"
         "assign o = x; endmodule", "(", 1, 32),
        ("module m(x, o);\ninput [3:0] x; output [3:0] o;\n"
         "wire [3:0] +;\nassign o = x; endmodule", "+", 3, 12),
        ("module m(x, ], o); input [3:0] x; output [3:0] o;\n"
         "assign o = x; endmodule", "]", 1, 13),
        ("module m(x, o);\ninput [3:0] x; output [3:0] o;\n"
         "wire [3:0] assign;\nassign o = x; endmodule", "assign", 3, 12),
    ])
    def test_non_identifier_signal_name_located(self, text, token, line,
                                                column):
        with pytest.raises(ParseError, match=(
                f"^expected a signal name, got {re.escape(repr(token))} "
                f"at line {line}, column {column}$")):
            parse_sv(text)

    def test_non_integer_slice_index_located(self):
        with pytest.raises(ParseError, match=r"^expected an integer, got 'k' "
                                             r"at line 3, column 16$"):
            parse_sv("module m(x, o);\n"
                     "input [7:0] x; output [3:0] o;\n"
                     "assign o = x[3:k]; endmodule")


    def test_ascending_range_located(self):
        with pytest.raises(ParseError, match=r"^descending range required, "
                                             r"got \[3:8\] "
                                             r"at line 2, column 7$"):
            parse_sv("module m(x, o);\n"
                     "input [3:8] x; output [3:0] o;\n"
                     "assign o = x; endmodule")

    def test_unassigned_output_located(self):
        with pytest.raises(ParseError, match=r"^output 'o' is never assigned "
                                             r"at line 2, column 29$"):
            parse_sv("module m(x, o);\n"
                     "input [3:0] x; output [3:0] o;\n"
                     "wire [3:0] w; assign w = x; endmodule")

    def test_second_output_located(self):
        with pytest.raises(ParseError, match=r"^exactly one output port "
                                             r"required, got \['o', 'p'\] "
                                             r"at line 2, column 32$"):
            parse_sv("module m(x, o, p);\n"
                     "input [3:0] x; output [3:0] o, p;\n"
                     "assign o = x; assign p = x; endmodule")

    def test_missing_output_located_at_endmodule(self):
        with pytest.raises(ParseError, match=r"^exactly one output port "
                                             r"required, got \[\] "
                                             r"at line 3, column 1$"):
            parse_sv("module m(x);\n"
                     "input [3:0] x;\n"
                     "endmodule")


_STEMS = sorted(stem for pair in PAIRS.values() for stem in pair)


@pytest.mark.parametrize("stem", [
    pytest.param(stem, marks=pytest.mark.xfail(
        strict=True, reason="fig4a.sv is not the design fig4a.ir holds: it "
        "parses with a truncating zext at the root (FOUND in CHANGES.md, "
        "ROADMAP item 11); check-oracle reads the file as it is"))
    if stem == "fig4a" else stem for stem in _STEMS])
def test_sv_fixture_is_its_ir_twin(stem):
    ir, sv = load_design(stem, "ir"), load_design(stem, "sv")
    assert sv.body == ir.body
    assert sv.inputs == ir.inputs


class TestEmitSv:
    def test_semantic_round_trip_fixtures(self):
        rng = random.Random(3)
        for name in names():
            for d in load_pair(name):
                back = parse_sv(emit_sv(d))
                assert back.inputs == d.inputs
                bits = sum(a.width for _, a in d.inputs)
                if bits <= 16:
                    envs = _all_envs(d)
                else:
                    envs = [{n: rng.randint(a.lo, a.hi) for n, a in d.inputs}
                            for _ in range(500)]
                for env in envs:
                    assert evaluate(back.body, env) == evaluate(d.body, env)


def _idle_copies(text: str, output: str) -> list[tuple[str, str]]:
    """The `assign n = m;` lines of an emitted module, but the output's,
    whose two signals are declared alike: wires that change nothing."""
    decl = {n: ty for ty, n in re.findall(
        r"(logic(?: signed)? \[\d+:0\]) (\w+)", text)}
    return [(n, m) for n, m in re.findall(r"assign (\w+) = (\w+);", text)
            if n != output and decl[n] == decl[m]]


class TestEmitterRule:
    """Every wire emit_sv writes computes an operator or a constant, or
    changes its source's annotation.  (A `zext` or `sext` writes its own
    wire, a copy when the extension is the identity; no design here has
    one.)"""

    @pytest.mark.parametrize("stem", _STEMS)
    @pytest.mark.parametrize("fmt", ["ir", "sv"])
    def test_bundled_design(self, stem, fmt):
        d = load_design(stem, fmt)
        assert _idle_copies(emit_sv(d), d.output) == []

    def test_shift_amount_slot_narrower_than_its_child(self):
        # the amount's slot coercion is its unsigned bit pattern already
        d = parse_sexpr("(design s (inputs (a 8 unsigned) (s 4 unsigned))\n"
                        " (output o 8 unsigned)\n"
                        " (<< 8 unsigned 8 unsigned (var a 8 unsigned)\n"
                        "    2 unsigned (var s 4 unsigned)))")
        text = emit_sv(d)
        assert _idle_copies(text, d.output) == []
        assert text.count("logic [1:0]") == 1
        back = parse_sv(text)
        for env in _all_envs(d):
            assert evaluate(back.body, env) == evaluate(d.body, env)


_ANNS = st.builds(Annotation, st.integers(1, 6), st.booleans())


@st.composite
def _terms(draw, inputs, depth):
    """A random annotated term over `inputs`, any of the 18 opcodes at each
    inner node."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            name, a = draw(st.sampled_from(inputs))
            return Term("var", a, name=name)
        a = draw(_ANNS)
        return Term("const", a, value=draw(st.integers(a.lo, a.hi)))
    kind = draw(st.sampled_from(sorted(ARITY)))
    operands = tuple((draw(_ANNS), draw(_terms(inputs, depth - 1)))
                     for _ in range(ARITY[kind]))
    indices = None
    if kind == "slice":
        hi = draw(st.integers(0, operands[0][0].width - 1))
        indices = (hi, draw(st.integers(0, hi)))
    return Term(kind, draw(_ANNS), operands=operands, indices=indices)


@st.composite
def _designs(draw):
    inputs = tuple((n, draw(_ANNS)) for n in ("a", "b", "c"))
    body = draw(_terms(inputs, 3))
    return Design("rt", inputs, "o", body)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(d=_designs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_emitted_designs_read_back(self, d, seed):
        assert parse_sexpr(emit_sexpr(d)) == d
        back = parse_sv(emit_sv(d))
        assert back.inputs == d.inputs and back.output == d.output
        assert back.body.out == d.body.out
        rng = random.Random(seed)
        envs = [{n: a.lo for n, a in d.inputs}, {n: a.hi for n, a in d.inputs}]
        envs += [{n: rng.randint(a.lo, a.hi) for n, a in d.inputs}
                 for _ in range(30)]
        for env in envs:
            assert evaluate(back.body, env) == evaluate(d.body, env), env


def _all_envs(d: Design):
    import itertools
    namelist = [n for n, _ in d.inputs]
    ranges = [range(a.lo, a.hi + 1) for _, a in d.inputs]
    return ({n: v for n, v in zip(namelist, combo)}
            for combo in itertools.product(*ranges))


class TestContextSizing:
    def test_sum_widens_in_wide_context(self):
        # Verilog sizes a+b by the assignment target: the carry is kept.
        d = parse_sv("module m(a, b, o); input [3:0] a, b; output [4:0] o;\n"
                     "assign o = a + b; endmodule")
        assert evaluate(d.body, {"a": 15, "b": 15}) == 30

    def test_sum_truncates_in_narrow_context(self):
        d = parse_sv("module m(a, b, o); input [3:0] a, b; output [3:0] o;\n"
                     "assign o = a + b; endmodule")
        assert evaluate(d.body, {"a": 15, "b": 15}) == 14

    def test_shift_amount_self_determined(self):
        # The right operand of << is self-determined (never context-widened).
        d = parse_sv("module m(a, s, o); input [3:0] a; input [1:0] s;\n"
                     "output [6:0] o; assign o = a << s; endmodule")
        assert evaluate(d.body, {"a": 15, "s": 3}) == 120

    def test_compare_is_one_bit(self):
        d = parse_sv("module m(a, b, o); input [3:0] a, b; output o;\n"
                     "assign o = a < b; endmodule")
        assert d.body.out.width == 1
        assert evaluate(d.body, {"a": 2, "b": 9}) == 1
        assert evaluate(d.body, {"a": 9, "b": 2}) == 0

    def test_signed_unsigned_mixed_compare(self):
        # One unsigned operand makes the whole comparison unsigned in
        # Verilog; -1 as a 4-bit pattern is 15.
        d = parse_sv("module m(a, b, o); input signed [3:0] a;\n"
                     "input [3:0] b; output o; assign o = a < b; endmodule")
        assert evaluate(d.body, {"a": -1, "b": 8}) == 0
