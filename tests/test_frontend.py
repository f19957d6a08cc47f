import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordec
from wordec.fixtures import load_pair, names
from wordec.frontend import (Design, ParseError, emit_sexpr, emit_sv,
                             parse_sexpr, parse_sv)
from wordec.ir import ARITY, Annotation, Term, evaluate


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

    def test_header_comment(self):
        d, _ = load_pair("fig4")
        text = emit_sv(d, header_comment="hello world")
        assert "hello world" in text
        assert parse_sv(text).inputs == d.inputs


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
    return Design("rt", inputs, ("o", body.out), body)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(d=_designs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_emitted_designs_read_back(self, d, seed):
        assert parse_sexpr(emit_sexpr(d)) == d
        back = parse_sv(emit_sv(d))
        assert back.inputs == d.inputs and back.output == d.output
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
