import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import wordec
from wordec.cli import _read_config, main
from wordec.fixtures import load_pair
from wordec.frontend import (ParseError, emit_sexpr, emit_sv, parse_sexpr,
                             parse_sv)


@pytest.fixture
def runner():
    return CliRunner()


def _emit_pair(tmp_path, name, fmt="ir"):
    spec, impl = load_pair(name)
    emit = emit_sexpr if fmt == "ir" else emit_sv
    sp = tmp_path / f"spec.{fmt}"
    ip = tmp_path / f"impl.{fmt}"
    sp.write_text(emit(spec))
    ip.write_text(emit(impl))
    return str(sp), str(ip)


class TestCheck:
    def test_scaled_pair_passes(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig1-scaled")
        out = tmp_path / "out"
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out),
                                 "--max-exhaustive-bits", "16"])
        assert r.exit_code == 0, r.output
        assert "overall: pass" in r.output
        rep = json.loads((out / "report.json").read_text())
        assert rep["overall"] == "pass"
        per_iteration = rep["saturation"]["per_iteration"]
        assert len(per_iteration) == rep["saturation"]["iterations"]
        assert set(per_iteration[0]) == {
            "matches", "redundant_applications", "match_s", "apply_s",
            "width_reduce_s", "rebuild_s", "rekeyed", "congruences"}
        rules = rep["saturation"]["rules"]
        assert {"comm-add", "zext-intro", "width-reduce"} <= set(rules)
        for counts in rules.values():
            assert set(counts) == {"matches", "useful_applications"}
        pattern = [c for rid, c in rules.items() if rid != "width-reduce"]
        assert sum(c["matches"] for c in pattern) \
            == sum(st["matches"] for st in per_iteration)
        assert sum(c["matches"] - c["useful_applications"] for c in pattern) \
            == sum(st["redundant_applications"] for st in per_iteration)
        assert rules["width-reduce"]["useful_applications"] > 0
        assert (out / "manifest.json").exists()
        assert list((out / "steps").glob("*.ir"))

    def test_sv_inputs_autodetected(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "adpcm", fmt="sv")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code == 0, r.output

    @pytest.mark.parametrize("suffix", [".sv", ".txt", ""])
    def test_first_token_picks_the_reader(self, runner, tmp_path, suffix):
        # the same IR pair, with a leading comment, under any extension
        spec, impl = load_pair("adpcm")
        paths = []
        for role, d in (("spec", spec), ("impl", impl)):
            path = tmp_path / f"{role}{suffix}"
            path.write_text(f"  ; {role}\n" + emit_sexpr(d))
            paths.append(str(path))
        r = runner.invoke(main, ["check", "--spec", paths[0], "--impl",
                                 paths[1], "--out", str(tmp_path / "out")])
        assert r.exit_code == 0, r.output

    def test_no_rules_full_width_unproven(self, runner, tmp_path):
        # vbsme8's 64 input bits are sampled: its slots wrap, and its `<`
        # is no polynomial, so the grid does not apply
        sp, ip = _emit_pair(tmp_path, "vbsme8")
        out = tmp_path / "out"
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out),
                                 "--rules", "none", "--samples", "2000"])
        assert r.exit_code == 2, r.output
        *checked, _ = json.loads((out / "report.json").read_text())[
            "obligations"]
        assert checked[-1]["kind"] == "center"
        for ob in checked:
            assert ob["verdict"]["note"] == (
                "no counterexample found by sampling")
            assert ob["verdict"]["declined"] == [
                {"tier": "exhaustive", "reason": "64 input bits > 20"},
                {"tier": "grid", "reason": "opcode <"}]

    def test_no_rules_fig1_passes_on_grid(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig1")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--rules", "none", "--samples", "2000"])
        assert r.exit_code == 0, r.output
        assert "grid(d=1,split=8)" in r.output

    def test_inequivalent_pair_fails(self, runner, tmp_path):
        sp, _ = _emit_pair(tmp_path, "adpcm")
        bad = tmp_path / "bad.ir"
        bad.write_text(
            "(design bad (inputs (x 4 unsigned)) (output Y 7 unsigned)\n"
            "  (* 7 unsigned 4 unsigned (var x 4 unsigned)"
            " 3 unsigned (const 5 3 unsigned)))")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", str(bad),
                                 "--out", str(tmp_path / "out"),
                                 "--max-exhaustive-bits", "16"])
        assert r.exit_code == 1, r.output
        assert "counterexample" in r.output

    def test_missing_file_is_error(self, runner, tmp_path):
        r = runner.invoke(main, ["check", "--spec",
                                 str(tmp_path / "nope.ir"),
                                 "--impl", str(tmp_path / "nope2.ir"),
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code == 3, r.output

    def test_non_integer_range_bound_is_error(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4", fmt="sv")
        bad = tmp_path / "bad.sv"
        bad.write_text("module m(x, o);\ninput [a:0] x; output [3:0] o;\n"
                       "assign o = x; endmodule\n")
        r = runner.invoke(main, ["check", "--spec", str(bad), "--impl", ip,
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code == 3, r.output
        assert "expected an integer, got 'a' at line 2, column 8" in r.output

    @pytest.mark.parametrize("decl, token, column", [
        ("input [3:0] x, (;", "(", 16), ("wire [3:0] +;", "+", 12)])
    def test_non_identifier_signal_name_is_error(self, runner, tmp_path,
                                                 decl, token, column):
        sp, ip = _emit_pair(tmp_path, "fig4", fmt="sv")
        bad = tmp_path / "bad.sv"
        bad.write_text(f"module m(x, o);\n{decl}\noutput [3:0] o;\n"
                       "assign o = x; endmodule\n")
        r = runner.invoke(main, ["check", "--spec", str(bad), "--impl", ip,
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code == 3, r.output
        assert (f"expected a signal name, got {token!r} at line 2, "
                f"column {column}") in r.output

    def test_unsound_rule_is_error(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4", fmt="sv")
        rules = tmp_path / "unsound.rules"
        rules.write_text("bad : (zext ?wo ?so ?wa ?sa ?a)"
                         " => (const 1 ?wo ?so) ;\n")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--rules", str(rules)])
        assert r.exit_code == 3, r.output
        assert "error:" in r.output
        assert "bad" in r.output

    @pytest.mark.parametrize("amount_width", [40, 62])
    def test_wide_shift_amount(self, runner, tmp_path, amount_width):
        a = f"{amount_width} unsigned"
        pair = tmp_path / "shift.ir"
        pair.write_text(
            f"(design d (inputs (x 8 unsigned) (y {a})) (output o 8 unsigned)"
            f"\n  (<< 8 unsigned 8 unsigned (var x 8 unsigned) {a}"
            f" (var y {a})))\n")
        r = runner.invoke(main, ["check", "--spec", str(pair),
                                 "--impl", str(pair),
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code in (0, 2), r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)

    def test_extraction_timeout_reported(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4")
        out = tmp_path / "out"
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out), "--extract-timeout", "0"])
        assert r.exit_code == 0, r.output
        assert "extraction: greedy" in r.output
        assert "timed_out: True" in r.output
        rep = json.loads((out / "report.json").read_text())
        assert rep["extraction"]["method"] == "greedy"
        assert rep["extraction"]["timed_out"] is True

    def test_report_records_input_bits_and_extraction_seconds(
            self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4")
        out = tmp_path / "out"
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        rep = json.loads((out / "report.json").read_text())
        assert rep["extraction"]["seconds"] >= 0
        bits = sum(a.width for _, a in load_pair("fig4")[0].inputs)
        kinds = []
        for ob in rep["obligations"]:
            kinds.append(ob["kind"])
            verdict = ob["verdict"]
            if ob["kind"] == "assume-guarantee":
                assert "input_bits" not in verdict
            else:
                assert verdict["input_bits"] == bits, ob
        assert kinds[-1] == "assume-guarantee" and len(kinds) > 1

    def test_report_counts_each_chains_explained_steps(self, runner,
                                                       tmp_path):
        sp, ip = _emit_pair(tmp_path, "fir8")
        out = tmp_path / "out"
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        rep = json.loads((out / "report.json").read_text())
        # each chain explains 15 steps and drops one detour of 2
        assert rep["waterfall"] == {
            chain: {"explained_steps": 15, "inverse_pairs_dropped": 1}
            for chain in ("spec", "impl")}
        kinds = [ob["kind"] for ob in rep["obligations"]]
        assert kinds.count("step") == 2 * (15 - 2)

    @pytest.mark.parametrize("args, optimal", [
        ([], True), (["--extraction", "greedy"], False)])
    def test_report_says_whether_extraction_is_optimal(
            self, runner, tmp_path, args, optimal):
        sp, ip = _emit_pair(tmp_path, "fig4")
        out = tmp_path / "out"
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out), *args])
        assert r.exit_code == 0, r.output
        ext = json.loads((out / "report.json").read_text())["extraction"]
        assert ext["optimal"] is optimal
        assert ext["optimal"] == (ext["method"] == "ilp"
                                  and not ext["timed_out"])
        assert (ext["visits"] > 0) is optimal  # greedy runs no search

    def test_dump_graph(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4")
        dump = tmp_path / "g.json"
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--dump-graph", str(dump)])
        assert r.exit_code == 0, r.output
        graph = json.loads(dump.read_text())
        ids = [c["id"] for c in graph["classes"]]
        assert ids == sorted(ids) and len(ids) > 1
        assert set(graph["roots"]) == {"spec", "impl"}
        assert set(graph["roots"].values()) <= set(ids)
        assert all(c["nodes"] for c in graph["classes"])

    def test_greedy_extraction(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--extraction", "greedy",
                                 "--max-exhaustive-bits", "16"])
        assert r.exit_code == 0, r.output


_IR = "(design d (inputs (a 4 unsigned))\n (output o 4 unsigned)\n {})"
_SV = "module m(x, o);\ninput [7:0] x; output [3:0] o;\n{}\nendmodule"


class TestReaderChecks:
    """The readers are where a design is checked: each malformed text is
    rejected with its line and column, and `check` exits 3 on it."""

    @pytest.mark.parametrize("text, message", [
        ("(design d (inputs (a 4 unsigned)\n  (a 4 unsigned))\n"
         " (output o 4 unsigned) (var a 4 unsigned))",
         "duplicate input 'a' at line 2, column 4"),
        (_IR.format("(var b 4 unsigned)"),
         "undeclared variable 'b' at line 3, column 2"),
        (_IR.format("(var a 4 signed)"),
         "variable 'a' annotated (4 signed) but declared (4 unsigned) "
         "at line 3, column 2"),
        (_IR.format("(foo 4 unsigned)"),
         "unknown term head 'foo' at line 3, column 2"),
        (_IR.format("(var a 4 unsigned)") + " (extra)",
         "trailing tokens after design: '(' at line 3, column 22"),
        (_IR.format("(slice 4 unsigned 5 2 4 unsigned (var a 4 unsigned))"),
         "bad slice indices (5, 2) for a 4-bit operand at line 3, column 2"),
        (_IR.format("(var a 4 unsigend)"),
         "expected signage, got 'unsigend' at line 3, column 11"),
        ("(design d (inputs (a 0 unsigned))\n (output o 4 unsigned)\n"
         " (var a 4 unsigned))",
         "width must be >= 1, got 0 at line 1, column 22"),
        (_SV.format("wire [3:0] w; wire [3:0] w;\nassign o = x;"),
         "signal 'w' declared twice at line 3, column 26"),
        (_SV.format("assign y = x;\nassign o = x;"),
         "assignment to undeclared signal 'y' at line 3, column 1"),
        (_SV.format("assign x = 8'd1;\nassign o = x;"),
         "assignment to input 'x' at line 3, column 1"),
        (_SV.format("wire [3:0] w;\nassign o = w;"),
         "signal 'w' is never driven at line 4, column 1"),
        (_SV.format("assign o = 2'd7;"),
         "literal 2'd7 does not fit its size at line 3, column 12"),
        (_SV.format("initial o = x;"),
         "unsupported construct 'initial' at line 3, column 1"),
        (_SV.format("assign o = x[9:2];"),
         "slice [9:2] out of range for x at line 3, column 1"),
    ])
    def test_malformed_design_located(self, runner, tmp_path, text,
                                      message):
        read = parse_sexpr if text.startswith("(") else parse_sv
        with pytest.raises(ParseError) as e:
            read(text)
        assert str(e.value) == message
        assert e.value.line is not None and e.value.col is not None
        sp, ip = _emit_pair(tmp_path, "fig4")
        bad = tmp_path / "bad"
        bad.write_text(text)
        r = runner.invoke(main, ["check", "--spec", str(bad), "--impl", ip,
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code == 3, r.output
        assert f"error: {message}" in r.output


class TestSaturateExtract:
    def test_saturate_reports_merge(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4")
        dump = tmp_path / "g.json"
        r = runner.invoke(main, ["saturate", "--spec", sp, "--impl", ip,
                                 "--dump-graph", str(dump)])
        assert r.exit_code == 0, r.output
        assert "roots merged" in r.output.lower() or "merged" in r.output
        assert json.loads(dump.read_text())["roots"]

    def test_saturate_prints_each_iteration(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "vbsme4")
        r = runner.invoke(main, ["saturate", "--spec", sp, "--impl", ip])
        assert r.exit_code == 0, r.output
        iterations = int(r.output.split("iterations: ")[1].split()[0])
        lines = [ln for ln in r.output.splitlines()
                 if ln.startswith("  iteration ")]
        assert len(lines) == iterations >= 1
        for i, ln in enumerate(lines, 1):
            assert ln.startswith(f"  iteration {i}: ")
            for phase in ("match", "apply", "width-reduce", "rebuild"):
                assert f" {phase} " in ln
            assert " rekeyed, " in ln and ln.endswith(" congruences)")
        rules = [ln for ln in r.output.splitlines()
                 if ln.startswith("  rule ")]
        assert rules[-1].startswith("  rule width-reduce: ")
        matches = sum(int(ln.split(": ")[1].split()[0]) for ln in rules[:-1])
        assert matches == sum(int(ln.split(": ")[1].split()[0])
                              for ln in lines)

    def test_extract_prints_objective(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "adpcm")
        lp = tmp_path / "prog.lp"
        r = runner.invoke(main, ["extract", "--spec", sp, "--impl", ip,
                                 "--lp", str(lp)])
        assert r.exit_code == 0, r.output
        method = r.output.splitlines()[0]
        assert method.startswith("method: ilp  objective: ")
        assert int(method.split("visits: ")[1].split()[0]) > 0
        assert "Maximize" in lp.read_text()


class TestWaterfall:
    @pytest.mark.parametrize("name", ["fig1", "fig1-scaled"])
    def test_no_width_relabel_stem(self, runner, tmp_path, name):
        # each step is written at the widths it was extracted at
        sp, ip = _emit_pair(tmp_path, name)
        out = tmp_path / "out"
        r = runner.invoke(main, ["waterfall", "--spec", sp, "--impl", ip,
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert list((out / "steps").glob("*.ir"))
        assert not list((out / "steps").glob("*width_relabel*"))


class TestProve:
    def test_prove_emitted_dir(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig1-scaled")
        out = tmp_path / "out"
        r = runner.invoke(main, ["waterfall", "--spec", sp, "--impl", ip,
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        r2 = runner.invoke(main, ["prove", str(out),
                                  "--max-exhaustive-bits", "16"])
        assert r2.exit_code == 0, r2.output
        assert "overall: pass" in r2.output

    @pytest.mark.parametrize("name", ["fig4", "vbsme4"])
    def test_prove_after_check_writes_the_same_report(self, runner,
                                                      tmp_path, name):
        # vbsme4's obligations are sampled after the exhaustive tier and the
        # grid refuse them, so `prove` must record the same refusals
        sampled = name == "vbsme4"
        code = 2 if sampled else 0
        sp, ip = _emit_pair(tmp_path, name)
        out = tmp_path / "out"

        def report():
            rep = json.loads((out / "report.json").read_text())
            for ob in rep["obligations"]:
                del ob["verdict"]["elapsed"]
            return rep

        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out), "--samples", "2000"])
        assert r.exit_code == code, r.output
        checked = report()
        del checked["saturation"], checked["extraction"], checked["waterfall"]
        assert any("declined" in ob["verdict"]
                   for ob in checked["obligations"]) == sampled
        r = runner.invoke(main, ["prove", str(out), "--samples", "2000"])
        assert r.exit_code == code, r.output
        assert report() == checked

    def test_prove_reaches_the_grid_verdicts_of_check(self, runner,
                                                      tmp_path):
        # the grid reads only the two designs of an obligation
        out = tmp_path / "out"

        def verdicts():
            rep = json.loads((out / "report.json").read_text())
            return [(ob["verdict"]["status"], ob["verdict"]["method"])
                    for ob in rep["obligations"]]

        sp, ip = _emit_pair(tmp_path, "fig1")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(out)])
        assert r.exit_code == 0, r.output
        checked = verdicts()
        assert checked[:-1] == [("pass", "grid(d=1,split=8)")] * (
            len(checked) - 1)
        r = runner.invoke(main, ["prove", str(out)])
        assert r.exit_code == 0, r.output
        assert verdicts() == checked

    def test_prove_missing_dir_is_error(self, runner, tmp_path):
        r = runner.invoke(main, ["prove", str(tmp_path / "nothing")])
        assert r.exit_code == 3, r.output


_ADD = "(+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
_SWAP = "(+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"


class TestValidateRules:
    @pytest.mark.parametrize("rule, message", [
        (f"{_ADD} => {_SWAP} if ?wa < ?sa",
         "r: condition: < takes (int, int), not (int, str)"),
        (f"{_ADD} => (+ (?wo + ?so) ?so ?wb ?sb ?b ?wa ?sa ?a)",
         "r: width slot: + takes (int, int), not (int, str)"),
        ("(zext ?wo ?so ?wa ?sa ?a) => (slice ?wo ?so ?wa ?sa ?a)",
         "r: a pattern cannot write a slice's indices"),
        (f"{_ADD} => {_SWAP} if ?wa && ?so",
         "r: condition: && takes (bool, bool), not (int, str)"),
        ("(+ ?wo ?wo ?wa ?sa ?a ?wb ?sb ?b) => (+ ?wo ?wo ?wb ?sb ?b ?wa ?sa ?a)",
         "r: ?wo is bound as a width and as a signage"),
    ], ids=["width-vs-signage", "signage-in-width", "slice", "int-and",
            "width-and-signage"])
    @pytest.mark.parametrize("command", ["check", "saturate",
                                         "validate-rules"])
    def test_ill_typed_rule_file_is_error(self, runner, tmp_path, rule,
                                          message, command):
        p = tmp_path / "bad.rules"
        p.write_text(f"# one rule\nr : {rule} ;\n")
        args = [command, "--rules", str(p)]
        if command == "validate-rules":
            args += ["--maxw", "2"]
        else:
            sp, ip = _emit_pair(tmp_path, "fig1")
            args += ["--spec", sp, "--impl", ip]
        if command == "check":
            args += ["--out", str(tmp_path / "out")]
        r = runner.invoke(main, args)
        assert r.exit_code == 3, r.output
        assert [line for line in r.output.splitlines()
                if line.startswith("error:")] == [
            f"error: {message} at line 2, column 1"]
        assert "Traceback" not in r.output

    def test_builtin_clean_small_width(self, runner):
        r = runner.invoke(main, ["validate-rules", "--maxw", "2"])
        assert r.exit_code == 0, r.output

    def test_broken_rule_file_detected(self, runner, tmp_path):
        p = tmp_path / "bad.rules"
        p.write_text("bad : (<< ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                     " => (* ?wo ?so ?wa ?sa ?a ?wb ?sb ?b) ;\n")
        r = runner.invoke(main, ["validate-rules", "--rules", str(p),
                                 "--maxw", "2"])
        assert r.exit_code == 1, r.output
        assert "violation" in r.output.lower()

    def test_operand_space_past_guard_is_error(self, runner, tmp_path):
        p = tmp_path / "wide.rules"
        p.write_text("wide : (+ 12 unsigned 12 unsigned ?a 12 unsigned ?b)"
                     " => (+ 12 unsigned 12 unsigned ?b 12 unsigned ?a) ;\n")
        r = runner.invoke(main, ["validate-rules", "--rules", str(p),
                                 "--maxw", "2"])
        assert r.exit_code == 3, r.output
        assert "error: wide: operand space too large" in r.output

    def test_constant_space_past_guard_is_error(self, runner, tmp_path):
        # 2^40 values of ?v per grid vector: refused before any is made
        p = tmp_path / "wide.rules"
        p.write_text("r : (+ ?wo ?so ?wa ?sa ?a 40 unsigned"
                     " (const ?v 40 unsigned)) => (+ ?wo ?so 40 unsigned"
                     " (const ?v 40 unsigned) ?wa ?sa ?a) ;\n")
        r = runner.invoke(main, ["validate-rules", "--rules", str(p),
                                 "--maxw", "2"])
        assert r.exit_code == 3, r.output
        assert [line for line in r.output.splitlines()
                if line.startswith("error:")] == [
            "error: r: constant space too large to enumerate"]
        assert "Traceback" not in r.output

    def test_unbound_condition_parameter_is_error(self, runner, tmp_path):
        p = tmp_path / "cond.rules"
        p.write_text("r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                     " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a)"
                     " if ?wo > 2 && ?zz == 1 ;\n")
        r = runner.invoke(main, ["validate-rules", "--rules", str(p),
                                 "--maxw", "2"])
        assert r.exit_code == 3, r.output
        assert "error: r: condition parameters ?zz unbound" in r.output
        sp, ip = _emit_pair(tmp_path, "fig4")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--rules", str(p)])
        assert r.exit_code == 3, r.output
        assert "error: r: condition parameters ?zz unbound" in r.output

    def test_unparseable_rule_file_is_error(self, runner, tmp_path):
        p = tmp_path / "syntax.rules"
        p.write_text("r : (+ ?wo => ;")
        r = runner.invoke(main, ["validate-rules", "--rules", str(p)])
        assert r.exit_code == 3, r.output
        assert ("error: expected signage, got '=>' at line 1, column 12"
                in r.output)

    def test_duplicate_rule_id_is_error(self, runner, tmp_path):
        p = tmp_path / "dup.rules"
        rule = ("r : (+ ?wo ?so ?wa ?sa ?a ?wb ?sb ?b)"
                " => (+ ?wo ?so ?wb ?sb ?b ?wa ?sa ?a) ;\n")
        p.write_text("# two rules named r\n" + rule + rule)
        message = "error: duplicate rule id 'r' at line 3, column 1"
        r = runner.invoke(main, ["validate-rules", "--rules", str(p),
                                 "--maxw", "2"])
        assert r.exit_code == 3, r.output
        assert message in r.output
        sp, ip = _emit_pair(tmp_path, "fig4")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--rules", str(p)])
        assert r.exit_code == 3, r.output
        assert message in r.output


class TestBench:
    def test_single_fixture_row(self, runner):
        r = runner.invoke(main, ["bench", "adpcm",
                                 "--max-exhaustive-bits", "16"])
        assert r.exit_code == 0, r.output
        assert "adpcm" in r.output

    def test_unknown_fixture_is_error(self, runner):
        r = runner.invoke(main, ["bench", "no-such-pair"])
        assert r.exit_code == 3, r.output


class TestConfigFile:
    def test_defaults_from_config(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig1-scaled")
        cfg = tmp_path / "wordec.cfg"
        cfg.write_text("max-exhaustive-bits = 16  # plenty for scaled pairs\n"
                       f"out = {tmp_path / 'cfg-out'}\n")
        r = runner.invoke(main, ["--config", str(cfg), "check",
                                 "--spec", sp, "--impl", ip])
        assert r.exit_code == 0, r.output
        assert (tmp_path / "cfg-out" / "manifest.json").exists()

    def test_misspelled_key_is_error(self, runner, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("# defaults\nsampels = 10\n")
        r = runner.invoke(main, ["--config", str(cfg), "bench", "fig4"])
        assert r.exit_code == 3, r.output
        assert f"error: {cfg}:2: unknown key 'sampels'" in r.output

    def test_format_key_is_unknown(self, runner, tmp_path):
        # the reader is picked from the text; there is no format option
        cfg = tmp_path / "format.cfg"
        cfg.write_text("format = sv\n")
        r = runner.invoke(main, ["--config", str(cfg), "bench", "fig4"])
        assert r.exit_code == 3, r.output
        assert f"error: {cfg}:1: unknown key 'format'" in r.output

    def test_key_of_another_command_is_accepted(self, runner, tmp_path):
        # one file supplies defaults to all commands: bench has no --out
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(f"out = {tmp_path / 'unused'}\nsamples = 10\n")
        r = runner.invoke(main, ["--config", str(cfg), "bench", "fig4"])
        assert r.exit_code == 0, r.output

    def test_malformed_config_is_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        r = runner.invoke(main, ["--config", str(cfg), "bench", "adpcm"])
        assert r.exit_code == 3, r.output


def _plus_chain(depth, left):
    """An IR design: x + x + ... + x, `depth` additions nested to the left
    or to the right."""
    t = "(var x 8 unsigned)"
    for _ in range(depth):
        a, b = (t, "(var x 8 unsigned)") if left else ("(var x 8 unsigned)", t)
        t = f"(+ 8 unsigned 8 unsigned {a} 8 unsigned {b})"
    return (f"(design {'left' if left else 'right'}\n"
            f"  (inputs (x 8 unsigned))\n  (output o 8 unsigned)\n  {t})\n")


def test_design_nested_too_deeply_exits_3(runner, tmp_path):
    # the walks recurse once or more per level, and the two bracketings
    # differ from the root down: past the recursion limit the command
    # stops with one line, not a traceback and the counterexample exit code
    paths = []
    for left in (True, False):
        paths.append(tmp_path / f"{left}.ir")
        paths[-1].write_text(_plus_chain(300, left))
    r = runner.invoke(main, ["check", "--spec", str(paths[0]), "--impl",
                             str(paths[1]), "--out", str(tmp_path / "out")])
    assert r.exit_code == 3, r.output
    assert r.output == "error: design nested too deeply\n"


class TestClosedPipe:
    """A reader that stops early (`wordec ... | head`) is no user error: the
    command ends as SIGPIPE would end it, 141, and writes nothing to
    stderr, also when the interpreter flushes stdout at exit."""

    @pytest.mark.parametrize("command", ["extract", "check"])
    def test_exits_141_silently(self, tmp_path, command):
        sp, ip = _emit_pair(tmp_path, "adpcm")
        out = tmp_path / "out"
        args = [command, "--spec", sp, "--impl", ip]
        if command == "check":
            args += ["--out", str(out)]
        src = str(Path(wordec.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first line
        try:
            r = subprocess.run(
                [sys.executable, "-c", "from wordec.cli import main; main()",
                 *args], stdout=write, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write)
        assert (r.returncode, r.stderr.decode()) == (141, "")
        if command == "check":  # written before the first line is printed
            report = json.loads((out / "report.json").read_text())
            assert report["overall"] == "pass"


_NUMPY_FREE_START = """\
import contextlib, io, json, sys
from pathlib import Path
import wordec.cli
from wordec.rewrites import baseline_rules
baseline_rules()
seen = [["import", 0, "numpy" in sys.modules]]
data, out = Path(wordec.cli.__file__).parent / "data", Path(sys.argv[1])
pair = lambda spec, impl: ["--spec", data / spec, "--impl", data / impl]
for args in (["extract", *pair("vbsme8_spec.ir", "vbsme8_impl.ir")],
             ["waterfall", *pair("fir8_spec.sv", "fir8_impl.sv"),
              "--out", out / "waterfall"],
             ["saturate", *pair("vbsme8_spec.sv", "vbsme8_impl.sv")],
             ["check", *pair("fig4a.ir", "fig4b.ir"), "--out", out / "check"]):
    code = 0
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            wordec.cli.main([str(a) for a in args], standalone_mode=False)
        except SystemExit as e:
            code = e.code
    seen.append([args[0], code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_only_evaluating_commands_load_numpy(tmp_path):
    # extract, waterfall and saturate never evaluate a design, so one
    # process runs all three without numpy; check loads it to discharge
    src = str(Path(wordec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    r = subprocess.run([sys.executable, "-c", _NUMPY_FREE_START,
                        str(tmp_path)], capture_output=True, text=True,
                       env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [
        ["import", 0, False], ["extract", 0, False], ["waterfall", 0, False],
        ["saturate", 0, False], ["check", 0, True]]


_OPTIONS = [(name, p) for name, c in sorted(main.commands.items())
            for p in c.params if isinstance(p, click.Option)]


@pytest.mark.parametrize("command, option", _OPTIONS,
                         ids=[f"{n}-{p.name}" for n, p in _OPTIONS])
def test_every_flag_is_a_config_key(tmp_path, command, option):
    # by its flag without the dashes, and by its parameter's name
    for key in (*(o.lstrip("-") for o in option.opts), option.name):
        cfg = tmp_path / "wordec.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert _read_config(str(cfg), main.commands) == {option.name: "1"}


class TestUsageErrors:
    """Click's usage errors exit 3: its own code for them, 2, means
    unproven here."""

    @pytest.mark.parametrize("args, message", [
        (["check", "--samples", "abc"], "Invalid value for '--samples'"),
        (["check", "--spec", "s.sv", "--bogus"], "--bogus"),
        (["check", "--spec", "s.sv"], "Missing option '--impl'"),
        (["no-such-command"], "No such command 'no-such-command'"),
    ])
    def test_usage_error_exits_3(self, runner, args, message):
        r = runner.invoke(main, args)
        assert r.exit_code == 3, r.output
        assert message in r.output

    @pytest.mark.parametrize("args", [
        ["bench", "fig4", "--samples", "-5"],
        ["bench", "fig4", "--max-exhaustive-bits", "-1"],
        ["check", "--spec", "s.sv", "--impl", "i.sv",
         "--extract-timeout", "-1"],
    ])
    def test_negative_count_or_timeout_exits_3(self, runner, args):
        r = runner.invoke(main, args)
        assert r.exit_code == 3, r.output
        assert "is not in the range x>=0" in r.output

    def test_zero_counts_are_legal(self, runner):
        # nothing is sampled, so fig4's wide steps stay unproven
        r = runner.invoke(main, ["bench", "fig4", "--samples", "0",
                                 "--max-exhaustive-bits", "0"])
        assert r.exit_code == 2, r.output

    def test_help_exits_0(self, runner):
        r = runner.invoke(main, ["--help"])
        assert r.exit_code == 0, r.output
        assert "Usage:" in r.output

    def test_usage_error_raises_when_not_standalone(self):
        with pytest.raises(click.UsageError):
            main(["check", "--samples", "abc"], standalone_mode=False)
