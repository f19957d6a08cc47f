import json
import stat

import pytest
from click.testing import CliRunner

from wordec.cli import main
from wordec.fixtures import load_pair
from wordec.frontend import emit_sexpr, emit_sv


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
        assert (out / "manifest.json").exists()
        assert list((out / "steps").glob("*.ir"))

    def test_sv_inputs_autodetected(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "adpcm", fmt="sv")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out")])
        assert r.exit_code == 0, r.output

    def test_no_rules_full_width_unproven(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig1")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--rules", "none", "--samples", "2000"])
        assert r.exit_code == 2, r.output

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

    def test_greedy_extraction(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4")
        r = runner.invoke(main, ["check", "--spec", sp, "--impl", ip,
                                 "--out", str(tmp_path / "out"),
                                 "--extraction", "greedy",
                                 "--max-exhaustive-bits", "16"])
        assert r.exit_code == 0, r.output


class TestSaturateExtract:
    def test_saturate_reports_merge(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "fig4")
        dump = tmp_path / "g.json"
        r = runner.invoke(main, ["saturate", "--spec", sp, "--impl", ip,
                                 "--dump-graph", str(dump)])
        assert r.exit_code == 0, r.output
        assert "roots merged" in r.output.lower() or "merged" in r.output
        assert json.loads(dump.read_text())["roots"]

    def test_extract_prints_objective(self, runner, tmp_path):
        sp, ip = _emit_pair(tmp_path, "adpcm")
        lp = tmp_path / "prog.lp"
        r = runner.invoke(main, ["extract", "--spec", sp, "--impl", ip,
                                 "--lp", str(lp)])
        assert r.exit_code == 0, r.output
        assert "objective" in r.output
        assert "Maximize" in lp.read_text()


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

    def test_prove_missing_dir_is_error(self, runner, tmp_path):
        r = runner.invoke(main, ["prove", str(tmp_path / "nothing")])
        assert r.exit_code == 3, r.output


class TestValidateRules:
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

    def test_unparseable_rule_file_is_error(self, runner, tmp_path):
        p = tmp_path / "syntax.rules"
        p.write_text("r : (+ ?wo => ;")
        r = runner.invoke(main, ["validate-rules", "--rules", str(p)])
        assert r.exit_code == 3, r.output


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

    def test_malformed_config_is_error(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        r = runner.invoke(main, ["--config", str(cfg), "bench", "adpcm"])
        assert r.exit_code == 3, r.output
