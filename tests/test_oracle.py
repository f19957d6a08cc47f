import os
import stat

import pytest

from wordec.egraph import init_pair, saturate
from wordec.extract import extract_ilp
from wordec.fixtures import load_pair
from wordec.frontend import Design, parse_sexpr
from wordec.ir import Annotation, evaluate, op, var
from wordec.oracle import (OracleConfig, OracleError, check_equiv,
                           run_waterfall, run_waterfall_dir)
from wordec.proof import build_waterfall, write_waterfall
from wordec.rewrites import baseline_rules


def _design(name, body, inputs):
    return Design(name, tuple(inputs), ("o", body.out), body)


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
        a, b, ins = _ab(16)
        d1 = _design("d1", op("+", Annotation(17), (a.out, a), (b.out, b)),
                     ins)
        d2 = _design("d2", op("+", Annotation(17), (b.out, b), (a.out, a)),
                     ins)
        cfg = OracleConfig(max_exhaustive_bits=8, samples=500)
        v = check_equiv(d1, d2, cfg)
        assert v.status == "unproven"
        assert v.method == "random(500)"

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


class TestExternalChecker:
    def _wide_pair(self):
        a, b, ins = _ab(16)
        d1 = _design("d1", op("+", Annotation(17), (a.out, a), (b.out, b)),
                     ins)
        d2 = _design("d2", op("+", Annotation(17), (b.out, b), (a.out, a)),
                     ins)
        return d1, d2

    @pytest.mark.parametrize("code,status", [(0, "pass"), (1, "fail"),
                                             (2, "unproven")])
    def test_exit_code_mapping(self, tmp_path, code, status):
        d1, d2 = self._wide_pair()
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
        d1, d2 = self._wide_pair()
        cfg = OracleConfig(max_exhaustive_bits=8, samples=100,
                           external_cmd="/nonexistent/checker {left} {right}")
        v = check_equiv(d1, d2, cfg)
        assert v.status == "unproven" and "failed" in v.note


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
    def test_round_trip_matches_in_memory(self, tmp_path):
        w = _build("fig4")
        manifest = write_waterfall(w, tmp_path)
        cfg = OracleConfig(max_exhaustive_bits=16)
        mem = run_waterfall(w, cfg)
        disk = run_waterfall_dir(tmp_path, cfg)
        assert disk.overall == mem.overall == "pass"
        assert [ob for ob, _ in mem.verdicts] == manifest["obligations"] \
            == [ob for ob, _ in disk.verdicts]

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
        bad = Design(d.name, d.inputs, d.output, const(0, d.output[1]))
        victim.write_text(emit_sexpr(bad))
        rep = run_waterfall_dir(tmp_path, OracleConfig(max_exhaustive_bits=16))
        assert rep.overall == "fail"
        assert rep.assume_guarantee == "fail"
