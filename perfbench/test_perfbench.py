"""Fast self-test of the benchmark code on tiny subsets of its workloads.

    python3 -m pytest -q perfbench

Checks the metric names and units against BENCHMARK.json, the failure
accounting of every workload kind, that traced self times add up to the
traced wall time, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import run
import workloads
from tracing import Tracer, instrumented

run.load_wordec()
SCHEMA = run.load_schema()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_schema_is_well_formed():
    assert set(SCHEMA) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert [w["name"] for w in SCHEMA["workloads"]] == \
        list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SCHEMA[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SCHEMA["end_to_end"] + SCHEMA["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SCHEMA["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SCHEMA["end_to_end"])} \
        in SCHEMA["end_to_end"]
    assert len(SCHEMA["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in SCHEMA["workloads"])


def _pass(workload, tmp_path, seed=1):
    return workload.run_pass(seed, tmp_path, time.perf_counter)


def test_check_known_answers_and_outcomes(tmp_path):
    wl = workloads.CheckWorkload("t", {"fig4": ("pass", 2),
                                       "adpcm": ("pass", 48)})
    res = _pass(wl, tmp_path)
    assert res.failed == 0 and res.problems == []
    out = run.outcome_metrics(res, res.failed, len(res.ops))
    assert out["pairs_proven"] == 2 and out["failed_share"] == 0
    assert out["extract_timeouts"] == 0 and out["extract_objective"] == 50
    assert out["obligations_proven"] == 8


def test_check_failure_accounting(tmp_path):
    # vbsme4 ends unproven: a worse verdict than the claimed known answer
    worse = _pass(workloads.CheckWorkload("t", {"vbsme4": ("pass", 0)}),
                  tmp_path)
    assert worse.failed == 0 and "known answer pass" in worse.problems[0]
    # a missing rule file makes the CLI exit 3: a failed operation
    broken = _pass(workloads.CheckWorkload(
        "t", {"fig4": ("pass", 2)},
        extra_args=("--rules", str(tmp_path / "missing.rules"))), tmp_path)
    assert broken.failed == 1 and broken.ops[0].outcome["exit"] == 3
    assert run.outcome_metrics(broken, 1, 4)["failed_share"] == 0.25


def test_timed_out_outcomes_leave_out_what_follows_from_extraction():
    outcome = {"exit": 2, "verdict": "unproven", "objective": 14268,
               "timed_out": True, "steps": 40, "obligations": ["pass"],
               "node_counts": [61, 626]}
    fields = {k for k, _ in workloads._stable(outcome)}
    assert fields == {"timed_out", "node_counts"}
    assert len(workloads._stable(dict(outcome, timed_out=False))) == 7


def test_rescale_keeps_deadlines_and_drops_sampling():
    sampler = hostspeed.SpeedSampler()
    assert sampler.slowdown == 1.0
    sampler.samples, sampler.spent_s = 10, 0.1
    sampler.kernel_s = 20 * hostspeed.REF_KERNEL_S   # host twice as slow
    assert sampler.slowdown == pytest.approx(2.0)
    # 2.1 s wall = 0.1 s sampling + 1 s deadline + 1 s of work at half speed
    assert hostspeed.rescale(2.1, sampler, 1.0) == pytest.approx(1.5)


def _busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_sampler_samples_cpu_time_except_when_paused():
    with hostspeed.SpeedSampler() as sampler:
        _busy(0.2)
        seen = sampler.samples
        with hostspeed.paused():
            _busy(0.1)
        assert sampler.samples == seen
    assert seen >= 0.2 / hostspeed.INTERVAL_S / 2
    assert 0 < sampler.kernel_s <= sampler.spent_s
    with hostspeed.paused():  # no sampler: a no-op
        pass


def test_timed_out_extraction_is_deadline_time(tmp_path):
    wl = workloads.CheckWorkload("t", {"vbsme4": ("unproven", 0)},
                                 extra_args=("--extract-timeout", "0"))
    res = _pass(wl, tmp_path)
    assert res.ops[0].outcome["timed_out"] and res.problems == []
    assert 0 < res.deadline_s == res.ops[0].deadline_s < res.wall_s
    assert _pass(workloads.CheckWorkload("t", {"fig4": ("pass", 2)}),
                 tmp_path).deadline_s == 0


def test_saturate_failure_accounting(tmp_path):
    ok = _pass(workloads.SaturateWorkload("t", ("adpcm",), 1), tmp_path)
    assert ok.failed == 0 and ok.problems == []
    # fig4's roots never merge: a failed operation
    bad = _pass(workloads.SaturateWorkload("t", ("fig4",), 1), tmp_path)
    assert bad.failed == 1 and "roots merged False" in bad.problems[0]


def test_audit_failure_accounting(tmp_path):
    from wordec.rewrites import baseline_rules, parse_rules
    unsound = parse_rules("sub-comm : (- ?wo ?so ?w1 ?s1 ?a ?w2 ?s2 ?b)"
                          " => (- ?wo ?so ?w2 ?s2 ?b ?w1 ?s1 ?a) ;")
    rules = [r for r in baseline_rules() if r.id == "comm-add"] + unsound
    res = _pass(workloads.AuditWorkload("t", 2, rules), tmp_path)
    assert [op.failed for op in res.ops] == [False, True]
    assert "violations" in res.problems[0]


def test_traced_metrics_are_named_and_add_up(tmp_path):
    from wordec.rewrites import baseline_rules
    known = {m["name"] for m in SCHEMA["per_layer"]}
    for wl in (workloads.CheckWorkload("t", {"fig4": ("pass", 2)}),
               workloads.SaturateWorkload("t", ("adpcm",), 2),
               workloads.AuditWorkload("t", 2, baseline_rules()[:1])):
        tr = Tracer()
        with instrumented(tr), tr.root() as wall:
            res = _pass(wl, tmp_path)
        assert res.failed == 0
        metrics = run.layer_metrics(tr, wall[0])
        assert set(metrics) <= known, set(metrics) - known
        self_total = sum(v for k, v in metrics.items()
                         if k.startswith("self_s."))
        assert self_total == pytest.approx(wall[0], rel=1e-6)
    # wrappers are removed again
    from wordec import cli, extract
    assert cli.extract_ilp is extract.extract_ilp
    assert not hasattr(extract.extract_ilp, "__wrapped__")


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_schema(monkeypatch, capsys, trace, key):
    monkeypatch.setitem(workloads.WORKLOADS, "check-oracle",
                        workloads.CheckWorkload("check-oracle",
                                                {"fig4": ("pass", 2)}))
    assert run.main(["--workload", "check-oracle", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + trace  # traced runs add a reference
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SCHEMA[key]}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
