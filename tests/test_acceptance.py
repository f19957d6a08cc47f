"""Acceptance criteria.  Each test checks one criterion end to end and
prints a single `[PASS]`/`[FAIL]` line with the measured numbers."""

import random
import time

import pytest

from wordec.egraph import init_pair, saturate
from wordec.extract import extract_greedy, extract_ilp, pick_nodes, shared
from wordec.fixtures import load_pair, names
from wordec.ir import evaluate
from wordec.oracle import OracleConfig, run_waterfall
from wordec.proof import build_waterfall, check_adjacency, explain
from wordec.rewrites import CATALOGUE_TEXT, baseline_rules, parse_rules

from test_extract import diamond_egraph, enumerate_optimum, random_egraph


@pytest.fixture
def report(capsys, request):
    """Prints one pass/fail line per criterion, uncaptured."""
    outcome = {}

    def emit(ok: bool, detail: str):
        outcome["ok"] = ok
        with capsys.disabled():
            tag = "PASS" if ok else "FAIL"
            name = request.node.name.replace("test_", "", 1)
            print(f"[{tag}] {name}: {detail}")
        assert ok, detail
    return emit


def _saturated(name, rules=None):
    spec, impl = load_pair(name)
    g = init_pair(spec, impl)
    rules = rules if rules is not None else baseline_rules()
    rep = saturate(g, rules)
    return spec, impl, g, rules, rep


def test_c1_case_study_merges(report):
    t0 = time.time()
    _, _, g, _, rep = _saturated("fig1")
    dt = time.time() - t0
    ok = (rep.roots_merged and rep.iterations <= 5
          and rep.node_counts[-1] <= 1000 and dt < 5.0)
    report(ok, f"roots merged in {rep.iterations} iterations, "
               f"{rep.node_counts[-1]} nodes, {dt:.2f}s")


def test_c2_scaled_waterfall_discharged(report):
    t0 = time.time()
    spec, impl, g, rules, _ = _saturated("fig1-scaled")
    res = extract_ilp(g, timeout=10.0)
    w = build_waterfall(g, spec, impl, res, rules)
    rep = run_waterfall(w, OracleConfig(max_exhaustive_bits=16))
    dt = time.time() - t0
    statuses = [v.status for _, v in rep.verdicts]
    methods = {v.method for _, v in rep.verdicts
               if v.method != "assume-guarantee"}
    ok = (rep.overall == "pass" and rep.assume_guarantee == "pass"
          and all(s == "pass" for s in statuses)
          and methods == {"exhaustive"} and dt < 10.0)
    report(ok, f"{len(statuses)} obligations, all exhaustive passes, "
               f"{dt:.2f}s")


def test_c3_rule_catalogue_validates(report):
    from wordec.rewrites import validate_rule
    t0 = time.time()
    violations = []
    for r in parse_rules(CATALOGUE_TEXT):
        violations += validate_rule(r, maxw=4)
    dt = time.time() - t0
    ok = not violations and dt < 300.0
    report(ok, f"{len(violations)} violations at widths <= 4, {dt:.1f}s")


def test_c4_ilp_optimal_and_dominates_greedy(report):
    mismatches = 0
    dominated = True
    for seed in range(20):
        g = random_egraph(seed)
        il = extract_ilp(g, timeout=30.0)
        if il.objective != enumerate_optimum(g):
            mismatches += 1
        if extract_greedy(g).shared_node_count > il.shared_node_count:
            dominated = False
    g = diamond_egraph()
    strict = (extract_greedy(g).shared_node_count
              < extract_ilp(g, timeout=30.0).shared_node_count)
    ok = mismatches == 0 and dominated and strict
    report(ok, f"{mismatches}/20 enumeration mismatches, greedy dominated, "
               f"strict gap on adversarial graph: {strict}")


def test_c5_class_members_agree(report):
    rng = random.Random(11)
    bad = 0
    checked = 0
    for name in ("fig1-scaled", "fig4", "adpcm", "vbsme4", "boxfilter"):
        spec, _, g, _, _ = _saturated(name)
        pick = pick_nodes(g)
        envs = [{n: rng.randint(a.lo, a.hi) for n, a in spec.inputs}
                for _ in range(1000)]
        for cid in list(g.classes):
            if g.find(cid) != cid:
                continue
            terms = []
            for nid in g.classes[cid].node_ids:
                try:
                    terms.append(g.term(nid, pick, {}))
                except Exception:
                    continue
            if len(terms) < 2:
                continue
            checked += 1
            for env in envs:
                if len({evaluate(t, env) for t in terms}) != 1:
                    bad += 1
                    break
    report(bad == 0, f"{checked} multi-member classes agree on 1000 "
                     f"random vectors each ({bad} disagreements)")


def test_c6_benchmark_suite(report):
    rows = []
    ok = True
    for name in ("fig1", "fig4", "adpcm", "vbsme4", "vbsme8", "fir8"):
        t0 = time.time()
        _, _, g, _, rep = _saturated(name)
        dt = time.time() - t0
        merged = rep.roots_merged and rep.iterations <= 5
        ok = ok and merged
        rows.append(f"{name}: merged={rep.roots_merged} "
                    f"iters={rep.iterations} {dt:.2f}s")
    # boxfilter must saturate unmerged but still grow the shared set and
    # emit a center obligation
    spec, impl = load_pair("boxfilter")
    g = init_pair(spec, impl)
    rules = baseline_rules()
    before = len(shared(g).c_shared)
    rep = saturate(g, rules)
    after = len(shared(g).c_shared)
    res = extract_ilp(g, timeout=10.0)
    w = build_waterfall(g, spec, impl, res, rules)
    kinds = [o["kind"] for o in w.obligations()]
    box_ok = (not rep.roots_merged and after > before
              and kinds.count("center") == 1)
    ok = ok and box_ok
    rows.append(f"boxfilter: unmerged, shared {before}->{after}, "
                f"center emitted")
    report(ok, "; ".join(rows))


def test_c7_waterfall_adjacency_all_fixtures(report):
    violations = []
    for name in names():
        spec, impl, g, rules, _ = _saturated(name)
        res = extract_ilp(g, timeout=5.0)
        w = build_waterfall(g, spec, impl, res, rules)
        try:
            check_adjacency(w)
        except Exception as e:
            violations.append(f"{name}: {e}")
    report(not violations,
           f"{len(list(names()))} fixture waterfalls, "
           f"{len(violations)} adjacency violations"
           + (f" ({'; '.join(violations)})" if violations else ""))


def test_c8_interval_soundness(report):
    rng = random.Random(13)
    bad = 0
    checked = 0
    for name in ("fig1-scaled", "fig4", "adpcm", "boxfilter"):
        spec, _, g, _, _ = _saturated(name)
        pick = pick_nodes(g)
        envs = [{n: rng.randint(a.lo, a.hi) for n, a in spec.inputs}
                for _ in range(1000)]
        for cid, cls in g.classes.items():
            if g.find(cid) != cid or cid not in pick:
                continue
            t = g.term(pick[cid], pick, {})
            checked += 1
            for env in envs:
                v = evaluate(t, env)
                if not (cls.interval.lo <= v <= cls.interval.hi):
                    bad += 1
                    break
    report(bad == 0, f"{checked} class intervals contain 1000 random "
                     f"evaluations each ({bad} violations)")


def test_c9_two_step_proof(report):
    spec, impl, g, rules, rep = _saturated("fig4")
    steps = explain(g, spec.body, impl.body)
    ok = rep.roots_merged and rep.iterations <= 2 and len(steps) == 2
    report(ok, f"merged in {rep.iterations} iterations; proof is "
               f"{[s.rule_id for s in steps]}")
