"""Tests of the benchmark's own code: python3 -m pytest benchmark"""
from __future__ import annotations

import itertools
import json
import random
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    for k in range(len(run.WORKLOADS[workload])):
        a = run.make_op(workload, 7, k, tmp_path / "a").texts
        b = run.make_op(workload, 7, k, tmp_path / "b").texts
        c = run.make_op(workload, 8, k, tmp_path / "c").texts
        assert a == b
        assert a != c


# Two crossing paths (p0, p1) and a far-away path p2.
_TRIO = [("p0", 0, 0, 4, 4), ("p1", 2, 2, -1, -1), ("p2", 20, 20, 21, 21)]


def _solve_op(problem: str) -> run.Op:
    return run.Op("t", "solve", 3, {}, problem, texts={"inst": gen.instance_text("vpg", _TRIO)})


def test_checker_sees_the_crossing():
    assert check.adjacency(_TRIO, "vpg") == [[1], [0], []]
    assert check.adjacency(_TRIO, "epg") == [[], [], []]


def test_checker_rejects_a_dependent_set():
    assert run.check_op(_solve_op("mis"), {"stdout": "p0\np1\np2\n"})[0] == "dependent set"
    assert run.check_op(_solve_op("mis"), {"stdout": "p0\np2\n"})[0] == ""


def test_checker_rejects_a_non_dominating_set():
    assert run.check_op(_solve_op("mds-vpg"), {"stdout": "p2\n"})[0] == "not dominating"
    assert run.check_op(_solve_op("mds-vpg"), {"stdout": "p1\np2\n"})[0] == ""


def test_checker_rejects_unknown_ids():
    assert run.check_op(_solve_op("mis"), {"stdout": "p0\nq9\n"})[0]


def test_walkthrough_checker_rejects_a_non_cover_and_a_non_dominating_set(tmp_path):
    op = run.make_op("epg-mix", 3, 2, tmp_path)  # stratum 2 is a reduction walkthrough
    rc, outputs, err = run.execute(op)
    assert rc == 0, err
    assert run.check_op(op, outputs)[0] == ""
    assert "cover" in run.check_op(op, dict(outputs, cover=""))[0]
    first = outputs["ds"].split()[0]
    bad = dict(outputs, ds="".join(f"{i}\n" for i in outputs["ds"].split() if i != first))
    assert run.check_op(op, bad)[0] == "not dominating"


def test_vertex_cover_check():
    assert not check.is_vertex_cover([(0, 1), (1, 2)], [0])
    assert check.is_vertex_cover([(0, 1), (1, 2)], [1])


def test_metrics_of_a_two_op_run():
    ok = run.Record("a", paths=100, seconds=0.2, rc=0, digest="", ok=True, ratios=[1.5, 2.5])
    failed = run.Record("b", paths=50, seconds=0.1, rc=1, digest="")
    metrics, latency = run.end_to_end([ok, failed])
    assert metrics["ok_frac"] == 0.5
    assert latency["fail_frac"] == 0.5
    assert metrics["approx_ratio"] == 2.0
    assert metrics["paths_per_s"] == pytest.approx(100 / 0.3)
    assert metrics["op_ms.p50"] == pytest.approx(200.0)


def test_a_refusal_counts_against_ok_frac_but_is_not_a_failure():
    ok = run.Record("a", paths=100, seconds=0.2, rc=0, digest="", ok=True, ratios=[1.0])
    refused = run.Record("b", paths=50, seconds=0.1, rc=1, digest="", refused=True)
    metrics, latency = run.end_to_end([ok, refused])
    assert metrics["ok_frac"] == 0.5
    assert latency["refused_frac"] == 0.5
    assert latency["fail_frac"] == 0.0
    assert metrics["paths_per_s"] == pytest.approx(100 / 0.3)


def test_tail_keeps_ten_samples_above_it():
    values = list(range(100))
    value, _ = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert run.tail([1.0, 2.0, 3.0])[0] == 2.0  # too few samples: the median


def _graphs():
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(0, 1 << len(pairs), max(1, (1 << len(pairs)) // 40)):
            adj = [[] for _ in range(n)]
            for bit, (u, v) in enumerate(pairs):
                if mask >> bit & 1:
                    adj[u].append(v)
                    adj[v].append(u)
            yield adj


def test_exact_searches_match_enumeration():
    for adj in _graphs():
        subsets = [s for r in range(len(adj) + 1) for s in itertools.combinations(range(len(adj)), r)]
        assert check.exact_mis(adj) == max(len(s) for s in subsets if check.is_independent(adj, s))
        assert check.exact_mds(adj) == min(len(s) for s in subsets if check.is_dominating(adj, s))
        assert check.packing_bound(adj) <= check.exact_mds(adj)
        assert check.greedy_mis(adj) <= check.exact_mis(adj)


def test_generators_meet_their_families():
    rng = random.Random(5)
    assert check.is_one_string(gen.vpg_one_string(rng, 60, 60, 12))
    assert check.is_double_crossing(gen.epg_double_crossing(rng, 60, 20, 4), 0, 0)
    vc = gen.epg_vertical_crossing(rng, 60, 15, 15, 4, 8)
    assert check.is_vertical_crossing(vc, 0) and check.non_containment(vc)
    assert not check.is_one_string(gen.plant_double_crossing(_TRIO))
    assert not check.non_containment(gen.plant_containment(vc))
    edges = gen.degree3_graph(rng, 30, 42)
    assert len(edges) == 42 and max(sum(v in e for e in edges) for v in range(30)) <= 3


def test_package_predicates_agree_with_the_checker(tmp_path):
    corpus = [run.make_op(w, 11, k, tmp_path / f"{w}{k}")
              for w in ("desk-exact", "epg-mix") for k in range(3)]
    assert run.crosscheck(corpus) == []


def test_absent_wrap_target_is_reported_not_fatal():
    module = types.ModuleType("fake")
    module.work = lambda x: x + 1
    tracer = Tracer()
    tracer.wrap(module, "gone", "fake.gone")
    tracer.wrap(module, "work", "fake.work")
    assert module.work(1) == 2
    tracer.unwrap_all()
    assert tracer.absent == ["fake.gone"]
    assert tracer.totals()[2]["fake.work"] == 1


def test_self_time_excludes_children():
    module = types.ModuleType("fake")
    module.inner = lambda: sum(range(20000))
    module.outer = lambda: module.inner() + module.inner()
    tracer = Tracer()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    module.outer()
    tracer.unwrap_all()
    total, own, calls = tracer.totals()
    assert calls == {"inner": 2, "outer": 1}
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_reports_the_metrics_benchmark_json_names(traced, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    report, result = run.run("desk-exact", 4, 0.3, traced, tmp_path)
    wanted = spec["per_layer" if traced else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    if traced:
        assert report["details"]["traced_outputs_identical"]
        assert report["details"]["absent"] == []
