"""Acceptance suite: one test per release criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every expected value here is either computed by an exact oracle inside the
test or is a frozen constant from a recorded oracle run (noted inline).
"""
import itertools
import math
import random
import time
from fractions import Fraction

from gridpaths.exact import brute_mds, brute_mis, brute_vc
from gridpaths.generators import (
    gen_degree3_graph,
    gen_epg_double_crossing,
    gen_epg_vertical_crossing,
    gen_vpg,
)
from gridpaths.geometry import GridPath, build_graph, vpg_adjacent
from gridpaths.instance_io import emit_instance
from gridpaths.mds_epg import greedy_line_mds
from gridpaths.mds_vpg import (
    NetParams,
    approx_mds_one_string,
    bg_hitting_set,
    build_set_system,
    combined_net,
    ds_to_hs,
    hs_to_ds,
    verify_hitting,
)
from gridpaths.mis import approx_mis
from gridpaths.reduction import SimpleGraph, map_back, reduce_vc_to_mds

from conftest import (
    all_points,
    build_cross,
    crosses_intersect,
    find_disjoint_optimum,
    hand_crossings,
    split_neighbors,
)
from test_golden import dense_vpg

# Ratio bound for the dominating-set pipeline, pinned from the recorded
# oracle run over the exact corpus below (observed maximum 8/7 ~= 1.143,
# median 1.0); the provisional bound before that run was 6.
PIPELINE_RATIO_BOUND = 1.25

# Worst and mean ratio of the dominating-set pipeline to the exact optimum
# on the dense one-string corpus of test_dense_corpus_mds_ratio, pinned from
# the recorded oracle run of the doubling loop that reweighted one unhit set
# per net (worst 8/5 = 1.6, mean 1.10506, which the pin rounds down to
# 1.105).  Phase reweighting measured worst 1.6, mean 1.0842 on the same
# corpus.
DENSE_MDS_WORST = 1.6
DENSE_MDS_MEAN = 1.105


def test_criterion_1_mis_guarantee():
    start = time.perf_counter()
    for seed in range(200):
        n = 4 + seed % 15  # sizes 4..18
        rep = gen_vpg(n, seed, one_string=True)
        graph = build_graph(rep)
        solution = approx_mis(rep)
        assert graph.is_independent_set(solution), f"seed {seed}: dependent output"
        opt = len(brute_mis(graph))
        bound = opt / (4 * max(1.0, math.log2(n)))
        assert len(solution) >= bound, f"seed {seed}: {len(solution)} < {bound}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds five minutes"
    print(f"\nPASS criterion 1: MIS ratio and independence on 200 instances "
          f"(n in [4,18]) in {elapsed:.1f}s")


def test_criterion_2_cross_equivalence():
    rng = random.Random(20240)
    checked = 0
    excluded = 0
    while checked < 10_000:
        cx, cy = rng.randint(-9, 9), rng.randint(-9, 9)
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        a = GridPath.make("a", cx, cy,
                          cx + rng.choice((-1, 1)) * rng.randint(1, 6),
                          cy + rng.choice((-1, 1)) * rng.randint(1, 6))
        b = GridPath.make("b", dx, dy,
                          dx + rng.choice((-1, 1)) * rng.randint(1, 6),
                          dy + rng.choice((-1, 1)) * rng.randint(1, 6))
        ca, cb = build_cross(a), build_cross(b)
        touch_only = bool(all_points(a) & all_points(b)) and not vpg_adjacent(a, b)
        if touch_only or hand_crossings(a, b)[1] or ca.degenerate or cb.degenerate:
            excluded += 1
            continue
        assert vpg_adjacent(a, b) == crosses_intersect(ca, cb)
        checked += 1
    print(f"\nPASS criterion 2: cross equivalence on {checked} pairs, "
          f"zero failures ({excluded} pathological contacts excluded, "
          f"rate {excluded / (checked + excluded):.3%})")


def test_criterion_3_conversion_bounds():
    for seed in range(100):
        n = 4 + seed % 9  # sizes 4..12
        rep = gen_vpg(n, seed + 1000, one_string=True)
        system = build_set_system(rep)
        optimum = brute_mds(system.graph)
        hitting = ds_to_hs(optimum, system)
        assert len(hitting) == 2 * len(optimum)
        assert verify_hitting(system, hitting) is None
        dominating = hs_to_ds(hitting, system)
        assert system.graph.is_dominating_set(dominating)
        assert len(dominating) <= len(hitting)
        assert len(dominating) <= 2 * len(optimum)
    print("\nPASS criterion 3: dominating/hitting conversions on 100 instances, "
          "zero violations")


def test_criterion_4_net_soundness():
    rng = random.Random(4)
    for trial in range(50):
        n = 6 + trial % 25  # universe sizes 12..60
        rep = gen_vpg(n, trial + 2000, one_string=True)
        system = build_set_system(rep)
        assert len(system.universe) <= 60
        if trial % 2:
            for i in range(len(system.weights)):  # exercise the weighted case
                system.weights[i] = rng.randint(1, 16)
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            net = combined_net(system, eps, NetParams(rng_seed=trial))
            total = sum(system.weights)
            for members in system.sets:
                mass = sum(system.weights[e] for e in members)
                if Fraction(mass) >= eps * total:
                    assert set(members) & net, (
                        f"trial {trial}, eps {eps}: heavy set unhit"
                    )
    print("\nPASS criterion 4: net soundness on 50 instances x 3 epsilons, "
          "zero violations, no fallback failures")


def test_criterion_5_pipeline_ratio():
    worst = 0.0
    for seed in range(100):
        n = 4 + seed % 11  # sizes 4..14
        rep = gen_vpg(n, seed, one_string=True)
        graph = build_graph(rep)
        solution = approx_mds_one_string(rep, NetParams(rng_seed=seed))
        assert graph.is_dominating_set(solution), f"seed {seed}: not dominating"
        ratio = len(solution) / len(brute_mds(graph))
        worst = max(worst, ratio)
        assert ratio <= PIPELINE_RATIO_BOUND, f"seed {seed}: ratio {ratio:.3f}"
    print(f"\nPASS criterion 5: pipeline dominates on 100 instances, "
          f"max ratio {worst:.4f} <= {PIPELINE_RATIO_BOUND}")


def test_dense_corpus_mds_ratio():
    start = time.perf_counter()
    ratios = []
    for seed in range(60):
        for n, window, max_arm in ((15, 8, 6), (20, 10, 6), (25, 10, 8)):
            rep = dense_vpg(seed, n, window, max_arm, True)
            graph = build_graph(rep)
            solution = approx_mds_one_string(rep, NetParams(rng_seed=seed))
            assert graph.is_dominating_set(solution), f"seed {seed}, n {n}: not dominating"
            ratio = len(solution) / len(brute_mds(graph, cap=25))
            assert ratio <= DENSE_MDS_WORST, f"seed {seed}, n {n}: ratio {ratio:.3f}"
            ratios.append(ratio)
    mean = sum(ratios) / len(ratios)
    assert mean <= DENSE_MDS_MEAN, f"mean ratio {mean:.4f}"
    elapsed = time.perf_counter() - start
    print(f"\nPASS dense MDS corpus: {len(ratios)} one-string instances (n in 15..25), "
          f"max ratio {max(ratios):.4f} <= {DENSE_MDS_WORST}, mean {mean:.4f} <= "
          f"{DENSE_MDS_MEAN}, in {elapsed:.1f}s")


def test_criterion_6_greedy_epg():
    double_witnessed = 0
    for seed in range(200):
        n = 4 + seed % 13  # sizes 4..16
        rep = gen_epg_double_crossing(n, seed)
        graph = build_graph(rep)
        greedy = greedy_line_mds(rep)
        assert graph.is_dominating_set(greedy)
        opt = brute_mds(graph)
        assert len(greedy) <= 2 * len(opt), f"seed {seed}: ratio above 2"
        disjoint = find_disjoint_optimum(graph, greedy, len(opt))
        if disjoint is not None:
            double_witnessed += 1
            for v in disjoint:
                assert len(set(graph.neighbors(v)) & greedy) <= 2
    vertical_witnessed = 0
    for seed in range(200):
        n = 4 + seed % 13
        rep = gen_epg_vertical_crossing(n, seed)
        graph = build_graph(rep)
        greedy = greedy_line_mds(rep)
        assert graph.is_dominating_set(greedy)
        opt = brute_mds(graph)
        assert len(greedy) <= 3 * len(opt), f"seed {seed}: ratio above 3"
        disjoint = find_disjoint_optimum(graph, greedy, len(opt))
        if disjoint is not None:
            vertical_witnessed += 1
            for v in disjoint:
                h_nb, v_nb = split_neighbors(rep, v)
                assert len(h_nb & greedy) <= 1
                assert len(v_nb & greedy) <= 2
    print(f"\nPASS criterion 6: greedy within 2x on 200 double-crossing "
          f"({double_witnessed} witness checks) and 3x on 200 "
          f"vertical-crossing instances ({vertical_witnessed} witness checks)")


def _check_reduction_instance(g: SimpleGraph):
    inst = reduce_vc_to_mds(g)
    graph = build_graph(inst.rep)
    optimum = brute_mds(graph, cap=70)
    cover_opt = len(brute_vc(g))
    assert len(optimum) == g.n + cover_opt, (
        f"identity failed on n={g.n}, edges={g.edges}"
    )
    if not g.has_isolated_vertex():
        assert len(optimum) <= 5 * cover_opt
    candidates = [optimum, set(graph.vertices), greedy_line_mds(inst.rep)]
    for dominating in candidates:
        cover = map_back(dominating, inst, g)
        assert g.is_vertex_cover(cover)
        assert len(cover) - cover_opt <= len(dominating) - len(optimum)


def test_criterion_7_reduction_identity():
    small = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(e for i, e in enumerate(pairs) if bits >> i & 1)
            g = SimpleGraph(n, edges)
            if g.max_degree() > 3:
                continue
            _check_reduction_instance(g)
            small += 1
    for seed in range(100):
        n = 6 + seed % 3
        m = (seed * 7) % (3 * n // 2 + 1)
        _check_reduction_instance(gen_degree3_graph(n, m, seed))
    print(f"\nPASS criterion 7: identity, error transfer and blow-up bound on "
          f"{small} exhaustive graphs (n <= 5) plus 100 random graphs (n in [6,8])")


def test_criterion_8_determinism():
    rep_a = gen_vpg(12, 5, one_string=True)
    rep_b = gen_vpg(12, 5, one_string=True)
    assert rep_a == rep_b
    assert emit_instance(rep_a) == emit_instance(rep_b)
    assert gen_epg_double_crossing(10, 3) == gen_epg_double_crossing(10, 3)
    assert gen_epg_vertical_crossing(10, 3) == gen_epg_vertical_crossing(10, 3)
    assert gen_degree3_graph(7, 9, 2) == gen_degree3_graph(7, 9, 2)

    assert approx_mis(rep_a) == approx_mis(rep_b)
    params = NetParams(rng_seed=11)
    assert approx_mds_one_string(rep_a, params) == approx_mds_one_string(rep_b, params)
    system_a = build_set_system(rep_a)
    system_b = build_set_system(rep_b)
    assert bg_hitting_set(system_a, params) == bg_hitting_set(system_b, params)

    epg = gen_epg_double_crossing(11, 7)
    assert greedy_line_mds(epg) == greedy_line_mds(epg)
    graph = build_graph(rep_a)
    assert brute_mis(graph) == brute_mis(graph)
    assert brute_mds(graph) == brute_mds(graph)

    g = gen_degree3_graph(5, 6, 1)
    inst_a = reduce_vc_to_mds(g)
    inst_b = reduce_vc_to_mds(g)
    assert inst_a == inst_b
    assert emit_instance(inst_a.rep, inst_a.labels) == emit_instance(
        inst_b.rep, inst_b.labels
    )
    print("\nPASS criterion 8: generators and solvers reproduce byte-identical "
          "output for fixed seeds")
