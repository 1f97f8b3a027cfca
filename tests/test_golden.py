"""Byte-identity of the solvers' outputs with the pairwise-scan implementation.

The digests below were computed by the all-pairs implementation of graph
building, the one-string check, the set-system membership scan and the
Fraction-based heavy-set test.  The output-sensitive replacements must
reproduce them exactly: same edges, same set members in the same order, and
the same random stream in the nets, hence the same answers.  The digest of
the exact independent-set and dominating-set answers was computed by the
separate branch-and-bound searches that preceded the shared ones in
`gridpaths.exact`; the shared searches must return the same sets.  The
dominating-set answers were re-pinned when `bg_hitting_set` moved from
doubling one unhit set per net to doubling every light unhit set in one
verification pass, which changes the weights the later nets are drawn from.
The vertical-crossing digest was computed while EPG edges were still
re-tested pair by pair with `epg_adjacent`; the shared-edge sweep that
replaced that test must reproduce it.  The independent-set digest was
computed while the median split compared coordinates with a `Fraction` and
every line-meeting strip was solved exactly, whether or not it could beat
the two sides; the integer comparison and the skipped strips must reproduce
it.  The set-system digest was re-pinned when the sets came to be filled
from proper crossings only: the one-string instances' sets stayed the same,
and only the degenerate instance's moved, where touching contacts had made
crosses meet.  The degenerate answers were first pinned then, when the
pipeline stopped refusing that instance.

The instances are built here, not by the library generators, because those
are nearly edgeless; each is seeded and dense enough that every path has a
few neighbours.
"""
from __future__ import annotations

import hashlib
import json
import random

from gridpaths.exact import brute_hs, brute_mds, brute_mis
from gridpaths.generators import gen_degree3_graph
from gridpaths.geometry import (
    GridPath,
    Mode,
    PathType,
    Representation,
    build_graph,
    is_one_string,
)
from gridpaths.mds_epg import greedy_line_mds
from gridpaths.mds_vpg import NetParams, approx_mds_one_string, build_set_system
from gridpaths.mis import approx_mis, approx_mis_single_type, split_by_type
from gridpaths.reduction import reduce_vc_to_mds

from conftest import reference_mis_single_type

TIP_SIGNS = ((1, 1), (1, -1), (-1, -1), (-1, 1))


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _span(a, b):
    return (a, b) if a <= b else (b, a)


def _breaks_one_string(p, q):
    """Shares a collinear grid edge, or crosses twice."""
    ph, pv = _span(p.corner.x, p.h_tip.x), _span(p.corner.y, p.v_tip.y)
    qh, qv = _span(q.corner.x, q.h_tip.x), _span(q.corner.y, q.v_tip.y)
    if p.corner.y == q.corner.y and min(ph[1], qh[1]) - max(ph[0], qh[0]) >= 1:
        return True
    if p.corner.x == q.corner.x and min(pv[1], qv[1]) - max(pv[0], qv[0]) >= 1:
        return True
    return (ph[0] < q.corner.x < ph[1] and qv[0] < p.corner.y < qv[1]
            and qh[0] < p.corner.x < qh[1] and pv[0] < q.corner.y < pv[1])


def _random_path(rng, pid, window, min_arm, max_arm):
    cx, cy = rng.randrange(window), rng.randrange(window)
    sx, sy = TIP_SIGNS[rng.randrange(4)]
    return GridPath.make(pid, cx, cy, cx + sx * rng.randint(min_arm, max_arm),
                         cy + sy * rng.randint(min_arm, max_arm))


def dense_vpg(seed, n, window, max_arm, one_string, min_arm=1):
    """Mixed-type VPG paths with distinct corners; with one_string, each path
    is redrawn until the instance stays one-string."""
    rng = random.Random(seed)
    paths, corners = [], set()
    while len(paths) < n:
        p = _random_path(rng, f"p{len(paths)}", window, min_arm, max_arm)
        if p.corner in corners:
            continue
        if one_string and any(_breaks_one_string(p, q) for q in paths):
            continue
        paths.append(p)
        corners.add(p.corner)
    return Representation(Mode.VPG, tuple(paths))


def dense_double_crossing(seed, n, box, reach):
    """LL paths with distinct corners in [-box, -1]^2 crossing x = 0 and y = 0."""
    rng = random.Random(seed)
    paths, corners = [], set()
    while len(paths) < n:
        cx, cy = rng.randint(-box, -1), rng.randint(-box, -1)
        if (cx, cy) in corners:
            continue
        corners.add((cx, cy))
        paths.append(GridPath.make(f"p{len(paths)}", cx, cy,
                                   rng.randint(0, reach), rng.randint(0, reach)))
    return Representation(Mode.EPG, tuple(paths), vline=0, hline=0)


def dense_vertical_crossing(seed, n, columns, rows, reach):
    """Paths with distinct corners in [-columns, -1] x [-rows, rows] crossing
    x = 0, with vertical parts running up or down.  Few columns and many rows
    crowd each column with vertical parts, so same-column point contacts and
    zero-length vertical parts are common."""
    rng = random.Random(seed)
    paths, corners = [], set()
    while len(paths) < n:
        cx, cy = rng.randint(-columns, -1), rng.randint(-rows, rows)
        if (cx, cy) in corners:
            continue
        corners.add((cx, cy))
        hx = rng.randint(0, reach)
        vy = cy + rng.choice((-1, 1)) * rng.randint(0, reach)
        paths.append(GridPath.make(f"p{len(paths)}", cx, cy, hx, vy))
    return Representation(Mode.EPG, tuple(paths), vline=0)


def gadget(seed, n, m):
    return reduce_vc_to_mds(gen_degree3_graph(n, m, seed)).rep


ONE_STRING = [dense_vpg(1, 40, 16, 8, True), dense_vpg(2, 80, 24, 10, True),
              dense_vpg(3, 120, 30, 12, True)]
# Zero-length arms make degenerate crosses and touching contacts where two
# crosses meet although the paths are not adjacent; the sets come from proper
# crossings only, so the pipeline answers these too.
DEGENERATE = [dense_vpg(10, 60, 20, 8, True, min_arm=0)]
MIXED_VPG = [dense_vpg(seed, 150, 40, 10, False, min_arm=0) for seed in (4, 5)]
EPG = [dense_double_crossing(6, 150, 20, 6), dense_double_crossing(7, 300, 25, 10),
       gadget(8, 12, 16), gadget(9, 20, 28)]


def edges_of(rep):
    return build_graph(rep).edges()


def test_instances_are_dense():
    for rep in ONE_STRING + DEGENERATE + MIXED_VPG + EPG:
        assert 2 * len(edges_of(rep)) >= len(rep.paths)


def test_mds_one_string_answers():
    answers = [sorted(approx_mds_one_string(rep, NetParams(rng_seed=seed)))
               for rep in ONE_STRING for seed in (0, 7)]
    assert digest(answers) == (
        "49ec295e19207dc349fa5a0dc76d902f4ed1314a16009eef84f39b6e4074d44f"
    )


def test_mds_degenerate_answers():
    answers = [(rep, approx_mds_one_string(rep, NetParams(rng_seed=seed)))
               for rep in DEGENERATE for seed in (0, 7)]
    assert all(build_graph(rep).is_dominating_set(ds) for rep, ds in answers)
    assert digest([sorted(ds) for _, ds in answers]) == (
        "6d110d937749629bd1a9d402ba1252e9acafa77b2ff6a7c881529011498c23cf"
    )


def test_set_system_sets():
    assert digest([build_set_system(rep).sets for rep in ONE_STRING + DEGENERATE]) == (
        "684cab18315b60f3cc2e070a5daa8bec25ac2b07f64ae8d1e98e0db41759e6ee"
    )


def test_vpg_graph_edges():
    assert digest([edges_of(rep) for rep in ONE_STRING + DEGENERATE + MIXED_VPG]) == (
        "e0d19d661a219037c191a128743807f695d87e63d2f667dd4de00f5cf395c6be"
    )


def test_epg_graph_edges():
    assert digest([edges_of(rep) for rep in EPG]) == (
        "a9989d812a8ceb1809276cf88cc3dede3c3ce4ae64d953f7aa3d5239235b088c"
    )


def test_greedy_line_mds_answers():
    assert digest([sorted(greedy_line_mds(rep)) for rep in EPG]) == (
        "b69d85683d8493b3a5bf73ed476562ce174af180ac2a97f567b1a1d5b249d64a"
    )


# Vertical-crossing instances whose columns hold point contacts (closed
# vertical spans meeting in one point: no shared edge) and zero-length
# vertical parts, which the double-crossing and gadget instances lack.
VERTICAL_CROSSING = [dense_vertical_crossing(11, 150, 6, 20, 6),
                     dense_vertical_crossing(12, 300, 8, 30, 10)]


def _column_contacts(rep):
    """(same-column pairs meeting in one point, zero-length vertical parts)."""
    points = sum(
        p.corner.x == q.corner.x
        and min(p.v_span[1], q.v_span[1]) - max(p.v_span[0], q.v_span[0]) == 0
        for i, p in enumerate(rep.paths) for q in rep.paths[i + 1:]
    )
    return points, sum(p.v_span[0] == p.v_span[1] for p in rep.paths)


def test_vertical_crossing_instances_have_contacts():
    assert [_column_contacts(rep) for rep in VERTICAL_CROSSING] == [(96, 22), (179, 23)]
    assert [len(edges_of(rep)) for rep in VERTICAL_CROSSING] == [399, 1324]


def test_vertical_crossing_edges_and_answers():
    assert digest([[edges_of(rep), sorted(greedy_line_mds(rep))]
                   for rep in VERTICAL_CROSSING]) == (
        "645f6ca23f813722c8fbcf512cff32f196689212e8c5ee3d181e5e843b53c41c"
    )


# Desk-scale instances for the exact oracles: one-string and mixed VPG paths
# at n <= 25, and a 21-path reduction gadget.
DESK = [dense_vpg(seed, n, window, max_arm, one_string)
        for seed in range(30, 40)
        for n, window, max_arm in ((15, 7, 5), (20, 9, 6), (25, 10, 6))
        for one_string in (True, False)] + [gadget(3, 3, 3)]


def test_desk_instances_have_edges():
    assert all(edges_of(rep) for rep in DESK)


def test_exact_oracle_answers():
    graphs = [build_graph(rep) for rep in DESK]
    answers = [sorted(brute_mis(g)) for g in graphs]
    answers += [sorted(brute_mds(g)) for g in graphs]
    answers.append(sorted(brute_mds(build_graph(gadget(2, 6, 7)), cap=44)))
    assert digest(answers) == (
        "84c7cd56159f18ffa16481840cbb8353e321c083b15905fef92dde6e1051dce2"
    )


def test_exact_hitting_set_lines():
    # The "axis owner" lines that `gridpaths exact hs` prints and the
    # benchmark's desk-exact op compares, over the one-string desk instances.
    answers = []
    for rep in DESK:
        if rep.mode is Mode.VPG and is_one_string(rep):
            system = build_set_system(rep)
            answers.append(sorted(f"{system.universe[e].axis.value} {system.universe[e].owner}"
                                  for e in brute_hs(system)))
    assert len(answers) == 30
    assert digest(answers) == (
        "823661ac02d41bde9883786b9d595a4ce5558a5c227743d3a7421b1b8e0f95ed"
    )


# Mixed VPG instances for the independent-set recursion, dense enough that
# some line-meeting strips beat the two sides around them.
MIS_VPG = ONE_STRING + DEGENERATE + MIXED_VPG + [
    dense_vpg(41, 600, 600, 54, False), dense_vpg(42, 1000, 1000, 70, False)]


def test_mis_instances_have_both_kinds_of_strip():
    # A strip no larger than the two-sided answer cannot win and is not
    # solved; a larger one is.  The digest below covers both.
    strips = []
    for rep in MIS_VPG:
        for paths in split_by_type(rep).values():
            assert reference_mis_single_type(paths, strips) == approx_mis_single_type(paths)
    assert any(middle <= side for middle, side in strips)
    assert any(middle > side for middle, side in strips)


def test_mis_answers():
    answers = []
    for rep in MIS_VPG:
        buckets = split_by_type(rep)
        answers.append([sorted(approx_mis(rep))]
                       + [sorted(approx_mis_single_type(buckets[t])) for t in PathType])
    assert digest(answers) == (
        "db58649c6054ff505cf64b3f4db46d0424910d52a45b3f61556b90a35f00f862"
    )
