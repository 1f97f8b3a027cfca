"""Geometry core: path anatomy, adjacency tests, graph derivation."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpaths.errors import GeneralPositionViolation, UnknownId, WrongMode
from gridpaths.exact import brute_mds, brute_mis
from gridpaths.geometry import (
    GridPath,
    GridPoint,
    IntersectionGraph,
    Mode,
    PathType,
    Representation,
    _collinear_overlap,
    _proper_cross,
    build_graph,
    classify_type,
    epg_adjacent,
    is_one_string,
    vpg_adjacent,
    weak_general_position,
)

from gridpaths.mds_epg import greedy_line_mds, order_paths

from conftest import (
    all_points,
    benchmark_gen,
    hand_crossings,
    hand_vpg_adjacent,
    pairwise_edges,
    pairwise_graph,
    split_neighbors,
)


def P(pid, cx, cy, hx, vy):
    return GridPath.make(pid, cx, cy, hx, vy)


def rand_path(rng, pid="x", span=8, max_arm=5):
    cx, cy = rng.randint(-span, span), rng.randint(-span, span)
    return P(
        pid,
        cx,
        cy,
        cx + rng.choice((-1, 1)) * rng.randint(0, max_arm),
        cy + rng.choice((-1, 1)) * rng.randint(0, max_arm),
    )


class TestGridPath:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            GridPath("a", GridPoint(0, 0), GridPoint(3, 1), GridPoint(0, 2))
        with pytest.raises(ValueError):
            GridPath("a", GridPoint(0, 0), GridPoint(3, 0), GridPoint(1, 2))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Representation(Mode.VPG, (P("a", 0, 0, 1, 1), P("a", 5, 5, 6, 6)))

    def test_spans(self):
        p = P("a", 2, 3, -1, 7)
        assert p.h_span == (-1, 2)
        assert p.v_span == (3, 7)


class TestClassifyType:
    def test_right_up_is_ll(self):
        assert classify_type(P("a", 0, 0, 3, 2)) is PathType.LL

    def test_left_down_is_ur(self):
        # Arms pointing left and down put the corner at the upper right.
        assert classify_type(P("a", 0, 0, -3, -2)) is PathType.UR

    def test_right_down_is_ul(self):
        assert classify_type(P("a", 0, 0, 3, -2)) is PathType.UL

    def test_left_up_is_lr(self):
        assert classify_type(P("a", 0, 0, -3, 2)) is PathType.LR

    def test_degenerate_is_ll(self):
        assert classify_type(P("a", 5, 5, 5, 5)) is PathType.LL

    def test_zero_arm_resolves_toward_ll(self):
        assert classify_type(P("a", 0, 0, 0, 4)) is PathType.LL
        assert classify_type(P("a", 0, 0, 4, 0)) is PathType.LL


class TestVpgAdjacent:
    def test_proper_crossing(self):
        a = P("a", 0, 0, 2, 2)
        b = P("b", 1, -1, 3, 1)
        assert vpg_adjacent(a, b)

    def test_endpoint_touch_excluded(self):
        a = P("a", 0, 0, 2, 2)
        b = P("b", 2, 0, 4, 2)
        assert not vpg_adjacent(a, b)

    def test_collinear_overlap_two_nodes(self):
        a = P("a", 0, 0, 4, 1)
        b = P("b", 2, 0, 6, -1)
        assert vpg_adjacent(a, b)

    def test_single_node_collinear_touch_excluded(self):
        a = P("a", 0, 0, 2, 1)
        b = P("b", 2, 0, 5, -1)
        assert not vpg_adjacent(a, b)

    def test_t_junction_excluded(self):
        # b's vertical part ends on the interior of a's horizontal part.
        a = P("a", 0, 0, 6, 1)
        b = P("b", 3, -4, 5, 0)
        assert not vpg_adjacent(a, b)

    def test_vertical_tip_on_corner_excluded(self):
        # b's vertical part ends exactly at a's corner.
        a = P("a", 1, 0, 5, 3)
        b = P("b", 1, -2, 3, 0)
        assert not vpg_adjacent(a, b)

    def test_symmetry_random(self):
        rng = random.Random(7)
        for _ in range(2000):
            a = rand_path(rng, "a")
            b = rand_path(rng, "b")
            assert vpg_adjacent(a, b) == vpg_adjacent(b, a)
            assert epg_adjacent(a, b) == epg_adjacent(b, a)

    def test_matches_point_enumeration_oracle(self):
        rng = random.Random(11)
        for _ in range(3000):
            a = rand_path(rng, "a")
            b = rand_path(rng, "b")
            assert vpg_adjacent(a, b) == hand_vpg_adjacent(a, b)


class TestEpgAdjacent:
    def test_shared_edges(self):
        a = P("a", 0, 0, 6, 1)
        b = P("b", 2, 0, 6, 2)
        assert epg_adjacent(a, b)

    def test_single_shared_node_is_not_an_edge(self):
        a = P("a", 0, 0, 2, 1)
        b = P("b", 2, 0, 5, 1)
        assert not epg_adjacent(a, b)

    def test_perpendicular_node_crossing_is_not_an_edge(self):
        a = P("a", 0, 0, 4, 1)
        b = P("b", 2, -2, 5, 2)
        assert vpg_adjacent(a, b)
        assert not epg_adjacent(a, b)


def crossing_points(a, b):
    """The proper crossings of a and b, sorted, and whether they share a grid
    edge, from the library's pairwise predicates."""
    points = sorted(p for p in (_proper_cross(a, b), _proper_cross(b, a)) if p is not None)
    return tuple(points), _collinear_overlap(a, b)


class TestCrossingPoints:
    def test_single_crossing(self):
        a = P("a", 0, 0, 2, 2)
        b = P("b", 1, -1, 3, 1)
        pts, overlap = crossing_points(a, b)
        assert pts == (GridPoint(1, 0),)
        assert not overlap

    def test_disjoint(self):
        a = P("a", 0, 0, 1, 1)
        b = P("b", 5, 5, 6, 6)
        assert crossing_points(a, b) == ((), False)

    def test_double_crossing_sorted(self):
        a = P("a", 0, 0, 6, 6)
        b = P("b", 5, 5, -1, -1)
        pts, overlap = crossing_points(a, b)
        assert pts == (GridPoint(0, 5), GridPoint(5, 0))
        assert not overlap
        assert hand_crossings(a, b) == ([(0, 5), (5, 0)], False)

    def test_matches_point_enumeration_oracle(self):
        rng = random.Random(13)
        for _ in range(3000):
            a = rand_path(rng, "a")
            b = rand_path(rng, "b")
            pts, overlap = crossing_points(a, b)
            oracle_pts, oracle_overlap = hand_crossings(a, b)
            assert [tuple(p) for p in pts] == oracle_pts
            assert overlap == oracle_overlap

    def test_adjacency_implies_evidence(self):
        rng = random.Random(17)
        for _ in range(2000):
            a = rand_path(rng, "a")
            b = rand_path(rng, "b")
            if vpg_adjacent(a, b):
                pts, overlap = hand_crossings(a, b)
                assert pts or overlap


class TestBuildGraph:
    def test_empty(self):
        g = build_graph(Representation(Mode.VPG, ()))
        assert g.n == 0

    def test_mode_changes_adjacency(self):
        a = P("a", 0, 0, 4, 1)
        b = P("b", 2, -2, 5, 2)
        vpg = build_graph(Representation(Mode.VPG, (a, b)))
        epg = build_graph(Representation(Mode.EPG, (a, b)))
        assert vpg.has_edge("a", "b")
        assert not epg.has_edge("a", "b")

    def test_triangle(self):
        a = P("a", 0, 0, 6, 6)
        b = P("b", 1, -2, 7, 4)
        c = P("c", 2, -3, 8, 5)
        g = build_graph(Representation(Mode.VPG, (a, b, c)))
        assert set(g.edges()) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_epg_requires_general_position(self):
        a = P("a", 0, 0, 4, 1)
        b = P("b", 0, 0, 2, 3)
        with pytest.raises(GeneralPositionViolation):
            build_graph(Representation(Mode.EPG, (a, b)))

    def test_repeated_pairs_give_one_edge(self):
        # a and b cross properly both ways; c and d share a corner, so a row
        # edge and a column edge; e crosses c's and d's horizontal parts.
        rep = Representation(Mode.VPG, (
            P("a", 0, 0, 6, 6), P("b", 5, 5, -1, -1),
            P("c", 20, 0, 23, 3), P("d", 20, 0, 22, 4), P("e", 21, -1, 24, 2),
        ))
        g = build_graph(rep)
        assert g.index == [[1], [0], [3, 4], [2, 4], [2, 3]]
        assert g == pairwise_graph(rep.paths)

    def test_kept_pairs_leave_equality_alone(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 2, 2), P("b", 1, -1, 3, 1)))
        twin = Representation(Mode.VPG, rep.paths)
        build_graph(rep)
        assert rep == twin and hash(rep) == hash(twin) and repr(rep) == repr(twin)

    def test_order_independence(self):
        rng = random.Random(23)
        paths = [rand_path(rng, f"p{i}") for i in range(9)]
        g1 = build_graph(Representation(Mode.VPG, tuple(paths)))
        rng.shuffle(paths)
        g2 = build_graph(Representation(Mode.VPG, tuple(paths)))
        assert g1 == g2


class TestOneString:
    def test_single_path(self):
        assert is_one_string(Representation(Mode.VPG, (P("a", 0, 0, 3, 3),)))

    def test_one_crossing_pair(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 2, 2), P("b", 1, -1, 3, 1)))
        assert is_one_string(rep)

    def test_double_crossing_pair(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 6, 6), P("b", 5, 5, -1, -1)))
        assert not is_one_string(rep)

    def test_overlap_adjacency_rejected(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 4, 1), P("b", 2, 0, 6, -1)))
        assert not is_one_string(rep)

    def test_wrong_mode(self):
        with pytest.raises(WrongMode):
            is_one_string(Representation(Mode.EPG, ()))


class TestWeakGeneralPosition:
    def test_distinct_corners(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 1, 1), P("b", 0, 1, 1, 2)))
        assert weak_general_position(rep)

    def test_shared_corner(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 1, 1), P("b", 0, 0, 2, 3)))
        assert not weak_general_position(rep)

    def test_empty(self):
        assert weak_general_position(Representation(Mode.EPG, ()))


class TestSplitNeighbors:
    """The split oracle of criterion 6's witness checks, against hand-made
    cases and the library's EPG graph."""

    def test_h_sharing_neighbor(self):
        a = P("a", 0, 0, 6, 1)
        b = P("b", 2, 0, 6, 2)
        rep = Representation(Mode.EPG, (a, b))
        assert split_neighbors(rep, "a") == ({"b"}, set())

    def test_isolated(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 2, 2), P("b", 9, 9, 11, 11)))
        assert split_neighbors(rep, "a") == (set(), set())

    def test_one_of_each(self):
        a = P("a", 0, 0, 6, 6)
        h = P("h", 3, 0, 8, 1)
        v = P("v", 0, 3, 1, 8)
        rep = Representation(Mode.EPG, (a, h, v))
        h_nb, v_nb = split_neighbors(rep, "a")
        assert h_nb == {"h"}
        assert v_nb == {"v"}

    def test_partitions_open_neighborhood(self):
        rng = random.Random(31)
        for trial in range(60):
            paths = []
            corners = set()
            while len(paths) < 8:
                p = rand_path(rng, f"p{len(paths)}")
                if p.corner not in corners:
                    corners.add(p.corner)
                    paths.append(p)
            rep = Representation(Mode.EPG, tuple(paths))
            g = build_graph(rep)
            for p in paths:
                h_nb, v_nb = split_neighbors(rep, p.id)
                assert h_nb.isdisjoint(v_nb)
                assert h_nb | v_nb == set(g.neighbors(p.id))


class TestPointSetsIntersect:
    def test_touch_detected(self):
        a = P("a", 0, 0, 2, 2)
        b = P("b", 2, 0, 4, 2)
        assert all_points(a) & all_points(b)
        assert not vpg_adjacent(a, b)


# ------------------------------------------------------------ the graph core

CORE = settings(max_examples=50, deadline=None)


@st.composite
def graph_data(draw):
    """Distinct ids in drawn (unsorted) order, and edges over them with
    repeats and both orientations of some pairs."""
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=2), unique=True, max_size=9))
    if len(ids) < 2:
        return ids, []
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=20))
    edges += [(v, u) for u, v in edges[: draw(st.integers(0, len(edges)))]]
    return ids, edges


def reference_adjacency(ids, edges):
    """The plain form: id -> sorted tuple of neighbour ids."""
    nbrs = {v: set() for v in ids}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return {v: tuple(sorted(nbrs[v])) for v in ids}


def assert_matches_reference(g, order, ref, chosen):
    """Every public method of g agrees with the reference dict ref on the
    vertex order `order`; chosen is a list of ids, some maybe unknown."""
    assert g.vertices == tuple(order)
    assert g.n == len(order)
    assert g.adjacency == ref
    assert g == IntersectionGraph(order, ref)
    assert g.edges() == [(u, v) for u in order for v in ref[u] if u < v]
    for u in order:
        assert g.neighbors(u) == ref[u]
        assert g.degree(u) == len(ref[u])
        assert g.closed_neighborhood(u) == frozenset(ref[u]) | {u}
    with pytest.raises(UnknownId):
        g.neighbors("zz")
    for u in [*order, "zz"]:
        for v in [*order, "zz"]:
            assert g.has_edge(u, v) is (v in ref.get(u, ()))
    known = [v for v in chosen if v in ref]
    independent = not any(v in ref[u] for u in known for v in known)
    assert g.is_independent_set(chosen) is independent
    covered = set(known).union(*(ref[u] for u in known))
    dominating = len(known) == len(chosen) and covered == set(order)
    assert g.is_dominating_set(chosen) is dominating


@CORE
@given(graph_data(), st.data())
def test_core_matches_plain_reference(data, draw):
    ids, edges = data
    ref = reference_adjacency(ids, edges)
    probe = st.lists(st.sampled_from([*ids, "zz"]), max_size=6)
    public = IntersectionGraph(ids, ref)
    assert_matches_reference(public, ids, ref, draw.draw(probe))
    built = IntersectionGraph.from_edges(ids + ids[:2], edges)
    assert_matches_reference(built, sorted(ids), ref, draw.draw(probe))
    assert (public == built) is (ids == sorted(ids))


@CORE
@given(graph_data())
def test_oracles_agree_on_both_forms(data):
    ids, edges = data
    ref = reference_adjacency(ids, edges)
    built = IntersectionGraph.from_edges(ids, edges)
    public = IntersectionGraph(sorted(ids), ref)
    assert brute_mis(built) == brute_mis(public)
    assert brute_mds(built) == brute_mds(public)


@CORE
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                          st.integers(-4, 4), st.integers(-4, 4)), max_size=14))
def test_greedy_matches_the_str_form(coords):
    corners, paths = set(), []
    for cx, cy, dx, dy in coords:
        if (cx, cy) not in corners:
            corners.add((cx, cy))
            paths.append(P(f"p{len(paths)}", cx, cy, cx + dx, cy + dy))
    rep = Representation(Mode.EPG, tuple(paths))
    ref = reference_adjacency([p.id for p in paths], pairwise_edges(rep))
    plain = IntersectionGraph(sorted(ref), ref)
    alive, expected = set(plain.vertices), set()
    for p in order_paths(paths):
        if p.id in alive:
            expected.add(p.id)
            alive -= plain.closed_neighborhood(p.id)
    assert greedy_line_mds(rep) == expected


class TestPublicConstructor:
    def test_rejects_malformed_adjacency(self):
        with pytest.raises(ValueError):
            IntersectionGraph(("a", "a"), {"a": ()})
        with pytest.raises(ValueError):
            IntersectionGraph(("a", "b"), {"a": ("b",)})
        with pytest.raises(ValueError):
            IntersectionGraph(("a",), {"a": ("b",)})
        with pytest.raises(ValueError):
            IntersectionGraph(("a", "b"), {"a": ("b",), "b": ()})
        with pytest.raises(ValueError):
            IntersectionGraph(("a",), {"a": ("a",)})

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError):
            IntersectionGraph.from_edges(("a", "b"), [("a", "b"), ("b", "b")])


# ------------------------------------------- metamorphic checks at scale

def _grid_maps():
    """The 7 symmetries of the grid other than the identity, a translation,
    and the scalings x -> 2x and x -> 3x + 1 of both coordinates, as maps of
    (cx, cy, hx, vy)."""
    maps = {}
    for sx in (1, -1):
        for sy in (1, -1):
            if (sx, sy) != (1, 1):
                maps[f"flip{sx},{sy}"] = lambda cx, cy, hx, vy, sx=sx, sy=sy: (
                    sx * cx, sy * cy, sx * hx, sy * vy)
            # Swapping the axes turns each horizontal part into a vertical one.
            maps[f"swap{sx},{sy}"] = lambda cx, cy, hx, vy, sx=sx, sy=sy: (
                sx * cy, sy * cx, sx * vy, sy * hx)
    maps["translate"] = lambda cx, cy, hx, vy: (cx + 7, cy - 11, hx + 7, vy - 11)
    maps["2x"] = lambda *c: tuple(2 * v for v in c)
    maps["3x+1"] = lambda *c: tuple(3 * v + 1 for v in c)
    return maps


@pytest.mark.parametrize("family", ["one-string n3000", "mixed n3000", "epg-dc n2000"])
def test_edges_invariant_under_grid_maps(family):
    """build_graph (and is_one_string in VPG mode) at sizes the all-pairs
    references cannot reach: every grid map keeps the edge set.  Most of the
    time goes to drawing the one-string instance, which checks each new path
    against all placed ones."""
    gen = benchmark_gen()
    rng = random.Random(1)
    if family == "one-string n3000":
        mode, paths = Mode.VPG, gen.vpg_one_string(rng, 3000, 6000, 600)
    elif family == "mixed n3000":
        mode, paths = Mode.VPG, gen.vpg_mixed(rng, 3000, 3000, 120)
    else:
        mode, paths = Mode.EPG, gen.epg_double_crossing(rng, 2000, 666, 4)
    rep = Representation(mode, tuple(P(*p) for p in paths))
    edges = set(build_graph(rep).edges())
    assert len(edges) > len(paths)
    one_string = is_one_string(rep) if mode is Mode.VPG else None
    assert one_string is {"one-string n3000": True, "mixed n3000": False}.get(family)
    for name, f in _grid_maps().items():
        image = Representation(mode, tuple(P(pid, *f(*c)) for pid, *c in paths))
        assert set(build_graph(image).edges()) == edges, name
        if mode is Mode.VPG:
            assert is_one_string(image) is one_string, name
