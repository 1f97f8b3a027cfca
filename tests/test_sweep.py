"""The sweeps miss nothing: the horizontal-vertical contacts and the
shared-edge pairs, and graph building, the one-string check, set-system
membership and the non-containment check built on them, agree with
all-pairs scans on drawn instances crowded with contacts, and the
dominating-set pipeline built on them is total.  The sets of the set
system come from proper crossings only, so they match the cross-level
reference sets wherever no touching contact makes two crosses meet."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpaths.generators import gen_degree3_graph
from gridpaths.geometry import (
    GridPath,
    Mode,
    Representation,
    _proper_cross,
    build_graph,
    hv_contacts,
    is_one_string,
    shared_edge_pairs,
)
from gridpaths.mds_epg import check_non_containment
from gridpaths.mds_vpg import Axis, NetParams, approx_mds_one_string, build_set_system
from gridpaths.reduction import reduce_vc_to_mds

from conftest import (
    all_points,
    breaks_one_string,
    build_cross,
    contact_sets,
    crosses_intersect,
    h_points,
    hand_vpg_adjacent,
    pairwise_edges,
    pairwise_non_containment,
    pairwise_one_string,
    pairwise_sets,
    pairwise_shared_edges,
    touching_crosses_meet,
    v_points,
)

PROPERTY = settings(max_examples=200, deadline=None)


def P(pid, cx, cy, hx, vy):
    return GridPath.make(pid, cx, cy, hx, vy)


@st.composite
def path_lists(draw, max_size=14):
    """Paths in a small window, so boxes often touch at one coordinate.
    Arms may have zero length (degenerate crosses); "row" and "column" put
    every corner on two rows or two columns."""
    crowd = draw(st.sampled_from(["free", "row", "column"]))
    near = st.integers(0, 1)
    coord = st.integers(-5, 5)
    arm = st.integers(-4, 4)
    paths = []
    for i in range(draw(st.integers(0, max_size))):
        cx = draw(near if crowd == "column" else coord)
        cy = draw(near if crowd == "row" else coord)
        paths.append(P(f"p{i}", cx, cy, cx + draw(arm), cy + draw(arm)))
    return paths


@st.composite
def contact_lists(draw):
    """`path_lists` plus paths pinned to earlier ones: a corner or a tip on
    an earlier path's corner, tip or any other of its grid points, so
    shared corners and tips on other paths are common."""
    paths = draw(path_lists())
    arm = st.integers(-4, 4)
    for k in range(draw(st.integers(0, 6)) if paths else 0):
        base = draw(st.sampled_from(paths))
        x, y = draw(st.sampled_from(
            [base.corner, base.h_tip, base.v_tip, *sorted(all_points(base))]
        ))
        pinned = draw(st.sampled_from(["corner", "h_tip", "v_tip"]))
        if pinned == "corner":
            paths.append(P(f"q{k}", x, y, x + draw(arm), y + draw(arm)))
        elif pinned == "h_tip":
            paths.append(P(f"q{k}", x - draw(arm), y, x, y + draw(arm)))
        else:
            paths.append(P(f"q{k}", x, y - draw(arm), x + draw(arm), y))
    return paths


def distinct_corners(paths):
    seen, out = set(), []
    for p in paths:
        if p.corner not in seen:
            seen.add(p.corner)
            out.append(p)
    return out


def one_string_subset(paths):
    """Greedily keep the paths that leave the kept set one-string."""
    kept = []
    for p in paths:
        if not any(breaks_one_string(q, p) for q in kept):
            kept.append(p)
    return kept


@PROPERTY
@given(path_lists())
def test_vpg_graph_matches_pairwise(paths):
    rep = Representation(Mode.VPG, tuple(paths))
    assert build_graph(rep).edges() == pairwise_edges(rep)


@PROPERTY
@given(path_lists())
def test_epg_graph_matches_pairwise(paths):
    rep = Representation(Mode.EPG, tuple(distinct_corners(paths)))
    assert build_graph(rep).edges() == pairwise_edges(rep)


@PROPERTY
@given(path_lists(), st.booleans())
def test_shared_edge_pairs_match_pairwise(paths, vertical):
    rep = Representation(Mode.EPG, tuple(paths))
    ids = [p.id for p in rep.paths]
    swept = sorted(
        (min(ids[i], ids[j]), max(ids[i], ids[j]))
        for i, j in shared_edge_pairs(rep.paths, vertical)
    )
    assert swept == pairwise_shared_edges(rep, vertical)


@PROPERTY
@given(path_lists())
def test_hv_contacts_match_pairwise(paths):
    """Each (i, j) once, exactly when i's horizontal part and j's vertical
    part share a grid point."""
    assert sorted(hv_contacts(paths)) == [
        (i, j)
        for i, p in enumerate(paths)
        for j, q in enumerate(paths)
        if i != j and h_points(p) & v_points(q)
    ]


@PROPERTY
@given(path_lists())
def test_meeting_crosses_are_contacts(paths):
    """Two crosses meet only where the paths' parts meet across the axes or
    share a grid edge, so those pairs are all the set system must test."""
    found = {frozenset(pair) for pair in hv_contacts(paths)}
    for vertical in (False, True):
        found.update(frozenset(pair) for pair in shared_edge_pairs(paths, vertical))
    crosses = [build_cross(p) for p in paths]
    for i, j in itertools.combinations(range(len(paths)), 2):
        if crosses_intersect(crosses[i], crosses[j]):
            assert frozenset((i, j)) in found


@PROPERTY
@given(path_lists())
def test_one_string_matches_pairwise(paths):
    rep = Representation(Mode.VPG, tuple(paths))
    assert is_one_string(rep) == pairwise_one_string(rep)


def closed_neighbourhood_sets(rep):
    """Per path, the sorted ids of its closed neighbourhood, by point
    enumeration."""
    paths = rep.paths
    return [sorted(q.id for q in paths if q is p or hand_vpg_adjacent(p, q)) for p in paths]


def owner_sets(rep, sets):
    """Per set, the sorted ids of the paths owning its elements."""
    return [sorted({rep.paths[e // 2].id for e in members}) for members in sets]


def dominates(rep, seed=0):
    return build_graph(rep).is_dominating_set(approx_mds_one_string(rep, NetParams(rng_seed=seed)))


@PROPERTY
@given(path_lists(max_size=18))
def test_set_system_matches_pairwise(paths):
    """The cross-level sets where no touching contact makes two crosses
    meet; elsewhere the pipeline's answer dominates."""
    rep = Representation(Mode.VPG, tuple(one_string_subset(paths)))
    if touching_crosses_meet(rep):
        assert dominates(rep)
    else:
        assert build_set_system(rep).sets == pairwise_sets(rep)


@PROPERTY
@given(contact_lists())
def test_sets_from_crossings_match_contact_tests(paths):
    """Filling proper crossings untested gives the sets that testing all
    four supports of every contact pair gives, wherever no touching contact
    makes two crosses meet.  On every one-string input each set's owners
    are exactly its path's closed neighbourhood, so hitting sets and
    dominating sets pair, and the pipeline's answer dominates."""
    rep = Representation(Mode.VPG, tuple(one_string_subset(paths)))
    system = build_set_system(rep)
    assert owner_sets(rep, system.sets) == closed_neighbourhood_sets(rep)
    if touching_crosses_meet(rep):
        assert dominates(rep)
    else:
        assert system.sets == contact_sets(rep)


def shrunk_parts_meet(h_span, row, v_span, column):
    """Whether a horizontal part on row and a vertical part on column meet
    once each is shrunk by one unit at both ends, kept closed and dropped
    when empty."""
    def shrunk(span):
        lo, hi = span[0] + 1, span[1] - 1
        return (lo, hi) if lo <= hi else None

    h, v = shrunk(h_span), shrunk(v_span)
    return h is not None and v is not None and h[0] <= column <= h[1] and v[0] <= row <= v[1]


@PROPERTY
@given(path_lists())
def test_shrunk_parts_meet_exactly_at_proper_crossings(paths):
    """h's horizontal part and v's vertical part, each shrunk by one unit at
    both ends, kept closed and dropped when empty, meet exactly when h's
    horizontal part properly crosses v's vertical part: the crossing-only
    sets are still axis-parallel segment intersections."""
    for h, v in itertools.product(paths, repeat=2):
        meet = shrunk_parts_meet(h.h_span, h.corner.y, v.v_span, v.corner.x)
        assert meet == (_proper_cross(h, v) is not None)


def segment_points(segment):
    """The grid points of a universe element."""
    if segment.axis is Axis.H:
        return {(x, segment.anchor) for x in range(segment.lo, segment.hi + 1)}
    return {(segment.anchor, y) for y in range(segment.lo, segment.hi + 1)}


@PROPERTY
@given(path_lists(max_size=18))
def test_sets_are_shrunk_part_meetings(paths):
    """Elements 2k and 2k + 1 are path k's horizontal and vertical parts, and
    an element e that is not one of set i's own lies in set i exactly when
    e, shrunk by one unit at both ends, meets i's part on the other axis,
    shrunk the same way: each axis's sets are segment intersections."""
    rep = Representation(Mode.VPG, tuple(one_string_subset(paths)))
    system = build_set_system(rep)
    assert [segment_points(s) for s in system.universe] == [
        points(p) for p in rep.paths for points in (h_points, v_points)
    ]
    for i, members in enumerate(system.sets):
        for e, part in enumerate(system.universe):
            if e // 2 == i:
                continue
            other = system.universe[2 * i + 1 - (e & 1)]
            h, v = (part, other) if part.axis is Axis.H else (other, part)
            meet = shrunk_parts_meet((h.lo, h.hi), h.anchor, (v.lo, v.hi), v.anchor)
            assert (e in members) == meet


@PROPERTY
@given(path_lists(max_size=18))
def test_element_sets_transpose_sets(paths):
    system = build_set_system(Representation(Mode.VPG, tuple(one_string_subset(paths))))
    assert system.element_sets == [
        [idx for idx, members in enumerate(system.sets) if e in members]
        for e in range(len(system.universe))
    ]


@PROPERTY
@given(path_lists(), st.integers(0, 3))
def test_mds_pipeline_is_total(paths, seed):
    """The pipeline returns a dominating set on every one-string input,
    touching contacts, zero-length arms and shared corners included; it
    never refuses and never fails internally (a RuntimeError would fail
    this test)."""
    assert dominates(Representation(Mode.VPG, tuple(one_string_subset(paths))), seed)


@PROPERTY
@given(path_lists())
def test_non_containment_matches_pairwise(paths):
    rep = Representation(Mode.EPG, tuple(paths))
    assert check_non_containment(rep) == pairwise_non_containment(rep)


@PROPERTY
@given(st.integers(1, 8), st.data())
def test_gadget_graph_matches_pairwise(n, data):
    m = data.draw(st.integers(0, min(3 * n // 2, n * (n - 1) // 2)))
    rep = reduce_vc_to_mds(gen_degree3_graph(n, m, data.draw(st.integers(0, 99)))).rep
    assert build_graph(rep).edges() == pairwise_edges(rep)


# Pairs whose bounding boxes share exactly one coordinate line.
TOUCHING = [
    # Vertical parts on x = 4 overlap in two units: adjacent in both modes.
    (P("a", 4, 0, 0, 4), P("b", 4, 2, 8, 6), True, True),
    # Horizontal parts on y = 0 meet in the point x = 3 only.
    (P("a", 0, 0, 3, 3), P("b", 3, 0, 6, -3), False, False),
    # Tips meeting: b's vertical tip on a's horizontal tip.
    (P("a", 0, 0, 3, 3), P("b", 3, 5, 5, 0), False, False),
    # A T-junction: b's horizontal tip ends on a's vertical part.
    (P("a", 0, 0, 3, 4), P("b", -2, 2, 0, 5), False, False),
    # A single-point path on the other's corner.
    (P("a", 0, 0, 0, 0), P("b", 0, 0, 2, 0), False, False),
]


@pytest.mark.parametrize("a, b, vpg, epg", TOUCHING)
def test_touching_boxes(a, b, vpg, epg):
    for mode, expected in ((Mode.VPG, vpg), (Mode.EPG, epg)):
        if mode is Mode.EPG and a.corner == b.corner:
            continue  # EPG needs distinct corners
        rep = Representation(mode, (a, b))
        graph = build_graph(rep)
        assert graph.has_edge("a", "b") is expected
        assert graph.edges() == pairwise_edges(rep)


# EPG paths on a shared row or column whose parts meet in a unit, in a point,
# or in nested spans, with the expected edges and non-containment verdict.
SHARED_LINE = [
    # Horizontal parts on y = 0 overlap in exactly one unit, [2, 3]: an edge.
    ((P("a", 0, 0, 3, 2), P("b", 2, 0, 5, -2)), [("a", "b")], True),
    # Horizontal parts on y = 0 meet in the point x = 3 only: no edge.
    ((P("a", 0, 0, 3, 2), P("b", 3, 0, 6, -2)), [], True),
    # b's vertical part is the single point (0, 2), inside a's column span
    # [0, 4]: no shared edge, so no edge and nothing to contain.
    ((P("a", 0, 0, 3, 4), P("b", 0, 2, -3, 2)), [], True),
    # Identical column spans [0, 4] from corners at opposite ends.
    ((P("a", 0, 0, 2, 4), P("b", 0, 4, -2, 0)), [("a", "b")], False),
    # Nested column spans: [2, 4] inside [0, 6].
    ((P("a", 0, 0, 2, 6), P("b", 0, 2, -2, 4)), [("a", "b")], False),
    # Column spans [0, 2], [3, 4] and [1, 5]: the short first span meets the
    # long last one past a span that starts beyond it.
    ((P("a", 0, 0, 1, 2), P("b", 0, 3, 1, 4), P("c", 0, 5, 1, 1)),
     [("a", "c"), ("b", "c")], False),
]


@pytest.mark.parametrize("paths, edges, non_containment", SHARED_LINE)
def test_shared_line_contacts(paths, edges, non_containment):
    rep = Representation(Mode.EPG, paths)
    assert build_graph(rep).edges() == edges
    assert edges == pairwise_edges(rep)
    assert check_non_containment(rep) is non_containment
    assert non_containment is pairwise_non_containment(rep)


# Closed contacts of a horizontal part (first index) with a vertical part
# (second index); a zero-length part is its corner point.
CONTACTS = [
    # A T-contact: b's horizontal part ends on a's vertical part.
    ((P("a", 0, 0, 3, 4), P("b", -2, 2, 0, 5)), [(1, 0)]),
    # b's corner on a's horizontal part; b's vertical part hangs down from it.
    ((P("a", 0, 0, 4, 4), P("b", 2, 0, 6, -3)), [(0, 1)]),
    # b's zero-length horizontal part is its corner, on a's vertical part.
    ((P("a", 0, 0, 4, 4), P("b", 0, 2, 0, 5)), [(1, 0)]),
    # A single-point path on a's horizontal part, and one on a's corner.
    ((P("a", 0, 0, 4, 4), P("b", 2, 0, 2, 0)), [(0, 1)]),
    ((P("a", 0, 0, 4, 4), P("b", 0, 0, 0, 0)), [(0, 1), (1, 0)]),
    # Tip to tip: a's horizontal tip is b's vertical tip.
    ((P("a", 0, 0, 3, 3), P("b", 3, 5, 5, 0)), [(0, 1)]),
    # Horizontal tips meeting on a row are no horizontal-vertical contact.
    ((P("a", 0, 0, 3, 3), P("b", 6, 0, 3, 2)), []),
    # A shared corner: each horizontal part meets the other's vertical part.
    ((P("a", 0, 0, 3, 3), P("b", 0, 0, -3, -3)), [(0, 1), (1, 0)]),
    # A proper crossing of a bare horizontal and a bare vertical path, and a
    # path whose horizontal part ends left of the others' columns.
    ((P("a", 0, 2, 4, 2), P("b", 2, 0, 2, 4), P("c", -3, 9, -2, 9)), [(0, 1)]),
]


@pytest.mark.parametrize("paths, contacts", CONTACTS)
def test_hv_contact_cases(paths, contacts):
    assert sorted(hv_contacts(paths)) == contacts
