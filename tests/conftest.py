"""Shared test oracles.

These are deliberately dumber, independent implementations: point-set
enumeration instead of interval arithmetic, and size-ascending subset scans
instead of branch and bound.  They exist so the library is checked against
code that shares none of its logic.  The paper's crosses live here too, as
the reference construction the set system is checked against.
"""
from __future__ import annotations

import importlib.util
import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from gridpaths.exact import brute_mis
from gridpaths.geometry import (
    GridPath,
    GridPoint,
    IntersectionGraph,
    Mode,
    Representation,
    classify_type,
    epg_adjacent,
    hv_contacts,
    vpg_adjacent,
)
from gridpaths.mds_vpg import Axis, Segment
from gridpaths.reduction import SimpleGraph


def benchmark_gen():
    """The benchmark's stdlib-only instance generators, loaded by file path."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "gen.py"
    spec = importlib.util.spec_from_file_location("benchmark_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def h_points(p: GridPath) -> set[tuple[int, int]]:
    lo, hi = p.h_span
    return {(x, p.corner.y) for x in range(lo, hi + 1)}


def v_points(p: GridPath) -> set[tuple[int, int]]:
    lo, hi = p.v_span
    return {(p.corner.x, y) for y in range(lo, hi + 1)}


def all_points(p: GridPath) -> set[tuple[int, int]]:
    return h_points(p) | v_points(p)


def hand_crossings(a: GridPath, b: GridPath) -> tuple[list[tuple[int, int]], bool]:
    """Crossing points and overlap marker by brute point enumeration."""

    def interior_h(p):
        lo, hi = p.h_span
        return {(x, p.corner.y) for x in range(lo + 1, hi)}

    def interior_v(p):
        lo, hi = p.v_span
        return {(p.corner.x, y) for y in range(lo + 1, hi)}

    points = (interior_h(a) & interior_v(b)) | (interior_h(b) & interior_v(a))
    overlap = (
        len(h_points(a) & h_points(b)) >= 2 or len(v_points(a) & v_points(b)) >= 2
    )
    return sorted(points), overlap


def hand_vpg_adjacent(a: GridPath, b: GridPath) -> bool:
    points, overlap = hand_crossings(a, b)
    return bool(points) or overlap


def split_neighbors(rep: Representation, path_id: str) -> tuple[set[str], set[str]]:
    """The paths sharing a grid edge (two or more grid points) with the
    path's horizontal part, and those sharing one with its vertical part."""
    p = next(q for q in rep.paths if q.id == path_id)
    others = [q for q in rep.paths if q.id != path_id]
    return (
        {q.id for q in others if len(h_points(p) & h_points(q)) >= 2},
        {q.id for q in others if len(v_points(p) & v_points(q)) >= 2},
    )


# The paper's crosses: each path's two parts as supporting segments in
# quarter units, the corner end a quarter past the corner and the tip end
# three quarters short of the tip.  The set system no longer builds them;
# they are the reference of acceptance criterion 2 and of the cross-level
# sets below.

SCALE = 4  # quarter units per grid unit
_CORNER_OVERHANG = 1  # one quarter past the corner
_TIP_PULLBACK = 3  # three quarters short of the tip


@dataclass(frozen=True)
class Cross:
    owner: str
    h_support: Segment
    v_support: Segment
    degenerate: bool = False


def _support(axis: Axis, anchor: int, corner_c: int, tip_c: int, owner: str) -> tuple[Segment, bool]:
    """One supporting segment along an arm running corner_c -> tip_c.

    Arms shorter than one grid unit would invert after the tip pullback;
    those collapse to a point at the corner-side end and are flagged.
    """
    direction = 1 if tip_c >= corner_c else -1
    corner_end = SCALE * corner_c - direction * _CORNER_OVERHANG
    tip_end = SCALE * tip_c - direction * _TIP_PULLBACK
    if (tip_end - corner_end) * direction < 0:
        return Segment(axis, anchor, corner_end, corner_end, owner), True
    lo, hi = min(corner_end, tip_end), max(corner_end, tip_end)
    return Segment(axis, anchor, lo, hi, owner), False


def build_cross(path: GridPath) -> Cross:
    """The cross of a path: offset copies of its two parts in quarter units."""
    h_seg, h_bad = _support(
        Axis.H, SCALE * path.corner.y, path.corner.x, path.h_tip.x, path.id
    )
    v_seg, v_bad = _support(
        Axis.V, SCALE * path.corner.x, path.corner.y, path.v_tip.y, path.id
    )
    return Cross(path.id, h_seg, v_seg, degenerate=h_bad or v_bad)


def segments_intersect(a: Segment, b: Segment) -> bool:
    """Closed point-set intersection of two axis-parallel segments."""
    if a.axis is b.axis:
        return a.anchor == b.anchor and max(a.lo, b.lo) <= min(a.hi, b.hi)
    h, v = (a, b) if a.axis is Axis.H else (b, a)
    return h.lo <= v.anchor <= h.hi and v.lo <= h.anchor <= v.hi


def crosses_intersect(a: Cross, b: Cross) -> bool:
    """True iff any supporting segment of a meets any supporting segment of b."""
    for s in (a.h_support, a.v_support):
        for t in (b.h_support, b.v_support):
            if segments_intersect(s, t):
                return True
    return False


def exhaustive_min_dominating(g: IntersectionGraph) -> set[str]:
    """Smallest dominating set by size-ascending subset enumeration."""
    verts = list(g.vertices)
    closed = {v: g.closed_neighborhood(v) for v in verts}
    everything = set(verts)
    for k in range(len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if covered == everything:
                return set(combo)
    return set(verts)


def exhaustive_max_independent(g: IntersectionGraph) -> set[str]:
    """Largest independent set by size-descending subset enumeration."""
    verts = list(g.vertices)
    for k in range(len(verts), -1, -1):
        for combo in itertools.combinations(verts, k):
            if g.is_independent_set(combo):
                return set(combo)
    return set()


def exhaustive_min_vertex_cover(g: SimpleGraph) -> set[int]:
    """Smallest vertex cover by size-ascending subset enumeration."""
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in g.edges):
                return chosen
    return set(range(g.n))


def exhaustive_min_hitting_set(universe_size: int, sets) -> set[int] | None:
    """Smallest set of elements meeting every set, by size-ascending subset
    enumeration; None when some set is empty."""
    for k in range(universe_size + 1):
        for combo in itertools.combinations(range(universe_size), k):
            chosen = set(combo)
            if all(chosen & set(members) for members in sets):
                return chosen
    return None


def find_disjoint_optimum(g: IntersectionGraph, taboo: set[str], k: int) -> set[str] | None:
    """A dominating set of size k avoiding the taboo vertices, if one exists."""
    candidates = [v for v in g.vertices if v not in taboo]
    closed = {v: g.closed_neighborhood(v) for v in candidates}
    everything = set(g.vertices)
    for combo in itertools.combinations(candidates, k):
        covered = set()
        for v in combo:
            covered |= closed[v]
        if covered == everything:
            return set(combo)
    return None


# All-pairs references for the swept pair generators.  They call the
# library's pairwise predicates (checked against the point enumerations
# above) or those enumerations, but visit every pair, so a pair the sweep
# misses shows.


def pairwise_edges(rep: Representation) -> list[tuple[str, str]]:
    adjacent = vpg_adjacent if rep.mode is Mode.VPG else epg_adjacent
    out = set()
    for p, q in itertools.combinations(rep.paths, 2):
        if adjacent(p, q):
            out.add((min(p.id, q.id), max(p.id, q.id)))
    return sorted(out)


def breaks_one_string(p: GridPath, q: GridPath) -> bool:
    """True iff the two paths are adjacent but do not cross exactly once."""
    if not vpg_adjacent(p, q):
        return False
    pts, overlap = hand_crossings(p, q)
    return overlap or len(pts) != 1


def pairwise_one_string(rep: Representation) -> bool:
    return not any(breaks_one_string(p, q) for p, q in itertools.combinations(rep.paths, 2))


def pairwise_sets(rep: Representation) -> list[list[int]]:
    """Per cross, every universe element meeting one of its two supports."""
    crosses = [build_cross(p) for p in rep.paths]
    universe = [s for c in crosses for s in (c.h_support, c.v_support)]
    return [
        sorted({2 * i, 2 * i + 1} | {
            j for j, e in enumerate(universe)
            if segments_intersect(e, c.h_support) or segments_intersect(e, c.v_support)
        })
        for i, c in enumerate(crosses)
    ]


def contact_sets(rep: Representation) -> list[list[int]]:
    """Per cross, its members from all four support tests on every
    `hv_contacts` pair, proper crossings and touching contacts alike: the
    cross-level sets, which the set system's crossing-only sets equal
    wherever no touching contact makes two crosses meet."""
    universe = [s for c in map(build_cross, rep.paths) for s in (c.h_support, c.v_support)]
    members = [{2 * i, 2 * i + 1} for i in range(len(rep.paths))]
    for i, k in {(i, k) if i < k else (k, i) for i, k in hv_contacts(rep.paths)}:
        for a in (2 * i, 2 * i + 1):
            for b in (2 * k, 2 * k + 1):
                if segments_intersect(universe[a], universe[b]):
                    members[i].add(b)
                    members[k].add(a)
    return [sorted(m) for m in members]


def touching_crosses_meet(rep: Representation) -> bool:
    """True iff the crosses of two paths meet although the paths are not
    adjacent by point enumeration: a touching contact through a zero-length
    arm or a shared corner."""
    return any(
        crosses_intersect(build_cross(a), build_cross(b)) and not hand_vpg_adjacent(a, b)
        for a, b in itertools.combinations(rep.paths, 2)
    )


def pairwise_shared_edges(rep: Representation, vertical: bool) -> list[tuple[str, str]]:
    """Id pairs whose vertical parts (or, with vertical false, horizontal
    parts) share a unit grid edge, i.e. at least two grid points."""
    points = v_points if vertical else h_points
    return sorted(
        (min(p.id, q.id), max(p.id, q.id))
        for p, q in itertools.combinations(rep.paths, 2)
        if len(points(p) & points(q)) >= 2
    )


def pairwise_non_containment(rep: Representation) -> bool:
    for p, q in itertools.combinations(rep.paths, 2):
        if p.corner.x != q.corner.x:
            continue
        (p_lo, p_hi), (q_lo, q_hi) = p.v_span, q.v_span
        if min(p_hi, q_hi) - max(p_lo, q_lo) < 1:
            continue
        if (q_lo <= p_lo and p_hi <= q_hi) or (p_lo <= q_lo and q_hi <= p_hi):
            return False
    return True


def pairwise_graph(paths) -> IntersectionGraph:
    """VPG intersection graph by testing every pair, in `build_graph`'s
    canonical form (sorted vertices, sorted neighbour tuples)."""
    adj = {p.id: [] for p in paths}
    for u, v in pairwise_edges(Representation(Mode.VPG, tuple(paths))):
        adj[u].append(v)
        adj[v].append(u)
    verts = tuple(sorted(adj))
    return IntersectionGraph(verts, {v: tuple(sorted(adj[v])) for v in verts})


_REFLECT_SIGNS = {"LL": (1, 1), "UL": (1, -1), "LR": (-1, 1), "UR": (-1, -1)}


def reference_mis_single_type(paths, strips=None) -> set[str]:
    """The median-split recursion with `Fraction` comparisons against the
    split line and every line-meeting strip solved by `brute_mis` on an
    all-pairs graph, whatever the two sides found.  With a list for strips,
    (len(middle), len(side)) is appended for every nonempty strip."""
    paths = list(paths)
    if not paths:
        return set()
    kinds = {classify_type(p) for p in paths}
    if len(kinds) > 1:
        raise ValueError("mixed bend types")
    sx, sy = _REFLECT_SIGNS[kinds.pop().name]
    frame = [
        GridPath(
            p.id,
            GridPoint(sx * p.corner.x, sy * p.corner.y),
            GridPoint(sx * p.h_tip.x, sy * p.h_tip.y),
            GridPoint(sx * p.v_tip.x, sy * p.v_tip.y),
        )
        for p in paths
    ]

    def solve(group):
        if len(group) <= 2:
            if len(group) == 2 and vpg_adjacent(*group):
                return {min(p.id for p in group)}
            return {p.id for p in group}
        xs = sorted(p.corner.x for p in group)
        k = len(xs) // 2
        xmed = Fraction(xs[k - 1] + xs[k], 2)
        left = [p for p in group if p.h_span[1] < xmed]
        right = [p for p in group if p.h_span[0] > xmed]
        middle = [p for p in group if p.h_span[1] >= xmed >= p.h_span[0]]
        side = solve(left) | solve(right)
        central = brute_mis(pairwise_graph(middle)) if middle else set()
        if strips is not None and middle:
            strips.append((len(middle), len(side)))
        return side if len(side) >= len(central) else central

    return solve(frame)
