"""Exact integer geometry for single-bend orthogonal grid paths.

A path consists of a horizontal part (corner to h_tip) and a vertical part
(corner to v_tip), either of which may have zero length.  Two adjacency
notions are supported: VPG (paths cross at a grid node) and EPG (paths share
at least one unit grid edge).  All arithmetic is integer; no floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import GeneralPositionViolation, UnknownId, WrongMode


class GridPoint(NamedTuple):
    x: int
    y: int


class PathType(Enum):
    """Bend shape, named by the corner's position relative to the arms."""

    LL = "LL"  # arms right and up
    UL = "UL"  # arms right and down
    UR = "UR"  # arms left and down
    LR = "LR"  # arms left and up


class Mode(Enum):
    VPG = "vpg"
    EPG = "epg"


@dataclass(frozen=True)
class GridPath:
    """A single-bend orthogonal path given by its corner and two tips.

    Zero-length parts are allowed and represent |, - or single-point paths.
    """

    id: str
    corner: GridPoint
    h_tip: GridPoint
    v_tip: GridPoint

    def __post_init__(self):
        if self.h_tip.y != self.corner.y:
            raise ValueError(f"path {self.id}: h_tip must share the corner's row")
        if self.v_tip.x != self.corner.x:
            raise ValueError(f"path {self.id}: v_tip must share the corner's column")

    @classmethod
    def make(cls, id: str, cx: int, cy: int, hx: int, vy: int) -> "GridPath":
        """Build from corner (cx, cy), horizontal tip x and vertical tip y."""
        return cls(id, GridPoint(cx, cy), GridPoint(hx, cy), GridPoint(cx, vy))

    @property
    def h_span(self) -> tuple[int, int]:
        """Closed x-interval covered by the horizontal part."""
        return _minmax(self.corner.x, self.h_tip.x)

    @property
    def v_span(self) -> tuple[int, int]:
        """Closed y-interval covered by the vertical part."""
        return _minmax(self.corner.y, self.v_tip.y)


@dataclass(frozen=True)
class Representation:
    """A collection of grid paths plus the adjacency mode.

    vline / hline optionally record the reference lines of restricted EPG
    families (a vertical line x = vline and a horizontal line y = hline).
    """

    mode: Mode
    paths: tuple[GridPath, ...]
    vline: int | None = None
    hline: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        ids = [p.id for p in self.paths]
        if len(set(ids)) != len(ids):
            raise ValueError("path ids must be distinct")

    def path_by_id(self, path_id: str) -> GridPath:
        for p in self.paths:
            if p.id == path_id:
                return p
        raise UnknownId(path_id)


@dataclass(frozen=True)
class IntersectionGraph:
    """Derived abstract graph: symmetric, irreflexive, vertices = path ids."""

    vertices: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self.adjacency[v]
        except KeyError:
            raise UnknownId(v) from None

    def closed_neighborhood(self, v: str) -> frozenset[str]:
        return frozenset(self.neighbors(v)) | {v}

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adjacency.get(u, ())

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for u in self.vertices:
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return out

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def is_independent_set(self, ids: Iterable[str]) -> bool:
        chosen = sorted(set(ids))
        for i, u in enumerate(chosen):
            for v in chosen[i + 1 :]:
                if self.has_edge(u, v):
                    return False
        return True

    def is_dominating_set(self, ids: Iterable[str]) -> bool:
        chosen = set(ids)
        if not chosen <= set(self.vertices):
            return False
        covered = set()
        for v in chosen:
            covered |= self.closed_neighborhood(v)
        return covered == set(self.vertices)

    @classmethod
    def from_edges(
        cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]
    ) -> "IntersectionGraph":
        verts = tuple(sorted(set(vertices)))
        adj: dict[str, set[str]] = {v: set() for v in verts}
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            adj[u].add(v)
            adj[v].add(u)
        return cls(verts, {v: tuple(sorted(adj[v])) for v in verts})


class Crossings(NamedTuple):
    """Proper crossing points plus a marker for adjacency-forming overlaps."""

    points: tuple[GridPoint, ...]
    overlap: bool


def _minmax(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def classify_type(path: GridPath) -> PathType:
    """Classify the bend shape from the arm directions.

    A zero-length arm counts as pointing in the LL direction (rightward for
    the horizontal arm, upward for the vertical one), so a fully degenerate
    path classifies as LL.
    """
    right = _sign(path.h_tip.x - path.corner.x) >= 0
    up = _sign(path.v_tip.y - path.corner.y) >= 0
    if right:
        return PathType.LL if up else PathType.UL
    return PathType.LR if up else PathType.UR


def _proper_cross(h: GridPath, v: GridPath) -> GridPoint | None:
    """Crossing of h's horizontal part with v's vertical part, interior to both."""
    hx_lo, hx_hi = h.h_span
    vy_lo, vy_hi = v.v_span
    vx = v.corner.x
    hy = h.corner.y
    if hx_lo < vx < hx_hi and vy_lo < hy < vy_hi:
        return GridPoint(vx, hy)
    return None


def _overlap_len(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Length of the closed interval intersection (negative if disjoint)."""
    return min(a[1], b[1]) - max(a[0], b[0])


def _collinear_overlap(a: GridPath, b: GridPath) -> bool:
    """True iff same-axis parts of a and b overlap in at least one grid edge."""
    if a.corner.y == b.corner.y and _overlap_len(a.h_span, b.h_span) >= 1:
        return True
    if a.corner.x == b.corner.x and _overlap_len(a.v_span, b.v_span) >= 1:
        return True
    return False


def vpg_adjacent(a: GridPath, b: GridPath) -> bool:
    """VPG adjacency: a proper transversal crossing, or a collinear overlap
    spanning at least two grid nodes.  Touching contacts (shared endpoints,
    corner on segment, T-junctions) do not count."""
    if _proper_cross(a, b) is not None or _proper_cross(b, a) is not None:
        return True
    return _collinear_overlap(a, b)


def epg_adjacent(a: GridPath, b: GridPath) -> bool:
    """EPG adjacency: the paths share at least one unit grid edge."""
    return _collinear_overlap(a, b)


def crossing_points(a: GridPath, b: GridPath) -> Crossings:
    """All proper transversal crossing points of a and b, sorted
    lexicographically; adjacency-forming collinear overlaps are reported via
    the overlap marker rather than as enumerated points."""
    pts = []
    p = _proper_cross(a, b)
    if p is not None:
        pts.append(p)
    q = _proper_cross(b, a)
    if q is not None:
        pts.append(q)
    return Crossings(tuple(sorted(pts)), _collinear_overlap(a, b))


def point_sets_intersect(a: GridPath, b: GridPath) -> bool:
    """True iff the closed point sets of the two paths share any point,
    including bare touching contacts that do not make the paths adjacent."""
    for h, v in ((a, b), (b, a)):
        hx_lo, hx_hi = h.h_span
        vy_lo, vy_hi = v.v_span
        if hx_lo <= v.corner.x <= hx_hi and vy_lo <= h.corner.y <= vy_hi:
            return True
    if a.corner.y == b.corner.y and _overlap_len(a.h_span, b.h_span) >= 0:
        return True
    if a.corner.x == b.corner.x and _overlap_len(a.v_span, b.v_span) >= 0:
        return True
    return False


def weak_general_position(rep: Representation) -> bool:
    """True iff all corner points are pairwise distinct."""
    corners = [p.corner for p in rep.paths]
    return len(set(corners)) == len(corners)


def _meeting_spans(spans: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Index pairs of closed intervals that share at least one point, by a
    sweep over the lower ends: each interval is compared only with those
    starting no later than its upper end."""
    order = sorted(range(len(spans)), key=spans.__getitem__)
    for a, i in enumerate(order):
        hi = spans[i][1]
        for b in range(a + 1, len(order)):
            j = order[b]
            if spans[j][0] > hi:
                break
            yield i, j


def candidate_pairs(boxes: list[tuple[int, int, int, int]]) -> Iterator[tuple[int, int]]:
    """Unordered index pairs whose closed boxes (xlo, xhi, ylo, yhi) meet.

    A sort-by-xlo sweep: only pairs whose x-extents meet are examined, so the
    cost follows the number of box contacts rather than all n(n-1)/2 pairs.
    """
    for i, j in _meeting_spans([(b[0], b[1]) for b in boxes]):
        if boxes[i][2] <= boxes[j][3] and boxes[j][2] <= boxes[i][3]:
            yield i, j


def shared_edge_pairs(paths: Sequence[GridPath], vertical: bool) -> Iterator[tuple[int, int]]:
    """Unordered index pairs whose vertical parts (or, with vertical false,
    horizontal parts) share at least one unit grid edge.

    The parts of positive length are grouped by corner column (or row) as
    (lo, hi, index) and each group is sorted once.  A part is paired with the
    later parts of its group while their lower end lo2 stays below its upper
    end hi; both parts have positive length, so each such pair overlaps by
    min(hi, hi2) - lo2 >= 1, and the first lo2 >= hi ends the walk.  A
    zero-length part shares no edge and is never grouped.
    """
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for i, p in enumerate(paths):
        if vertical:
            line, a, b = p.corner.x, p.corner.y, p.v_tip.y
        else:
            line, a, b = p.corner.y, p.corner.x, p.h_tip.x
        if a != b:
            groups.setdefault(line, []).append((a, b, i) if a < b else (b, a, i))
    for group in groups.values():
        group.sort()
        for k, (_, hi, i) in enumerate(group):
            for m in range(k + 1, len(group)):
                lo2, _, j = group[m]
                if lo2 >= hi:
                    break
                yield i, j


def _adjacent_vpg_pairs(paths: Sequence[GridPath]) -> Iterator[tuple[GridPath, GridPath]]:
    """VPG-adjacent pairs.  Both a proper crossing and a collinear overlap
    lie in the two paths' bounding boxes, so box contacts are the candidates."""
    for i, j in candidate_pairs([p.h_span + p.v_span for p in paths]):
        if vpg_adjacent(paths[i], paths[j]):
            yield paths[i], paths[j]


def build_graph(rep: Representation) -> IntersectionGraph:
    """Derive the intersection graph without scanning all pairs.

    VPG mode tests the pairs whose bounding boxes meet (`candidate_pairs`).
    EPG adjacency is a shared grid edge, which lies on a common corner row or
    column, so EPG edges come straight out of one sort per corner row and
    column (`shared_edge_pairs`), at cost O(n log n + edges) with no pairwise
    re-test; a box sweep would be no better than a pairwise scan there, since
    the paths of the line-crossing families all contain a common point.  In
    EPG mode weak general position is checked, not silently assumed.
    """
    paths = rep.paths
    if rep.mode is Mode.VPG:
        pairs = _adjacent_vpg_pairs(paths)
    else:
        if not weak_general_position(rep):
            raise GeneralPositionViolation("two EPG paths share a corner")
        pairs = (
            (paths[i], paths[j])
            for vertical in (False, True)
            for i, j in shared_edge_pairs(paths, vertical)
        )
    adj: dict[str, set[str]] = {p.id: set() for p in paths}
    for p, q in pairs:
        adj[p.id].add(q.id)
        adj[q.id].add(p.id)
    verts = tuple(sorted(adj))
    return IntersectionGraph(verts, {v: tuple(sorted(adj[v])) for v in verts})


def is_one_string(rep: Representation) -> bool:
    """True iff every adjacent pair crosses exactly once, with no
    overlap-induced adjacency anywhere."""
    if rep.mode is not Mode.VPG:
        raise WrongMode("one-string applies to VPG representations")
    for p, q in _adjacent_vpg_pairs(rep.paths):
        pts, overlap = crossing_points(p, q)
        if overlap or len(pts) != 1:
            return False
    return True


def split_neighbors(rep: Representation, path_id: str) -> tuple[set[str], set[str]]:
    """Partition the open neighborhood of a path into the neighbors sharing a
    grid edge with its horizontal part and those sharing one with its
    vertical part.  Requires EPG mode and weak general position."""
    if rep.mode is not Mode.EPG:
        raise WrongMode("neighbor split applies to EPG representations")
    if not weak_general_position(rep):
        raise GeneralPositionViolation("two EPG paths share a corner")
    p = rep.path_by_id(path_id)
    h_nb: set[str] = set()
    v_nb: set[str] = set()
    for q in rep.paths:
        if q.id == path_id:
            continue
        if q.corner.y == p.corner.y and _overlap_len(p.h_span, q.h_span) >= 1:
            h_nb.add(q.id)
        if q.corner.x == p.corner.x and _overlap_len(p.v_span, q.v_span) >= 1:
            v_nb.add(q.id)
    return h_nb, v_nb
