"""Exact integer geometry for single-bend orthogonal grid paths.

A path consists of a horizontal part (corner to h_tip) and a vertical part
(corner to v_tip), either of which may have zero length.  Two adjacency
notions are supported: VPG (paths cross at a grid node) and EPG (paths share
at least one unit grid edge).  All arithmetic is integer; no floating point.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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

    The index pairs that graph building, the one-string check and the
    dominating-set pipeline read (shared row and column edges, and the
    proper crossings among the horizontal-vertical contacts) are swept at
    most once per representation, on first use, and kept with it.  They are
    not fields, so equality and hashing ignore them.
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

    @cached_property
    def _shared_edges(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Index pairs sharing a row edge, and those sharing a column edge."""
        paths = self.paths
        return list(shared_edge_pairs(paths, False)), list(shared_edge_pairs(paths, True))

    @cached_property
    def _contacts(self) -> tuple[list[tuple[int, int]], bool]:
        """The `hv_contacts` pairs (i, j) where path i's horizontal part
        properly crosses path j's vertical part, and whether some pair
        crosses properly both ways.  Touching contacts are dropped."""
        paths = self.paths
        proper = [
            (i, j) for i, j in hv_contacts(paths) if _proper_cross(paths[i], paths[j]) is not None
        ]
        crossed = set(proper)
        return proper, any((j, i) in crossed for i, j in proper)


class IntersectionGraph:
    """Derived abstract graph: symmetric, irreflexive, vertices = path ids.

    The graph is held once, as an int core: `index[i]` lists the positions,
    in `vertices` order, of vertex i's neighbours.  `build_graph` and
    `from_edges` sort the vertices by id and build the core from index
    pairs, merging duplicates, so every list ascends and positions sort as
    the ids do.  The str-keyed `adjacency` (id -> tuple of neighbour ids) is
    a view derived from the core on first read; `neighbors`,
    `closed_neighborhood` and `degree` read it, while `has_edge`, `edges`
    and the set predicates read the core.  The public constructor takes
    such an adjacency mapping, keeps it as the view and translates it to
    the core, in the given vertex and neighbour order.  Treat both forms as
    read-only.
    """

    __slots__ = ("vertices", "index", "_position", "_adjacency")

    def __init__(self, vertices: Iterable[str], adjacency: Mapping[str, Sequence[str]]):
        self.vertices = tuple(vertices)
        self._position = None
        position = self.position
        if len(position) != len(self.vertices):
            raise ValueError("vertex ids must be distinct")
        if adjacency.keys() != position.keys():
            raise ValueError("adjacency needs one entry per vertex and no other")
        try:
            self.index = [[position[w] for w in adjacency[v]] for v in self.vertices]
        except KeyError as exc:
            raise ValueError(f"neighbour {exc.args[0]!r} is not a vertex") from None
        members = [set(nbrs) for nbrs in self.index]
        for i, nbrs in enumerate(members):
            if i in nbrs or any(i not in members[j] for j in nbrs):
                raise ValueError("adjacency must be symmetric and irreflexive")
        self._adjacency = adjacency

    @classmethod
    def _from_pairs(
        cls,
        vertices: tuple[str, ...],
        rank: Mapping | Sequence[int],
        pairs: Iterable[tuple],
        merge: bool = True,
    ) -> "IntersectionGraph":
        """The graph on vertices (distinct, sorted by id) with an edge per
        pair (x, y) of keys that rank maps to positions in vertices.  Repeated
        pairs are merged unless merge is false, which a caller passes only
        when no pair can come twice."""
        index: list[list[int]] = [[] for _ in vertices]
        for x, y in pairs:
            a = rank[x]
            b = rank[y]
            if a == b:
                raise ValueError("self-loop")
            index[a].append(b)
            index[b].append(a)
        if merge:
            index = [sorted(set(nbrs)) for nbrs in index]
        else:
            for nbrs in index:
                nbrs.sort()
        graph = cls.__new__(cls)
        graph.vertices = vertices
        graph.index = index
        graph._position = graph._adjacency = None
        return graph

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def position(self) -> dict[str, int]:
        """Vertex id -> its position in `vertices` (built on first read)."""
        if self._position is None:
            self._position = {v: i for i, v in enumerate(self.vertices)}
        return self._position

    @property
    def adjacency(self) -> Mapping[str, Sequence[str]]:
        """Vertex id -> neighbour ids, the str view of the core."""
        if self._adjacency is None:
            verts = self.vertices
            self._adjacency = {
                v: tuple(map(verts.__getitem__, nbrs)) for v, nbrs in zip(verts, self.index)
            }
        return self._adjacency

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.index == other.index

    __hash__ = None

    def __repr__(self) -> str:
        return f"IntersectionGraph(vertices={self.vertices!r}, adjacency={self.adjacency!r})"

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self.adjacency[v]
        except KeyError:
            raise UnknownId(v) from None

    def closed_neighborhood(self, v: str) -> frozenset[str]:
        return frozenset(self.neighbors(v)) | {v}

    def has_edge(self, u: str, v: str) -> bool:
        i = self.position.get(u)
        return i is not None and self.position.get(v) in self.index[i]

    def edges(self) -> list[tuple[str, str]]:
        verts = self.vertices
        return [(u, verts[j]) for u, nbrs in zip(verts, self.index) for j in nbrs if u < verts[j]]

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def is_independent_set(self, ids: Iterable[str]) -> bool:
        position = self.position
        chosen = {position[v] for v in set(ids) if v in position}
        return not any(j in chosen for i in chosen for j in self.index[i])

    def is_dominating_set(self, ids: Iterable[str]) -> bool:
        position = self.position
        chosen = set(ids)
        if not all(v in position for v in chosen):
            return False
        covered = bytearray(self.n)
        for v in chosen:
            i = position[v]
            covered[i] = 1
            for j in self.index[i]:
                covered[j] = 1
        return 0 not in covered

    @classmethod
    def from_edges(
        cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]
    ) -> "IntersectionGraph":
        verts = tuple(sorted(set(vertices)))
        position = {v: i for i, v in enumerate(verts)}
        graph = cls._from_pairs(verts, position, edges)
        graph._position = position
        return graph


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
    (hx, hy), tx = h.corner, h.h_tip.x
    (vx, vy), ty = v.corner, v.v_tip.y
    if (hx < vx < tx or tx < vx < hx) and (vy < hy < ty or ty < hy < vy):
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


def weak_general_position(rep: Representation) -> bool:
    """True iff all corner points are pairwise distinct."""
    corners = [p.corner for p in rep.paths]
    return len(set(corners)) == len(corners)


def hv_contacts(paths: Sequence[GridPath]) -> Iterator[tuple[int, int]]:
    """Index pairs (i, j), i != j, where path i's horizontal part meets path
    j's vertical part in a closed point; a zero-length part is its corner.

    The orthogonal-segment intersection sweep (de Berg et al., ch. 10): the
    vertical parts are visited by column, the horizontal parts stay in a
    row-sorted list from their left end to their right end, and each
    vertical part reads off the listed rows inside its y-range."""
    rows = []
    cols = []
    for i, p in enumerate(paths):
        (cx, cy), hx, vy = p.corner, p.h_tip.x, p.v_tip.y
        rows.append((cx, hx, (cy, i)) if cx <= hx else (hx, cx, (cy, i)))
        cols.append((cx, cy, vy, i) if cy <= vy else (cx, vy, cy, i))
    rows.sort()
    cols.sort()
    ends = sorted(rows, key=lambda row: row[1])
    n = len(rows)
    active: list[tuple[int, int]] = []  # (row, index) of the open horizontal parts
    s = e = 0
    for x, lo, hi, j in cols:
        while s < n and rows[s][0] <= x:
            insort(active, rows[s][2])
            s += 1
        # Every part ending left of x started left of x, so it is active;
        # path j's own horizontal part reaches x, so the walk stops before it.
        while ends[e][1] < x:
            del active[bisect_left(active, ends[e][2])]
            e += 1
        for k in range(bisect_left(active, (lo,)), bisect_right(active, (hi, n))):
            i = active[k][1]
            if i != j:
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
        if len(group) < 2:
            continue
        group.sort()
        for k, (_, hi, i) in enumerate(group):
            for m in range(k + 1, len(group)):
                lo2, _, j = group[m]
                if lo2 >= hi:
                    break
                yield i, j


def build_graph(rep: Representation) -> IntersectionGraph:
    """Derive the intersection graph without scanning all pairs.

    Shared grid edges, all of EPG adjacency, come from one sort per corner
    row and column (`shared_edge_pairs`) with no pairwise re-test.  VPG mode
    adds the proper crossings among the contacts of one horizontal-vertical
    sweep (`hv_contacts`).  Both are the representation's kept pairs, so
    the one-string check and the dominating-set pipeline reuse the same
    sweeps.  The index pairs build the graph's int core directly; no
    str-keyed adjacency is made unless a caller reads one.  Either way the
    cost is O(n log n) plus the contacts found.  In EPG mode weak general
    position is checked, not silently assumed.
    """
    paths = rep.paths
    if rep.mode is Mode.EPG and not weak_general_position(rep):
        raise GeneralPositionViolation("two EPG paths share a corner")
    rows, cols = rep._shared_edges
    pairs = chain(rows, cols)
    # A pair comes twice only when it shares a row edge and a column edge,
    # and so its corner, which EPG mode refuses above, or when it crosses
    # properly both ways.  One-string input has neither, so it skips the
    # per-vertex merge.
    merge = False
    if rep.mode is Mode.VPG:
        proper, crosses_twice = rep._contacts
        pairs = chain(pairs, proper)
        merge = crosses_twice or bool(rows and cols)
    ids = [p.id for p in paths]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = [0] * len(ids)
    for k, i in enumerate(order):
        rank[i] = k
    return IntersectionGraph._from_pairs(tuple([ids[i] for i in order]), rank, pairs, merge)


def is_one_string(rep: Representation) -> bool:
    """True iff no two paths share a grid edge and no two cross properly
    twice (each horizontal part through the other's vertical part), so every
    adjacent pair crosses exactly once."""
    if rep.mode is not Mode.VPG:
        raise WrongMode("one-string applies to VPG representations")
    rows, cols = rep._shared_edges
    return not rows and not cols and not rep._contacts[1]

