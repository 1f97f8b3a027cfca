"""Approximation-preserving reduction from vertex cover on max-degree-3
graphs to dominating set on B1-EPG representations.

Each input vertex v becomes five paths: a long horizontal path Gh(v), a long
vertical path Gv(v), a big connector C(v) adjacent to both, and two small
connectors S1(v) (adjacent to Gh(v) and C(v)) and S2(v) (adjacent to Gv(v)
and C(v)).  Each input edge (u, w) with u < w becomes a non-adjacent pair of
unit paths E1(u, w) and E2(u, w), each adjacent to exactly Gv(u) and Gh(w).
The minimum dominating set of the emitted instance has size exactly
n + (minimum vertex cover), which is what the verifier checks at desk scale.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .errors import DegreeTooHigh, LayoutFailure, NotDominating, UnknownId
from .exact import brute_mds, brute_vc
from .geometry import (
    GridPath,
    IntersectionGraph,
    Mode,
    PathType,
    Representation,
    build_graph,
    classify_type,
    weak_general_position,
)

logger = logging.getLogger(__name__)

_ROLE_RE = re.compile(r"^(Gh|Gv|C|S1|S2|E1|E2)\((\d+)(?:,(\d+))?\)$")


@dataclass(frozen=True)
class SimpleGraph:
    """Simple undirected graph with 0-based vertices and i < j edge pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        seen = set()
        for i, j in self.edges:
            if not 0 <= i < j < self.n:
                raise ValueError(f"bad edge ({i}, {j})")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_isolated_vertex(self) -> bool:
        return self.n > 0 and min(self.degrees(), default=0) == 0

    def is_vertex_cover(self, cover: set[int]) -> bool:
        return all(i in cover or j in cover for i, j in self.edges)


@dataclass(frozen=True)
class ReductionInstance:
    """Emitted EPG representation plus the path-id to role labeling."""

    rep: Representation
    labels: dict[str, str]


def parse_role(token: str) -> tuple[str, int, int | None]:
    m = _ROLE_RE.match(token)
    if not m:
        raise ValueError(f"bad role token {token!r}")
    kind, a, b = m.group(1), int(m.group(2)), m.group(3)
    return kind, a, (int(b) if b is not None else None)


def gadget_graph(g: SimpleGraph) -> IntersectionGraph:
    """Abstract target adjacency on 5n + 2m vertices.

    Vertex ids are the role tokens.  Gh(v) and Gv(v) are never adjacent to
    each other, and the two paths of an edge pair are never adjacent.
    """
    if g.max_degree() > 3:
        raise DegreeTooHigh(f"maximum degree {g.max_degree()} exceeds 3")
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    for v in range(g.n):
        gh, gv, c = f"Gh({v})", f"Gv({v})", f"C({v})"
        s1, s2 = f"S1({v})", f"S2({v})"
        vertices += [gh, gv, c, s1, s2]
        edges += [(gh, c), (gv, c), (s1, gh), (s1, c), (s2, gv), (s2, c)]
    for u, w in g.edges:
        e1, e2 = f"E1({u},{w})", f"E2({u},{w})"
        vertices += [e1, e2]
        edges += [(e1, f"Gv({u})"), (e1, f"Gh({w})"),
                  (e2, f"Gv({u})"), (e2, f"Gh({w})")]
    return IntersectionGraph.from_edges(vertices, edges)


def reduce_vc_to_mds(g: SimpleGraph) -> ReductionInstance:
    """Emit concrete grid paths realizing the gadget graph.

    Layout: vertex gadget v anchors at (8(v+1), 8(v+1)).  Gv(v) bends at the
    top of its column, Gh(v) at the right end of its row, so their long arms
    cross every later row and column while sharing no grid edge.  The E1
    path of an edge sits at the crossing of Gv(u)'s column with Gh(w)'s row;
    the E2 path sits at the separate crossing of Gv(u)'s top arm with Gh(w)'s
    right arm.  Using the two crossings keeps every corner distinct and
    every path of UL or LR type.  Coordinates are deterministic; the emitted
    adjacency is verified against the abstract gadget before returning.
    """
    if g.max_degree() > 3:
        raise DegreeTooHigh(f"maximum degree {g.max_degree()} exceeds 3")
    n = g.n
    base = 8 * (n + 1)
    margin = base + 2 * n + 4

    def col(v: int) -> int:
        return 8 * (v + 1)

    row = col

    def top(v: int) -> int:
        return base + 2 * (v + 1)

    right = top

    paths: list[GridPath] = []
    labels: dict[str, str] = {}

    def add(pid: str, role: str, cx: int, cy: int, hx: int, vy: int):
        paths.append(GridPath.make(pid, cx, cy, hx, vy))
        labels[pid] = role

    for v in range(n):
        add(f"gv{v}", f"Gv({v})", col(v), top(v), margin, row(v) - 4)
        add(f"gh{v}", f"Gh({v})", right(v), row(v), 0, margin)
        add(f"c{v}", f"C({v})", col(v), row(v), col(v) + 2, row(v) - 4)
        add(f"s1_{v}", f"S1({v})", col(v) + 1, row(v), col(v) + 2, row(v) - 1)
        add(f"s2_{v}", f"S2({v})", col(v), row(v) - 2, col(v) - 1, row(v) - 1)
    for u, w in g.edges:
        add(f"e1_{u}_{w}", f"E1({u},{w})",
            col(u), row(w), col(u) + 1, row(w) - 1)
        add(f"e2_{u}_{w}", f"E2({u},{w})",
            right(w), top(u), right(w) - 1, top(u) + 1)

    rep = Representation(Mode.EPG, tuple(paths))
    inst = ReductionInstance(rep, labels)
    if not _realizes_gadget(inst, g):
        raise LayoutFailure("emitted paths do not realize the gadget adjacency")
    return inst


def _realizes_gadget(inst: ReductionInstance, g: SimpleGraph) -> bool:
    if not weak_general_position(inst.rep):
        return False
    target = gadget_graph(g)
    relabeled = {
        inst.labels[p.id] for p in inst.rep.paths
    }
    if relabeled != set(target.vertices):
        return False
    actual = build_graph(inst.rep)
    actual_edges = {
        tuple(sorted((inst.labels[u], inst.labels[v]))) for u, v in actual.edges()
    }
    target_edges = {tuple(sorted(e)) for e in target.edges()}
    return actual_edges == target_edges


def map_back(d: set[str], inst: ReductionInstance, g: SimpleGraph) -> set[int]:
    """Turn a dominating set of the emitted instance into a vertex cover.

    Small connectors are replaced by their big connector; a lone edge path of
    a pair is replaced by Gv(u) (fixed choice), both edge paths by Gv(u) and
    Gh(w).  The cover is every vertex with Gh or Gv in the normalized set;
    its size is at most |d| - n.
    """
    graph = build_graph(inst.rep)
    if not graph.is_dominating_set(d):
        raise NotDominating("input does not dominate the emitted instance")
    normalized: set[str] = set()
    pair_hits: dict[tuple[int, int], int] = {}
    for pid in d:
        try:
            role = inst.labels[pid]
        except KeyError:
            raise UnknownId(pid) from None
        kind, a, b = parse_role(role)
        if kind in ("Gh", "Gv", "C"):
            normalized.add(role)
        elif kind in ("S1", "S2"):
            normalized.add(f"C({a})")
        else:
            pair_hits[(a, b)] = pair_hits.get((a, b), 0) + 1
    for (u, w), hits in pair_hits.items():
        normalized.add(f"Gv({u})")
        if hits >= 2:
            normalized.add(f"Gh({w})")
    return {
        v for v in range(g.n)
        if f"Gh({v})" in normalized or f"Gv({v})" in normalized
    }


def verify_reduction(inst: ReductionInstance, g: SimpleGraph) -> bool:
    """Check the emitted instance end to end.

    Confirms weak general position and the label isomorphism (both in
    _realizes_gadget), the two-type restriction, and, when the instance is
    small enough for the exact solvers, the identity mds = n + vc plus the
    factor-5 optimum blow-up bound (the blow-up bound presumes no isolated
    vertices, since an uncovered isolated vertex still costs a dominator).
    """
    if not _realizes_gadget(inst, g):
        logger.debug("gadget mismatch: shared corners or wrong adjacency")
        return False
    kinds = {classify_type(p) for p in inst.rep.paths}
    if not kinds <= {PathType.UL, PathType.LR}:
        logger.debug("unexpected path types: %s", sorted(k.value for k in kinds))
        return False
    size = 5 * g.n + 2 * g.m
    if size <= 24:
        mds = len(brute_mds(build_graph(inst.rep)))
        vc = len(brute_vc(g))
        if mds != g.n + vc:
            logger.debug("identity failed: mds=%d, n+vc=%d", mds, g.n + vc)
            return False
        if not g.has_isolated_vertex() and mds > 5 * vc:
            logger.debug("blow-up bound failed: mds=%d, 5*vc=%d", mds, 5 * vc)
            return False
    return True
