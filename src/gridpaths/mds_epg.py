"""Greedy dominating sets on B1-EPG representations, plus the validators for
the two restricted families where the greedy carries a ratio guarantee
(factor 2 when every path crosses a fixed horizontal and vertical line,
factor 3 when every path crosses only a vertical line and no vertical part
contains another among vertically edge-sharing pairs)."""
from __future__ import annotations

from typing import Sequence

from .errors import GeneralPositionViolation, WrongMode
from .geometry import (
    GridPath,
    Mode,
    PathType,
    Representation,
    build_graph,
    classify_type,
    shared_edge_pairs,
)


def order_paths(paths: Sequence[GridPath]) -> list[GridPath]:
    """Scan order: ascending corner y, ties broken by ascending corner x.

    Requires pairwise distinct corners, so no full tie is possible.
    """
    corners = [p.corner for p in paths]
    if len(set(corners)) != len(corners):
        raise GeneralPositionViolation("two paths share a corner")
    return sorted(paths, key=lambda p: (p.corner.y, p.corner.x))


def greedy_line_mds(rep: Representation) -> set[str]:
    """Sweep the paths in scan order, keeping each survivor and deleting its
    closed neighborhood (adjacency taken from the original graph).  The
    answer dominates the derived graph on any EPG input in weak general
    position; the ratio guarantees need the line assumptions."""
    if rep.mode is not Mode.EPG:
        raise WrongMode("greedy line MDS applies to EPG representations")
    graph = build_graph(rep)  # raises on a general-position violation
    index, position = graph.index, graph.position
    alive = [True] * graph.n
    chosen: set[str] = set()
    for p in order_paths(rep.paths):
        i = position[p.id]
        if alive[i]:
            chosen.add(p.id)
            for j in index[i]:
                alive[j] = False
    return chosen


def _common_point(spans: list[tuple[int, int]]) -> int | None:
    """Lowest integer in every closed span, or None when the spans have empty
    common intersection (no spans report None)."""
    if not spans:
        return None
    lo = max(lo for lo, _ in spans)
    hi = min(hi for _, hi in spans)
    return lo if lo <= hi else None


def detect_vertical_line(rep: Representation) -> int | None:
    """Lowest integer x whose vertical line meets every horizontal part, or
    None when there is none (an empty representation reports None)."""
    return _common_point([p.h_span for p in rep.paths])


def detect_horizontal_line(rep: Representation) -> int | None:
    """Lowest integer y whose horizontal line meets every vertical part, or
    None when there is none (an empty representation reports None)."""
    return _common_point([p.v_span for p in rep.paths])


def is_double_crossing(rep: Representation, hline: int, vline: int) -> bool:
    """Every path is LL type, its horizontal part crosses x = vline, its
    vertical part crosses y = hline, and its corner sits in the closed
    lower-left quadrant of the two lines.  Endpoint contact counts as
    crossing.  Vacuously true when empty."""
    for p in rep.paths:
        if classify_type(p) is not PathType.LL:
            return False
        if not p.h_span[0] <= vline <= p.h_span[1]:
            return False
        if not p.v_span[0] <= hline <= p.v_span[1]:
            return False
        if p.corner.x > vline or p.corner.y > hline:
            return False
    return True


def is_vertical_crossing(rep: Representation, vline: int) -> bool:
    """Every path's horizontal part crosses x = vline (endpoint contact counts)."""
    return all(p.h_span[0] <= vline <= p.h_span[1] for p in rep.paths)


def check_non_containment(rep: Representation) -> bool:
    """Among pairs whose vertical parts share a grid edge, neither vertical
    part's point set may contain the other's.  Only the pairs that
    `shared_edge_pairs` emits for the corner columns are examined; a
    zero-length vertical part shares no edge, so it is never compared."""
    paths = rep.paths
    for i, j in shared_edge_pairs(paths, vertical=True):
        p_lo, p_hi = paths[i].v_span
        q_lo, q_hi = paths[j].v_span
        if (q_lo <= p_lo and p_hi <= q_hi) or (p_lo <= q_lo and q_hi <= p_hi):
            return False
    return True
