"""Answer checker and reference values, written from the README's adjacency
definitions without importing gridpaths.

VPG adjacency: the paths cross at a grid node interior to both parts, or
two collinear parts share at least one unit grid edge.  EPG adjacency: the
paths share at least one unit grid edge.  A VPG representation is one-string
when every adjacent pair crosses exactly once and shares no grid edge.

Paths are tuples (id, cx, cy, hx, vy) as produced by gen.py; graphs are
adjacency lists over path indices.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right


def _span(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def parse_paths(text: str) -> tuple[str, list, dict]:
    """Mode, path tuples and reference lines of an instance text."""
    mode, paths, lines = "", [], {}
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "mode":
            mode = parts[1]
        elif parts[0] == "line":
            lines[parts[1]] = int(parts[2])
        elif parts[0] == "path":
            paths.append((parts[1], *map(int, parts[2:6])))
    return mode, paths, lines


def _collinear_pairs(paths, out: dict) -> None:
    """Pairs sharing a unit grid edge along a row or a column."""
    for axis in (0, 1):
        groups: dict = {}
        for i, (_, cx, cy, hx, vy) in enumerate(paths):
            key, (lo, hi) = (cy, _span(cx, hx)) if axis == 0 else (cx, _span(cy, vy))
            if hi > lo:
                groups.setdefault(key, []).append((lo, hi, i))
        for members in groups.values():
            members.sort()
            for k, (_, hi, i) in enumerate(members):
                for lo2, _, j in members[k + 1:]:
                    if lo2 >= hi:
                        break
                    out.setdefault((min(i, j), max(i, j)), [0, False])[1] = True


def _crossing_pairs(paths, out: dict) -> None:
    """Proper crossings of one path's horizontal part with another's vertical
    part, each counted once per (horizontal, vertical) pairing."""
    verticals = sorted(
        (cx, *_span(cy, vy), j) for j, (_, cx, cy, hx, vy) in enumerate(paths) if vy != cy
    )
    xs = [v[0] for v in verticals]
    for i, (_, cx, cy, hx, vy) in enumerate(paths):
        lo, hi = _span(cx, hx)
        for k in range(bisect_right(xs, lo), bisect_left(xs, hi)):
            _, ylo, yhi, j = verticals[k]
            if ylo < cy < yhi and j != i:
                out.setdefault((min(i, j), max(i, j)), [0, False])[0] += 1


def relations(paths, mode: str) -> dict:
    """(i, j) with i < j -> [proper crossings, shares a grid edge], for every
    pair that touches in the way the mode's adjacency counts."""
    out: dict = {}
    _collinear_pairs(paths, out)
    if mode == "vpg":
        _crossing_pairs(paths, out)
    return out


def adjacency(paths, mode: str) -> list:
    adj: list = [[] for _ in paths]
    for i, j in relations(paths, mode):
        adj[i].append(j)
        adj[j].append(i)
    return adj


def mean_degree(adj) -> float:
    return sum(map(len, adj)) / max(1, len(adj))


# ---- instance predicates (cross-checked against the package's) ----

def is_one_string(paths) -> bool:
    return all(cross == 1 and not shared for cross, shared in relations(paths, "vpg").values())


def is_ll(path) -> bool:
    _, cx, cy, hx, vy = path
    return hx >= cx and vy >= cy


def is_vertical_crossing(paths, vline: int) -> bool:
    return all(min(cx, hx) <= vline <= max(cx, hx) for _, cx, _, hx, _ in paths)


def is_double_crossing(paths, hline: int, vline: int) -> bool:
    return all(
        is_ll(p) and p[1] <= vline <= p[3] and p[2] <= hline <= p[4] for p in paths
    )


def non_containment(paths) -> bool:
    """No vertical part contains another among pairs sharing a vertical edge."""
    columns: dict = {}
    for _, cx, cy, _, vy in paths:
        columns.setdefault(cx, []).append(_span(cy, vy))
    for spans in columns.values():
        spans.sort()
        for k, (lo, hi) in enumerate(spans):
            for lo2, hi2 in spans[k + 1:]:
                if lo2 >= hi:
                    break
                if min(hi, hi2) - lo2 >= 1 and (hi2 <= hi or lo2 == lo):
                    return False
    return True


# ---- answer checks ----

def ids_to_index(paths, ids) -> list | None:
    """Indices of the given ids, or None if one is unknown or repeated."""
    pos = {p[0]: i for i, p in enumerate(paths)}
    out = [pos.get(pid) for pid in ids]
    if None in out or len(set(out)) != len(out):
        return None
    return out


def is_independent(adj, chosen) -> bool:
    s = set(chosen)
    return all(w not in s for v in s for w in adj[v])


def is_dominating(adj, chosen) -> bool:
    covered = set(chosen)
    for v in chosen:
        covered.update(adj[v])
    return len(covered) == len(adj)


def is_vertex_cover(edges, cover) -> bool:
    s = set(cover)
    return all(u in s or v in s for u, v in edges)


# ---- references ----

def packing_bound(adj) -> int:
    """Greedy packing of vertices with pairwise disjoint closed
    neighbourhoods, lowest degree first: a lower bound on the minimum
    dominating set, since each packed vertex needs its own dominator."""
    blocked: set = set()
    size = 0
    for v in sorted(range(len(adj)), key=lambda v: (len(adj[v]), v)):
        closed = {v, *adj[v]}
        if blocked.isdisjoint(closed):
            size += 1
            blocked |= closed
    return size


def greedy_mis(adj) -> int:
    """Size of the min-degree greedy independent set."""
    degree = [len(a) for a in adj]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    alive = [True] * len(adj)
    size = 0
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != degree[v]:
            continue
        size += 1
        alive[v] = False
        for w in adj[v]:
            if alive[w]:
                alive[w] = False
                for x in adj[w]:
                    if alive[x]:
                        degree[x] -= 1
                        heapq.heappush(heap, (degree[x], x))
    return size


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks(adj) -> list:
    return [sum(1 << w for w in a) for a in adj]


def exact_mis(adj) -> int:
    """Independence number by include/exclude branching on bitmasks."""
    nb = _masks(adj)
    best = 0

    def search(cand: int, size: int) -> None:
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if not cand:
            best = size
            return
        v = (cand & -cand).bit_length() - 1
        search(cand & ~(nb[v] | (1 << v)), size + 1)
        if nb[v] & cand:  # an isolated candidate is always worth taking
            search(cand & ~(1 << v), size)

    search((1 << len(adj)) - 1, 0)
    return best


def exact_mds(adj) -> int:
    """Domination number: branch on the dominators of the undominated vertex
    with the fewest of them, bounded by the largest closed neighbourhood."""
    n = len(adj)
    closed = [m | (1 << v) for v, m in enumerate(_masks(adj))]
    full = (1 << n) - 1
    widest = max((bin(c).count("1") for c in closed), default=1)
    best = n

    def search(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            best = min(best, size)
            return
        left = bin(full & ~covered).count("1")
        if size + -(-left // widest) >= best:
            return
        # A vertex's dominators are exactly its closed neighbourhood.
        todo = full & ~covered
        u = min(_bits(todo), key=lambda v: bin(closed[v]).count("1"))
        for d in sorted(_bits(closed[u]), key=lambda d: -bin(closed[d] & todo).count("1")):
            search(covered | closed[d], size + 1)

    search(0, 0)
    return best
