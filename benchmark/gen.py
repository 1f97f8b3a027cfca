"""Seeded instance generators for the benchmark.

This module deliberately does not import gridpaths: the benchmark's inputs
must not move when the library's own generators change.  Every generator
takes a random.Random and returns instance or graph text in the formats the
package parses (see the README's "File formats").  A path is a tuple
(id, cx, cy, hx, vy): corner (cx, cy), horizontal tip x and vertical tip y.
"""
from __future__ import annotations

import random

# Tip directions per bend type: LL, UL, UR, LR.
TIP_SIGNS = ((1, 1), (1, -1), (-1, -1), (-1, 1))

_TRIES_PER_PATH = 2000


class GenerationError(RuntimeError):
    """A generator could not place a path within its retry budget."""


def instance_text(mode: str, paths, vline=None, hline=None) -> str:
    lines = [f"mode {mode}"]
    if vline is not None:
        lines.append(f"line v {vline}")
    if hline is not None:
        lines.append(f"line h {hline}")
    lines += [f"path {pid} {cx} {cy} {hx} {vy}" for pid, cx, cy, hx, vy in paths]
    return "\n".join(lines) + "\n"


def graph_text(n: int, edges) -> str:
    return "".join([f"graph {n}\n"] + [f"edge {u} {v}\n" for u, v in edges])


def _random_path(rng: random.Random, pid: str, window: int, max_arm: int):
    cx, cy = rng.randrange(window), rng.randrange(window)
    sx, sy = TIP_SIGNS[rng.randrange(4)]
    return (pid, cx, cy, cx + sx * rng.randint(1, max_arm), cy + sy * rng.randint(1, max_arm))


def _span(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _conflicts(p, q) -> bool:
    """True when the pair breaks one-string: it shares a collinear grid edge
    or crosses twice (once per horizontal-vertical pairing)."""
    _, pcx, pcy, phx, pvy = p
    _, qcx, qcy, qhx, qvy = q
    ph, pv = _span(pcx, phx), _span(pcy, pvy)
    qh, qv = _span(qcx, qhx), _span(qcy, qvy)
    if pcy == qcy and min(ph[1], qh[1]) - max(ph[0], qh[0]) >= 1:
        return True
    if pcx == qcx and min(pv[1], qv[1]) - max(pv[0], qv[0]) >= 1:
        return True
    return (ph[0] < qcx < ph[1] and qv[0] < pcy < qv[1]
            and qh[0] < pcx < qh[1] and pv[0] < qcy < pv[1])


def vpg_one_string(rng: random.Random, n: int, window: int, max_arm: int) -> list:
    """Mixed-type paths with distinct corners in a window x window box; each
    candidate path is redrawn until it keeps the instance one-string."""
    paths: list = []
    corners: set = set()
    for i in range(n):
        for _ in range(_TRIES_PER_PATH):
            p = _random_path(rng, f"p{i}", window, max_arm)
            if (p[1], p[2]) in corners:
                continue
            if not any(_conflicts(p, q) for q in paths):
                break
        else:
            raise GenerationError(f"could not place path {i} of a one-string instance")
        paths.append(p)
        corners.add((p[1], p[2]))
    return paths


def vpg_mixed(rng: random.Random, n: int, window: int, max_arm: int) -> list:
    """Mixed-type paths with distinct corners; no one-string restriction."""
    paths: list = []
    corners: set = set()
    while len(paths) < n:
        p = _random_path(rng, f"p{len(paths)}", window, max_arm)
        if (p[1], p[2]) not in corners:
            corners.add((p[1], p[2]))
            paths.append(p)
    return paths


def _distinct_points(rng: random.Random, n: int, xs: tuple, ys: tuple) -> list:
    if n > (xs[1] - xs[0] + 1) * (ys[1] - ys[0] + 1):
        raise GenerationError("box too small for distinct corners")
    seen: set = set()
    out: list = []
    while len(out) < n:
        pt = (rng.randint(*xs), rng.randint(*ys))
        if pt not in seen:
            seen.add(pt)
            out.append(pt)
    return out


def epg_double_crossing(rng: random.Random, n: int, box: int, reach: int) -> list:
    """LL paths with corners in [-box, -1]^2 whose arms reach past x = 0 and
    y = 0, so every path crosses both reference lines.  Paths sharing a row
    or a column always share a grid edge, so the mean degree is about 2n/box."""
    return [
        (f"p{i}", cx, cy, rng.randint(0, reach), rng.randint(0, reach))
        for i, (cx, cy) in enumerate(_distinct_points(rng, n, (-box, -1), (-box, -1)))
    ]


def epg_vertical_crossing(rng: random.Random, n: int, cols: int, rows: int,
                          reach: int, rise: int) -> list:
    """Paths with corners in [-cols, -1] x [0, rows) whose horizontal arms
    cross x = 0.  On each column the vertical tips rise strictly with the
    corners, so no vertical part contains another (non-containment)."""
    corners = _distinct_points(rng, n, (-cols, -1), (0, rows - 1))
    tips = [0] * n
    by_column: dict = {}
    for i, (cx, _) in enumerate(corners):
        by_column.setdefault(cx, []).append(i)
    for column in sorted(by_column):
        prev = None
        for i in sorted(by_column[column], key=lambda i: corners[i][1]):
            cy = corners[i][1]
            low = cy + 1 if prev is None else max(cy + 1, prev + 1)
            prev = low + rng.randint(0, rise)
            tips[i] = prev
    return [
        (f"p{i}", cx, cy, rng.randint(0, reach), tips[i])
        for i, (cx, cy) in enumerate(corners)
    ]


def degree3_graph(rng: random.Random, n: int, m: int) -> list:
    """Simple graph on n vertices with m edges and maximum degree 3, drawn by
    repeatedly joining two random vertices that both have spare degree."""
    if 2 * m > 3 * n:
        raise GenerationError(f"no max-degree-3 graph with n={n}, m={m}")
    for _ in range(100):
        degree = [0] * n
        edges: set = set()
        open_vertices = list(range(n))
        misses = 0
        while len(edges) < m and len(open_vertices) >= 2 and misses < 50 * n:
            u, v = rng.sample(open_vertices, 2)
            e = (min(u, v), max(u, v))
            if e in edges:
                misses += 1
                continue
            edges.add(e)
            for w in e:
                degree[w] += 1
                if degree[w] == 3:
                    open_vertices.remove(w)
        if len(edges) == m:
            return sorted(edges)
    raise GenerationError(f"could not draw a max-degree-3 graph with n={n}, m={m}")


# ---- planted violations, for cross-checking the package's predicates ----

def _sign(v: int) -> int:
    return 1 if v >= 0 else -1


def plant_double_crossing(paths) -> list | None:
    """Add a path crossing some path twice, which breaks one-string."""
    for _, cx, cy, hx, vy in paths:
        if abs(hx - cx) >= 2 and abs(vy - cy) >= 2:
            sh, sv = _sign(hx - cx), _sign(vy - cy)
            return paths + [("planted", cx + sh, cy + sv, cx - sh, cy - sv)]
    return None


def plant_containment(paths) -> list | None:
    """Add a path whose vertical part contains another's, sharing its tip,
    while still crossing x = 0; this breaks non-containment only."""
    for _, cx, cy, _, vy in paths:
        if vy - cy >= 1:
            return paths + [("planted", cx, cy - 1, 0, vy)]
    return None


def plant_off_lines(paths) -> list:
    """Move the first path's corner above the horizontal line y = 0 and cut
    its horizontal arm short of x = 0, breaking both line conditions."""
    pid, cx, _, _, _ = paths[0]
    return [(pid, cx, 1, cx, 2)] + paths[1:]
