"""Seeded random instance generators.

Every generator drives a Mersenne Twister stream (random.Random) from the
explicit seed, so repeated calls with equal arguments produce identical
instances on any platform.
"""
from __future__ import annotations

import random

from .errors import GenerationExhausted, Infeasible
from .geometry import GridPath, Mode, Representation, is_one_string
from .mds_epg import check_non_containment, is_double_crossing, is_vertical_crossing
from .reduction import SimpleGraph

_MAX_TRIES = 500

_TIP_SIGNS = ((1, 1), (1, -1), (-1, -1), (-1, 1))  # LL, UL, UR, LR


def _random_paths(rng: random.Random, n: int, spread: int) -> list[GridPath]:
    """Paths with pairwise distinct corner rows and columns, so no two parts
    are ever collinear and one-string only fails through double crossings."""
    xs = rng.sample(range(spread), n)
    ys = rng.sample(range(spread), n)
    paths = []
    for i in range(n):
        sx, sy = _TIP_SIGNS[rng.randrange(4)]
        h_arm = rng.randint(1, 6)
        v_arm = rng.randint(1, 6)
        paths.append(
            GridPath.make(f"p{i}", xs[i], ys[i], xs[i] + sx * h_arm, ys[i] + sy * v_arm)
        )
    return paths


def gen_vpg(n: int, seed: int, one_string: bool = False) -> Representation:
    """Random VPG representation of n single-bend paths in a bounded window;
    with one_string set, rejection-samples until every adjacent pair crosses
    exactly once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = random.Random(seed)
    spread = 3 * n + 6
    for _ in range(_MAX_TRIES):
        rep = Representation(Mode.VPG, tuple(_random_paths(rng, n, spread)))
        if not one_string or is_one_string(rep):
            return rep
    raise GenerationExhausted(f"no one-string instance with n={n} after {_MAX_TRIES} tries")


def _distinct_points(
    rng: random.Random, n: int, x_range: tuple[int, int], y_range: tuple[int, int]
) -> list[tuple[int, int]]:
    points: list[tuple[int, int]] = []
    seen = set()
    guard = 0
    while len(points) < n:
        p = (rng.randint(*x_range), rng.randint(*y_range))
        if p not in seen:
            seen.add(p)
            points.append(p)
        guard += 1
        if guard > 200 * max(n, 1):
            raise GenerationExhausted("could not place distinct corners")
    return points


def gen_epg_double_crossing(n: int, seed: int) -> Representation:
    """LL paths all crossing the vertical line x=0 and the horizontal line
    y=0, corners in the closed lower-left quadrant, in weak general position."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = random.Random(seed)
    span = max(3, n)
    paths = []
    for i, (cx, cy) in enumerate(
        _distinct_points(rng, n, (-span, -1), (-span, -1))
    ):
        paths.append(GridPath.make(f"p{i}", cx, cy, rng.randint(0, 4), rng.randint(0, 4)))
    rep = Representation(Mode.EPG, tuple(paths), vline=0, hline=0)
    if not is_double_crossing(rep, 0, 0):
        raise GenerationExhausted("generator emitted a non-conforming instance")
    return rep


def gen_epg_vertical_crossing(n: int, seed: int) -> Representation:
    """LL paths all crossing the vertical line x=0, in weak general position,
    with no vertical part containing another among vertically edge-sharing
    pairs (vertical ends rise strictly with the corners on each column)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = random.Random(seed)
    col_span = max(3, (n + 1) // 2)
    corners = _distinct_points(rng, n, (-col_span, -1), (0, 3 * n + 3))
    by_column: dict[int, list[int]] = {}
    for idx, (cx, _) in enumerate(corners):
        by_column.setdefault(cx, []).append(idx)
    v_tip = [0] * n
    for column, members in sorted(by_column.items()):
        members.sort(key=lambda i: corners[i][1])
        prev_end = None
        for idx in members:
            cy = corners[idx][1]
            floor = cy + 1 if prev_end is None else max(cy + 1, prev_end + 1)
            prev_end = floor + rng.randint(0, 3)
            v_tip[idx] = prev_end
    paths = [
        GridPath.make(f"p{i}", cx, cy, rng.randint(0, 4), v_tip[i])
        for i, (cx, cy) in enumerate(corners)
    ]
    rep = Representation(Mode.EPG, tuple(paths), vline=0)
    if not (is_vertical_crossing(rep, 0) and check_non_containment(rep)):
        raise GenerationExhausted("generator emitted a non-conforming instance")
    return rep


def gen_degree3_graph(n: int, m: int, seed: int) -> SimpleGraph:
    """Random simple graph on n vertices with m edges and maximum degree 3."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if 2 * m > 3 * n or m > n * (n - 1) // 2:
        raise Infeasible(f"no simple max-degree-3 graph with n={n}, m={m}")
    rng = random.Random(seed)
    for _ in range(_MAX_TRIES):
        edges: set[tuple[int, int]] = set()
        degree = [0] * n
        stuck = False
        while len(edges) < m:
            candidates = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if degree[i] < 3 and degree[j] < 3 and (i, j) not in edges
            ]
            if not candidates:
                stuck = True
                break
            i, j = candidates[rng.randrange(len(candidates))]
            edges.add((i, j))
            degree[i] += 1
            degree[j] += 1
        if not stuck:
            return SimpleGraph(n, tuple(sorted(edges)))
    raise Infeasible(f"could not realize n={n}, m={m} within the retry budget")
