"""Exact brute-force solvers for desk-scale instances.

Two bitset branch-and-bound searches serve the four oracles.  A maximum
independent set search answers MIS and, by complement, minimum vertex cover.
A minimum cover search (fewest choices hitting every target) answers
dominating set, where vertices hit their closed neighbourhoods, and hitting
set, where elements hit the sets containing them.  Every oracle verifies
feasibility of its answer before returning and is deterministic for a fixed
input; only the optimum's size is contractual.  The size caps keep
accidental research-scale calls from hanging; they are configuration
constants and each solver accepts an explicit override.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import Infeasible, TooLarge
from .geometry import IntersectionGraph

if TYPE_CHECKING:  # pragma: no cover
    from .mds_vpg import SetSystem
    from .reduction import SimpleGraph

MAX_MIS_VERTICES = 25
MAX_MDS_VERTICES = 25
MAX_HS_UNIVERSE = 50
MAX_HS_SETS = 25
MAX_VC_VERTICES = 20

_popcount = int.bit_count


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x -= low


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _max_independent(adj: list[int]) -> int:
    """Maximum independent set of the graph with open-neighborhood bitmasks
    adj, as a bitmask.  Seeded greedily by minimum degree; branches on the
    highest-degree candidate."""
    n = len(adj)
    # Greedy seed: repeatedly take the minimum-degree remaining vertex.
    best_set = 0
    remaining = (1 << n) - 1
    while remaining:
        v = min(_bits(remaining), key=lambda i: _popcount(adj[i] & remaining))
        best_set |= 1 << v
        remaining &= ~(adj[v] | (1 << v))
    best = [best_set, _popcount(best_set)]

    def search(candidates: int, chosen: int, size: int):
        if size + _popcount(candidates) <= best[1]:
            return
        if candidates == 0:
            best[0], best[1] = chosen, size
            return
        # Pivot on the highest-degree candidate: include it or drop it.
        v = max(_bits(candidates), key=lambda i: _popcount(adj[i] & candidates))
        search(candidates & ~(adj[v] | (1 << v)), chosen | (1 << v), size + 1)
        search(candidates & ~(1 << v), chosen, size)

    search((1 << n) - 1, 0, 0)
    return best[0]


def _min_cover(hitters: list[int], n_choices: int) -> int:
    """Fewest of n_choices choices hitting every target, as a bitmask, where
    hitters[t] is the bitmask of the choices hitting target t (never 0).

    Seeded greedily by new coverage, lowest index on ties.  Branches on the
    unhit target with the fewest hitters, trying them by new coverage; prunes
    with a packing bound: unhit targets with pairwise disjoint hitters each
    need their own choice.
    """
    full = (1 << len(hitters)) - 1
    covers = [0] * n_choices  # covers[c]: the targets choice c hits
    for t, mask in enumerate(hitters):
        for c in _bits(mask):
            covers[c] |= 1 << t
    # The packing visits targets with few hitters first: they block little.
    packing = sorted(range(len(hitters)), key=lambda t: (_popcount(hitters[t]), t))

    chosen = covered = 0
    while covered != full:
        c = max(range(n_choices), key=lambda i: (_popcount(covers[i] & ~covered), -i))
        chosen |= 1 << c
        covered |= covers[c]
    best = [chosen, _popcount(chosen)]

    def lower_bound(uncovered: int) -> int:
        bound = blocked = 0
        for t in packing:
            if uncovered >> t & 1 and not hitters[t] & blocked:
                bound += 1
                blocked |= hitters[t]
        return bound

    def search(covered: int, chosen: int, size: int):
        if covered == full:
            if size < best[1]:
                best[0], best[1] = chosen, size
            return
        uncovered = full & ~covered
        if size + lower_bound(uncovered) >= best[1]:
            return
        t = min(_bits(uncovered), key=lambda i: _popcount(hitters[i]))
        for c in sorted(_bits(hitters[t]), key=lambda c: (-_popcount(covers[c] & uncovered), c)):
            search(covered | covers[c], chosen | (1 << c), size + 1)

    search(0, 0, 0)
    return best[0]


def brute_mis(g: IntersectionGraph, cap: int = MAX_MIS_VERTICES) -> set[str]:
    """Maximum independent set by branch and bound with a degree pivot."""
    if g.n > cap:
        raise TooLarge(f"{g.n} vertices exceeds the cap of {cap}")
    adj = [_mask(nbrs) for nbrs in g.index]
    result = {g.vertices[i] for i in _bits(_max_independent(adj))}
    if not g.is_independent_set(result):
        raise RuntimeError("internal error: solver produced a dependent set")
    return result


def brute_mds(g: IntersectionGraph, cap: int = MAX_MDS_VERTICES) -> set[str]:
    """Minimum dominating set: the fewest vertices whose closed
    neighbourhoods cover every vertex."""
    if g.n > cap:
        raise TooLarge(f"{g.n} vertices exceeds the cap of {cap}")
    closed = [_mask(nbrs) | (1 << i) for i, nbrs in enumerate(g.index)]
    result = {g.vertices[i] for i in _bits(_min_cover(closed, g.n))}
    if not g.is_dominating_set(result):
        raise RuntimeError("internal error: solver produced a non-dominating set")
    return result


def brute_hs(
    system: "SetSystem",
    universe_cap: int = MAX_HS_UNIVERSE,
    sets_cap: int = MAX_HS_SETS,
) -> set[int]:
    """Minimum hitting set over a set system, exact."""
    m = len(system.sets)
    u = len(system.universe)
    if u > universe_cap:
        raise TooLarge(f"universe of {u} exceeds the cap of {universe_cap}")
    if m > sets_cap:
        raise TooLarge(f"{m} sets exceeds the cap of {sets_cap}")
    set_masks = [_mask(members) for members in system.sets]
    if 0 in set_masks:
        raise Infeasible("an empty set cannot be hit")
    result = set(_bits(_min_cover(set_masks, u)))
    for members in system.sets:
        if not result & set(members):
            raise RuntimeError("internal error: solver missed a set")
    return result


def brute_vc(g: "SimpleGraph", cap: int = MAX_VC_VERTICES) -> set[int]:
    """Minimum vertex cover: the complement of a maximum independent set."""
    if g.n > cap:
        raise TooLarge(f"{g.n} vertices exceeds the cap of {cap}")
    adj = [0] * g.n
    for a, b in g.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    result = set(range(g.n)) - set(_bits(_max_independent(adj)))
    if not g.is_vertex_cover(result):
        raise RuntimeError("internal error: solver missed an edge")
    return result
