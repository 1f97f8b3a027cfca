"""Dominating sets on one-string B1-VPG representations via hitting sets.

The universe holds the paths' own parts: element 2k is path k's horizontal
part and 2k + 1 its vertical part, each a closed segment in grid units (a
zero-length part is its corner point).  Dominating sets translate to
hitting sets over the parts and back, and the hitting set itself is
approximated by weighted epsilon-net sampling inside an iterative-doubling
loop.  The loop reweights in phases: each net is verified once, and every
light set it misses has its weight doubled in that one pass, so a solve
draws a handful of nets per guess rather than one per doubling.  A set is
heavy for an eps-net when its weighted mass reaches eps times the total;
with eps = p/q that is tested as mass * q >= p * total, exactly and in
integers.  The loop keeps every set's mass per axis as it doubles weights,
so a net reads the masses instead of re-summing them.

The sets come from the representation's proper crossings, swept once with
the graph and the one-string check: set i holds i's own two parts and,
where path i's horizontal part properly crosses path j's vertical part,
j's vertical part (and set j holds i's horizontal part).  No segment is
tested.  On every one-string input these sets pair dominating sets with
hitting sets exactly: every member of set i belongs to a path in i's
closed neighbourhood, and each neighbour crosses i exactly once, so one of
its parts is in set i.  Touching contacts (zero-length arms, shared
corners) add nothing.

The system is a segment range space per axis.  With integer coordinates,
h's horizontal part shrunk by one unit at both ends and v's vertical part
shrunk the same way (each kept closed, an emptied part dropped) meet
exactly when h's horizontal part properly crosses v's vertical part, so
an element is in a set exactly when the two shrunk parts meet; the
properties `test_shrunk_parts_meet_exactly_at_proper_crossings` and
`test_sets_are_shrunk_part_meetings` in tests/test_sweep.py check both
steps.  The paper's crosses, quarter-unit offset copies of the parts, are
kept in tests/conftest.py as the reference that acceptance criterion 2
checks against.

The nets are plain weighted samples of 4 (1/eps) ln(1/eps + 2) elements.
Nets of size O((1/eps) log(1/eps)) certify an O(log OPT) approximation
factor (Bronnimann and Goodrich, 1995), and that is the factor this module
guarantees.  The paper's O(1) factor needs nets of size O(1/eps) for this
set system, which no net finder here provides.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .errors import (
    NetFailure,
    NotDominating,
    NotHitting,
    NotOneString,
    UnknownId,
)
from .geometry import IntersectionGraph, Representation, build_graph, is_one_string

_NET_ATTEMPTS = 2  # combined-net draws per round before the whole-universe net
_SAMPLE_CONSTANT = 4.0  # net size factor on (1/eps) log(1/eps + 2)
_MAX_RESAMPLES = 64  # verified-net draws per axis before NetFailure


class Axis(Enum):
    H = "H"
    V = "V"


_AXES = (Axis.H, Axis.V)  # element e lies on axis _AXES[e & 1]


@dataclass(frozen=True)
class Segment:
    """A path's axis-parallel part in grid units.

    anchor is the fixed coordinate (y for horizontal, x for vertical);
    the closed span [lo, hi] runs along the segment's axis.
    """

    axis: Axis
    anchor: int
    lo: int
    hi: int
    owner: str

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("segment span is inverted")


@dataclass(frozen=True)
class NetParams:
    """The seed of the net sampler's random stream."""

    rng_seed: int = 0


@dataclass
class SetSystem:
    """Hitting-set system: the two parts of every path (path k's horizontal
    part at element 2k and its vertical part at 2k + 1, in representation
    order), one set per path, plus the mutable weights driving the
    reweighting loop.

    axis_elements, axis_sets (each set restricted to an axis's elements) and
    element_sets (per element, the ascending indices of the sets holding it)
    are derived from sets at construction, each element's axis from its
    parity, so universe must follow that layout; a universe that does not
    raises ValueError.  The derived lists do not depend on the weights.  A
    net called without masses sums them from the weights afresh;
    bg_hitting_set keeps them as it doubles weights and passes them in.
    """

    universe: list[Segment]
    sets: list[list[int]]
    weights: list[int]
    path_ids: list[str]
    graph: IntersectionGraph
    axis_elements: dict[Axis, list[int]] = field(init=False)
    axis_sets: dict[Axis, list[list[int]]] = field(init=False)
    element_sets: list[list[int]] = field(init=False)

    def __post_init__(self):
        for e, segment in enumerate(self.universe):
            if segment.axis is not _AXES[e & 1]:
                raise ValueError(f"element {e} is not on axis {_AXES[e & 1].value}")
        self.element_sets = [[] for _ in self.universe]
        for idx, members in enumerate(self.sets):
            for e in members:
                self.element_sets[e].append(idx)
        n = len(self.universe)
        self.axis_elements = {axis: list(range(bit, n, 2)) for bit, axis in enumerate(_AXES)}
        self.axis_sets = {
            axis: [[e for e in members if e & 1 == bit] for members in self.sets]
            for bit, axis in enumerate(_AXES)
        }


def build_set_system(rep: Representation) -> SetSystem:
    """Universe of the paths' 2n parts and, per path, the set of its own two
    parts and a part of every path it properly crosses.

    The crossings are the representation's kept ones, which the one-string
    check and the graph read too.  Where i's horizontal part properly
    crosses j's vertical part, set i holds 2j + 1 and set j holds 2i.  A
    one-string pair crosses at most once, so no member comes twice."""
    if not is_one_string(rep):
        raise NotOneString("set system requires a one-string representation")
    universe = []
    for p in rep.paths:
        universe.append(Segment(Axis.H, p.corner.y, *p.h_span, p.id))
        universe.append(Segment(Axis.V, p.corner.x, *p.v_span, p.id))
    members = [[2 * idx, 2 * idx + 1] for idx in range(len(rep.paths))]
    for i, j in rep._contacts[0]:
        members[i].append(2 * j + 1)
        members[j].append(2 * i)
    return SetSystem(
        universe=universe,
        sets=[sorted(m) for m in members],
        weights=[1] * len(universe),
        path_ids=[p.id for p in rep.paths],
        graph=build_graph(rep),
    )


def ds_to_hs(ds: set[str], system: SetSystem) -> set[int]:
    """Both parts of every dominating path; hits every set."""
    known = set(system.path_ids)
    for p in ds:
        if p not in known:
            raise UnknownId(p)
    if not system.graph.is_dominating_set(ds):
        raise NotDominating("input is not a dominating set")
    index = {pid: i for i, pid in enumerate(system.path_ids)}
    out: set[int] = set()
    for p in ds:
        out.add(2 * index[p])
        out.add(2 * index[p] + 1)
    return out


def hs_to_ds(hs: set[int], system: SetSystem) -> set[str]:
    """Owners of the hitting elements; dominates the derived graph."""
    for e in hs:
        if not 0 <= e < len(system.universe):
            raise UnknownId(f"element index {e}")
    if verify_hitting(system, hs) is not None:
        raise NotHitting("input does not hit every set")
    return {system.path_ids[e // 2] for e in hs}


def verify_hitting(system: SetSystem, candidate: set[int]) -> int | None:
    """Index of the first unhit set, or None when the candidate hits all."""
    chosen = set(candidate)
    for idx, members in enumerate(system.sets):
        if chosen.isdisjoint(members):
            return idx
    return None


def axis_net(
    system: SetSystem,
    axis: Axis,
    eps: Fraction,
    params: NetParams,
    rng: random.Random | None = None,
    masses: tuple[list[int], int] | None = None,
) -> set[int]:
    """Weighted sample of axis elements hitting every set whose axis-restricted
    weighted mass reaches eps times the axis total.

    masses, when given, is the per-set axis-restricted mass and the axis
    total under the current weights; otherwise both are summed here.  Each
    sample is verified exhaustively; failed draws are retried up to
    _MAX_RESAMPLES times before NetFailure.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if rng is None:
        rng = random.Random(params.rng_seed)
    elements = system.axis_elements[axis]
    if not elements:
        return set()
    weight = system.weights.__getitem__
    weights = list(map(weight, elements))
    restricted_sets = system.axis_sets[axis]
    if masses is None:
        set_masses = [sum(map(weight, restricted)) for restricted in restricted_sets]
        total = sum(weights)
    else:
        set_masses, total = masses
    if total == 0:
        return set()
    # mass >= eps * total, cross-multiplied: exact without Fraction arithmetic.
    # Weights are non-negative, so total > 0 here and a set passing the test
    # has positive mass.
    bound, scale = eps.numerator * total, eps.denominator
    demanding = [
        restricted
        for restricted, mass in zip(restricted_sets, set_masses)
        if mass * scale >= bound
    ]
    if not demanding:
        return set()
    size = max(
        1,
        math.ceil(
            _SAMPLE_CONSTANT * float(1 / eps) * math.log(float(1 / eps) + 2)
        ),
    )
    for _ in range(_MAX_RESAMPLES):
        net = set(rng.choices(elements, weights=weights, k=size))
        if not any(net.isdisjoint(group) for group in demanding):
            return net
    raise NetFailure(f"no verified {eps}-net for axis {axis.value} after "
                     f"{_MAX_RESAMPLES} samples")


def combined_net(
    system: SetSystem,
    eps: Fraction,
    params: NetParams,
    rng: random.Random | None = None,
    masses: list[tuple[list[int], int]] | None = None,
) -> set[int]:
    """Union of half-eps nets per axis.

    A set with weighted mass at least eps times the full total places at
    least half that mass on one axis, so the corresponding axis net hits it.
    masses, when given, holds axis_net's masses for Axis.H and for Axis.V.
    """
    eps = Fraction(eps)
    if rng is None:
        rng = random.Random(params.rng_seed)
    half = eps / 2
    h_masses, v_masses = masses or (None, None)
    return axis_net(system, Axis.H, half, params, rng, h_masses) | axis_net(
        system, Axis.V, half, params, rng, v_masses
    )


def _prune_hitting_set(system: SetSystem, net: set[int]) -> set[int]:
    """Drop redundant elements while every set stays hit.

    Elements covering few sets go first, so widely shared elements survive;
    ties break on the index, keeping the scan deterministic.
    """
    containing = system.element_sets
    counts = [0] * len(system.sets)
    for e in net:
        for idx in containing[e]:
            counts[idx] += 1
    kept = set(net)
    for e in sorted(net, key=lambda e: (len(containing[e]), e)):
        if all(counts[idx] >= 2 for idx in containing[e]):
            kept.remove(e)
            for idx in containing[e]:
                counts[idx] -= 1
    return kept


def bg_hitting_set(system: SetSystem, params: NetParams) -> set[int]:
    """Hitting set by iterative doubling over an optimum guess r, reweighted
    in phases (Agarwal and Pan, SoCG 2014).

    For each guess the weights reset to one and 1/(2r)-nets are drawn.  A
    round draws one net and verifies it once; from the first unhit set on,
    it walks every set the net misses.  A verified net hits every heavy set,
    so these sets were light when it was drawn.  Each counts one doubling
    against the guess's budget, and each still light against the current
    masses (earlier doublings of the pass can make a set heavy) doubles its
    elements' weights.  The per-set masses and the total are kept per axis
    and incrementally (a set's whole mass is the sum of its two axis
    masses), so a doubling touches only the sets holding the doubled
    elements and a net's heavy-set test costs O(sets).  Light sets can
    only double a bounded number of times before the guess is provably
    too small, at which point r doubles.  Once r reaches the universe
    size every set qualifies for the nets, so termination is guaranteed.
    A round draws the combined net up to _NET_ATTEMPTS times; when every
    draw raises NetFailure it falls back to the exhaustive net (the whole
    universe).  Redundant elements are pruned from the verified answer
    before returning.
    """
    n_elems = len(system.universe)
    if n_elems == 0:
        return set()
    rng = random.Random(params.rng_seed)
    weights, sets, element_sets = system.weights, system.sets, system.element_sets
    r = 1
    while True:
        weights[:] = [1] * n_elems
        axis_masses = [list(map(len, system.axis_sets[axis])) for axis in _AXES]
        axis_totals = [len(system.axis_elements[axis]) for axis in _AXES]
        budget = max(1, math.ceil(4 * r * math.log2(n_elems / r + 2)))
        doublings = 0
        while doublings < budget:
            for _ in range(_NET_ATTEMPTS):
                try:
                    net = combined_net(system, Fraction(1, 2 * r), params, rng,
                                       list(zip(axis_masses, axis_totals)))
                    break
                except NetFailure:
                    pass
            else:
                net = set(range(n_elems))
            first = verify_hitting(system, net)
            if first is None:
                return _prune_hitting_set(system, net)
            for idx in range(first, len(sets)):
                if doublings >= budget:
                    break
                members = sets[idx]
                if not net.isdisjoint(members):
                    continue
                doublings += 1
                mass = axis_masses[0][idx] + axis_masses[1][idx]
                if 2 * r * mass <= axis_totals[0] + axis_totals[1]:
                    for e in members:
                        w = weights[e]
                        weights[e] = 2 * w
                        axis_totals[e & 1] += w
                        on_axis = axis_masses[e & 1]
                        for s in element_sets[e]:
                            on_axis[s] += w
        r *= 2


def approx_mds_one_string(rep: Representation, params: NetParams) -> set[str]:
    """Dominating set via the set system, the doubling hitting set, and the
    owner mapping; total on one-string input.  The answer is verified to
    dominate before returning."""
    system = build_set_system(rep)
    hitting = bg_hitting_set(system, params)
    ds = hs_to_ds(hitting, system)
    if not system.graph.is_dominating_set(ds):
        raise RuntimeError("internal error: pipeline produced a non-dominating set")
    return ds
