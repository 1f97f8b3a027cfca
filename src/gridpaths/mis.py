"""Logarithmic-factor approximation for maximum independent set on B1-VPG
representations.

The recursion splits one bend type at the median corner x-coordinate: the
strictly-left and strictly-right groups are solved recursively, the group
meeting the split line is solved exactly (it stays small at desk scale), and
the larger of the two answers wins.  The strip is solved only when it has
more paths than the two-sided answer, since otherwise it cannot win; so the
exact solver's size cap (`TooLarge`) applies only to strips that could win.
Running it once per bend type and keeping the best result costs another
factor four in the guarantee.

The recursion runs on the paths as given, with the LL frame's answers: the
split reads only x and reflections keep adjacency, so mirroring y does not
matter, and the x-mirrored types (UR and LR) split at the upper median.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import TooFewPaths, WrongMode
from .exact import brute_mis
from .geometry import (
    GridPath,
    Mode,
    PathType,
    Representation,
    build_graph,
    classify_type,
    vpg_adjacent,
)

_BUCKET_ORDER = (PathType.LL, PathType.UL, PathType.UR, PathType.LR)

# Bend types whose horizontal arm points left, the x-mirrors of LL and UL.
_MIRRORED_X = (PathType.UR, PathType.LR)


def split_by_type(rep: Representation) -> dict[PathType, list[GridPath]]:
    """Assign every path to exactly one bend-type bucket."""
    if rep.mode is not Mode.VPG:
        raise WrongMode("type split applies to VPG representations")
    buckets: dict[PathType, list[GridPath]] = {t: [] for t in _BUCKET_ORDER}
    for p in rep.paths:
        buckets[classify_type(p)].append(p)
    return buckets


def compute_xmed(paths: Sequence[GridPath]) -> Fraction:
    """Midpoint of the two middle corner x-coordinates, as an exact rational."""
    return _median_x(paths, upper=False)


def _median_x(paths: Sequence[GridPath], upper: bool) -> Fraction:
    """`compute_xmed`, or with upper the same taken in descending order."""
    if len(paths) < 2:
        raise TooFewPaths("median split needs at least two paths")
    xs = sorted(p.corner.x for p in paths)
    k = (len(xs) + upper) // 2
    return Fraction(xs[k - 1] + xs[k], 2)


def partition_LMR(
    paths: Iterable[GridPath], xmed: Fraction
) -> tuple[list[GridPath], list[GridPath], list[GridPath]]:
    """Partition paths into strictly-left, line-meeting and strictly-right
    groups relative to the vertical line x = xmed.  A single point of contact
    counts as meeting the line."""
    # Compare x * den with num: exact, since den > 0, and far cheaper than
    # comparing int with Fraction.  An int xmed has den 1.
    num, den = xmed.numerator, xmed.denominator
    left: list[GridPath] = []
    middle: list[GridPath] = []
    right: list[GridPath] = []
    for p in paths:
        # h_span, inlined: this loop runs once per path per recursion level.
        lo, hi = p.corner.x, p.h_tip.x
        if lo > hi:
            lo, hi = hi, lo
        if hi * den < num:
            left.append(p)
        elif lo * den > num:
            right.append(p)
        else:
            middle.append(p)
    return left, middle, right


def _exact_mis(paths: Sequence[GridPath]) -> set[str]:
    g = build_graph(Representation(Mode.VPG, tuple(paths)))
    return brute_mis(g)


def _base_case(paths: Sequence[GridPath]) -> set[str]:
    if len(paths) <= 1:
        return {p.id for p in paths}
    a, b = sorted(paths, key=lambda p: p.id)
    if vpg_adjacent(a, b):
        return {a.id}
    return {a.id, b.id}


def approx_mis_single_type(paths: Sequence[GridPath]) -> set[str]:
    """Divide-and-conquer approximation for paths of a single bend type.

    The answer is independent and at least a 1/max(1, log2 n) fraction of the
    bucket's optimum.  Raises ValueError on mixed-type input.  The middle
    group is solved with the exact desk-scale solver only when it has more
    paths than the two sides' answer, so its cap (`TooLarge`) applies only
    to a strip that could win.
    """
    paths = list(paths)
    if not paths:
        return set()
    kinds = {classify_type(p) for p in paths}
    if len(kinds) > 1:
        raise ValueError(f"mixed bend types: {sorted(k.value for k in kinds)}")
    return _approx_mis_of_type(paths, kinds.pop())


def _approx_mis_of_type(paths: list[GridPath], kind: PathType) -> set[str]:
    """`approx_mis_single_type` on paths already known to be of one type, in
    the input frame: x-mirrored types split at the upper median, the LL
    frame's lower median mapped back, and mirroring y does not matter."""
    upper = kind in _MIRRORED_X

    def solve(group: Sequence[GridPath]) -> set[str]:
        if len(group) <= 2:
            return _base_case(group)
        xmed = _median_x(group, upper)
        # Only corners left of xmed go left and only corners right of it go
        # right: at most n // 2 and n - n // 2 at the lower median, and
        # n - n // 2 and n // 2 at the upper one.
        left, middle, right = partition_LMR(group, xmed)
        side = solve(left) | solve(right)
        # The strip's answer has at most len(middle) paths, and equality
        # favors the two-sided answer, for reproducibility.
        if len(side) >= len(middle):
            return side
        central = _exact_mis(middle)
        return side if len(side) >= len(central) else central

    return solve(paths)


def approx_mis(rep: Representation) -> set[str]:
    """Best single-type answer across the four bend-type buckets.

    Guarantee: at least OPT / (4 * max(1, log2 n)) paths, always independent.
    """
    buckets = split_by_type(rep)
    best: set[str] = set()
    for kind in _BUCKET_ORDER:
        candidate = _approx_mis_of_type(buckets[kind], kind)
        if len(candidate) > len(best):
            best = candidate
    return best
