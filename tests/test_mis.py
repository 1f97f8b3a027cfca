"""Divide-and-conquer independent set approximation."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridpaths import mis
from gridpaths.errors import TooFewPaths, TooLarge
from gridpaths.generators import gen_vpg
from gridpaths.geometry import (
    GridPath,
    Mode,
    PathType,
    Representation,
    build_graph,
)
from gridpaths.exact import brute_mis
from gridpaths.mis import (
    approx_mis,
    approx_mis_single_type,
    compute_xmed,
    partition_LMR,
    split_by_type,
)

from conftest import benchmark_gen, exhaustive_max_independent, reference_mis_single_type


def P(pid, cx, cy, hx, vy):
    return GridPath.make(pid, cx, cy, hx, vy)


class TestSplitByType:
    def test_all_ll(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 1, 1), P("b", 9, 9, 11, 10)))
        buckets = split_by_type(rep)
        assert [len(buckets[t]) for t in PathType] == [2, 0, 0, 0]

    def test_empty(self):
        buckets = split_by_type(Representation(Mode.VPG, ()))
        assert all(not v for v in buckets.values())

    def test_mixed_four_singletons(self):
        rep = Representation(
            Mode.VPG,
            (
                P("ll", 0, 0, 1, 1),
                P("ul", 10, 10, 11, 9),
                P("ur", 20, 20, 19, 19),
                P("lr", 30, 30, 29, 31),
            ),
        )
        buckets = split_by_type(rep)
        assert {t: [p.id for p in v] for t, v in buckets.items()} == {
            PathType.LL: ["ll"],
            PathType.UL: ["ul"],
            PathType.UR: ["ur"],
            PathType.LR: ["lr"],
        }


class TestComputeXmed:
    def test_even_count(self):
        paths = [P(f"p{i}", x, 0, x + 1, 1) for i, x in enumerate((0, 2, 4, 6))]
        assert compute_xmed(paths) == 3

    def test_odd_count(self):
        paths = [P(f"p{i}", x, 0, x + 1, 1) for i, x in enumerate((0, 2, 10))]
        assert compute_xmed(paths) == 1

    def test_equal_neighbors(self):
        paths = [P(f"p{i}", 5, i * 3, 6, i * 3 + 1) for i in range(4)]
        assert compute_xmed(paths) == 5

    def test_too_few(self):
        with pytest.raises(TooFewPaths):
            compute_xmed([P("a", 0, 0, 1, 1)])


class TestPartitionLMR:
    def test_entirely_left(self):
        p = P("a", 0, 0, 1, 1)
        left, middle, right = partition_LMR([p], Fraction(3))
        assert ([q.id for q in left], middle, right) == (["a"], [], [])

    def test_spanning_path_in_middle(self):
        p = P("a", 0, 0, 5, 1)
        left, middle, right = partition_LMR([p], Fraction(3))
        assert [q.id for q in middle] == ["a"]

    def test_point_contact_counts_as_meeting(self):
        # A path whose span ends exactly on the line belongs to the middle.
        paths = [P(f"p{i}", x, 3 * i, x + 1, 3 * i + 1) for i, x in enumerate((0, 2, 4, 6))]
        left, middle, right = partition_LMR(paths, Fraction(3))
        assert [q.id for q in left] == ["p0"]
        assert [q.id for q in middle] == ["p1"]
        assert [q.id for q in right] == ["p2", "p3"]

    def test_separated_groups(self):
        paths = [P(f"p{i}", x, 3 * i, x + 1, 3 * i + 1) for i, x in enumerate((0, 2, 5, 7))]
        left, middle, right = partition_LMR(paths, compute_xmed(paths))
        assert [q.id for q in left] == ["p0", "p1"]
        assert middle == []
        assert [q.id for q in right] == ["p2", "p3"]

    def test_half_integer_line(self):
        # x = 7/2: a span ending at 3 is left, one starting at 4 is right, and
        # one running from 3 to 4 meets the line.
        paths = [P("l", 1, 0, 3, 1), P("m", 3, 2, 4, 3), P("r", 4, 4, 6, 5)]
        left, middle, right = partition_LMR(paths, Fraction(7, 2))
        assert [[q.id for q in g] for g in (left, middle, right)] == [["l"], ["m"], ["r"]]

    def test_integer_line(self):
        # x = 4 as a plain int: spans touching 4 from either side meet it.
        paths = [P("l", 1, 0, 3, 1), P("a", 2, 2, 4, 3), P("p", 4, 4, 4, 5),
                 P("b", 4, 6, 7, 7), P("r", 5, 8, 6, 9)]
        left, middle, right = partition_LMR(paths, 4)
        assert [[q.id for q in g] for g in (left, middle, right)] == [
            ["l"], ["a", "p", "b"], ["r"]]

    def test_is_a_partition(self):
        rng = random.Random(5)
        for _ in range(100):
            rep = gen_vpg(10, rng.randrange(10**6))
            xmed = compute_xmed(rep.paths)
            left, middle, right = partition_LMR(rep.paths, xmed)
            assert len(left) + len(middle) + len(right) == len(rep.paths)
            assert {p.id for p in left} | {p.id for p in middle} | {
                p.id for p in right
            } == {p.id for p in rep.paths}


@st.composite
def single_type_paths(draw):
    """n >= 2 LL paths (the frame of the lower median) with arms of
    length 0-4, their corners on few columns so that many share one."""
    column = st.integers(0, draw(st.integers(0, 6)))
    arm = st.integers(0, 4)
    paths = []
    for i in range(draw(st.integers(2, 30))):
        cx, cy = draw(column), draw(st.integers(-5, 5))
        paths.append(P(f"p{i}", cx, cy, cx + draw(arm), cy + draw(arm)))
    return paths


@settings(max_examples=300, deadline=None)
@given(single_type_paths())
def test_median_split_shrinks(paths):
    # The recursion's termination rests on this: both sides of the split
    # are smaller than the group.
    n = len(paths)
    left, _, right = partition_LMR(paths, compute_xmed(paths))
    assert len(left) <= n // 2
    assert len(right) <= n - n // 2


@st.composite
def one_type_paths(draw):
    """Up to 60 paths of one bend type, arms of length 0-6, corners on a
    window of columns narrow enough that many share one.  A zero-length arm
    classifies as pointing right or up, so only those arms may be empty."""
    sx, sy = draw(st.sampled_from(((1, 1), (1, -1), (-1, 1), (-1, -1))))
    column = st.integers(0, draw(st.integers(0, 40)))
    h_arm, v_arm = st.integers(int(sx < 0), 6), st.integers(int(sy < 0), 6)
    paths = []
    for i in range(draw(st.integers(0, 60))):
        cx, cy = draw(column), draw(st.integers(-10, 10))
        hx, vy = cx + draw(h_arm), cy + draw(v_arm)
        paths.append(P(f"p{i}", sx * cx, sy * cy, sx * hx, sy * vy))
    return paths


@settings(max_examples=300, deadline=None)
@given(one_type_paths())
def test_matches_reference_recursion(paths):
    # The reference compares with Fraction and solves every strip; the
    # library compares scaled integers and skips strips that cannot win.
    try:
        expected = reference_mis_single_type(paths)
    except TooLarge:
        assume(False)
    assert approx_mis_single_type(paths) == expected


class TestApproxMisSingleType:
    def test_two_disjoint_paths(self):
        paths = [P("a", 0, 0, 1, 1), P("b", 5, 5, 6, 6)]
        assert approx_mis_single_type(paths) == {"a", "b"}

    def test_two_crossing_paths(self):
        paths = [P("a", 0, 0, 2, 2), P("b", 1, -1, 3, 1)]
        assert len(approx_mis_single_type(paths)) == 1

    def test_star_instance(self):
        center = P("c", 0, 0, 12, 2)
        spokes = [P(f"s{k}", 2 * k + 1, -1, 2 * k + 2, 1) for k in range(5)]
        paths = [center] + spokes
        rep = Representation(Mode.VPG, tuple(paths))
        graph = build_graph(rep)
        assert len(brute_mis(graph)) == 5
        solution = approx_mis_single_type(paths)
        assert graph.is_independent_set(solution)
        assert len(solution) >= math.ceil(5 / math.log2(6))

    def test_mixed_types_rejected(self):
        with pytest.raises(ValueError):
            approx_mis_single_type([P("a", 0, 0, 1, 1), P("b", 5, 5, 6, 4)])

    def test_reflected_frames_agree(self):
        # The same configuration mirrored into each bend type must give
        # equal-size answers.
        rng = random.Random(9)
        for _ in range(30):
            base = []
            xs = rng.sample(range(30), 8)
            ys = rng.sample(range(30), 8)
            for i in range(8):
                base.append((xs[i], ys[i], rng.randint(1, 5), rng.randint(1, 5)))
            sizes = set()
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                paths = [
                    P(f"p{i}", sx * cx, sy * cy, sx * (cx + h), sy * (cy + v))
                    for i, (cx, cy, h, v) in enumerate(base)
                ]
                sizes.add(len(approx_mis_single_type(paths)))
            assert len(sizes) == 1

    def test_x_mirrored_type_splits_at_upper_median(self):
        # LR corners at x = 2, 3, 4: the LL frame's lower median is -7/2, so
        # the line is x = 7/2, which only p1 meets.  The lower median in
        # input coordinates, x = 5/2, is met by p0 and p1 and gives {p1, p2}.
        paths = [P("p0", 2, 4, -1, 6), P("p1", 3, 2, 1, 6), P("p2", 4, 0, 1, 4)]
        assert approx_mis_single_type(paths) == {"p0", "p1"}
        assert reference_mis_single_type(paths) == {"p0", "p1"}


class TestStripRefusal:
    def test_strip_that_cannot_win_is_not_solved(self, monkeypatch):
        # Ten points left of x = 135/2, thirty-six right of it, and 26
        # disjoint horizontal paths meeting it: the 46 points win, so the
        # over-cap strip is never handed to the exact solver.
        def fail(graph):
            raise AssertionError("strip solved")

        monkeypatch.setattr(mis, "brute_mis", fail)
        paths = ([P(f"a{i}", i, 1000 + i, i, 1000 + i) for i in range(10)]
                 + [P(f"m{i}", 10 + i, 2 * i, 70, 2 * i) for i in range(26)]
                 + [P(f"b{i}", 100 + i, 500 + i, 100 + i, 500 + i) for i in range(36)])
        solution = approx_mis_single_type(paths)
        assert solution == {p.id for p in paths if p.id[0] != "m"}
        graph = build_graph(Representation(Mode.VPG, tuple(paths)))
        assert graph.is_independent_set(solution)

    def test_over_cap_strip_that_could_win_is_refused(self):
        # Every path meets x = 0 and both sides are empty.
        paths = [P(f"m{i}", 0, 2 * i, 70, 2 * i) for i in range(26)]
        with pytest.raises(TooLarge):
            approx_mis_single_type(paths)


class TestApproxMis:
    def test_empty(self):
        assert approx_mis(Representation(Mode.VPG, ())) == set()

    def test_builds_no_path(self, monkeypatch):
        # The recursion reads the paths as given; it makes no reflected copy.
        paths = benchmark_gen().vpg_mixed(random.Random(2), 200, 200, 31)
        rep = Representation(Mode.VPG, tuple(P(*p) for p in paths))
        built = []
        post_init = GridPath.__post_init__

        def counting(path):
            built.append(path.id)
            post_init(path)

        monkeypatch.setattr(GridPath, "__post_init__", counting)
        assert approx_mis(rep)
        assert built == []

    def test_disjoint_mixed_types(self):
        paths = []
        for i, (dx, dy) in enumerate(((1, 1), (1, -1), (-1, -1), (-1, 1))):
            for j in range(3):
                base = 20 * (4 * j + i)
                paths.append(P(f"p{i}_{j}", base, base, base + dx, base + dy))
        rep = Representation(Mode.VPG, tuple(paths))
        solution = approx_mis(rep)
        assert len(solution) >= len(paths) / 4
        assert build_graph(rep).is_independent_set(solution)

    def test_ratio_bound_small_instances(self):
        for seed in range(40):
            n = 4 + seed % 9
            rep = gen_vpg(n, seed, one_string=True)
            graph = build_graph(rep)
            solution = approx_mis(rep)
            assert graph.is_independent_set(solution)
            opt = len(brute_mis(graph))
            assert len(solution) >= opt / (4 * max(1, math.log2(n)))

    def test_matches_exhaustive_oracle_on_tiny(self):
        for seed in range(15):
            rep = gen_vpg(6, seed)
            graph = build_graph(rep)
            assert len(brute_mis(graph)) == len(exhaustive_max_independent(graph))

    def test_order_independence(self):
        rng = random.Random(3)
        for seed in range(25):
            rep = gen_vpg(10, seed)
            first = approx_mis(rep)
            paths = list(rep.paths)
            rng.shuffle(paths)
            second = approx_mis(Representation(Mode.VPG, tuple(paths)))
            assert first == second
