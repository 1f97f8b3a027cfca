"""Greedy line MDS and the restricted-family validators."""
import random

import pytest

from gridpaths.errors import GeneralPositionViolation, WrongMode
from gridpaths.exact import brute_mds
from gridpaths.generators import gen_epg_double_crossing, gen_epg_vertical_crossing
from gridpaths.geometry import GridPath, Mode, Representation, build_graph
from gridpaths.mds_epg import (
    check_non_containment,
    detect_horizontal_line,
    detect_vertical_line,
    greedy_line_mds,
    is_double_crossing,
    is_vertical_crossing,
    order_paths,
)

from conftest import find_disjoint_optimum, split_neighbors


def P(pid, cx, cy, hx, vy):
    return GridPath.make(pid, cx, cy, hx, vy)


class TestOrderPaths:
    def test_bottom_to_top_then_left_to_right(self):
        a = P("a", 0, 0, 1, 1)
        b = P("b", 5, 0, 6, 1)
        c = P("c", 0, 1, 1, 2)
        assert [p.id for p in order_paths([c, b, a])] == ["a", "b", "c"]

    def test_single(self):
        a = P("a", 0, 0, 1, 1)
        assert order_paths([a]) == [a]

    def test_permutation_invariant(self):
        rng = random.Random(1)
        paths = [P(f"p{i}", rng.randint(-9, 9), 2 * i, rng.randint(-9, 9) + 20, 2 * i + 3)
                 for i in range(8)]
        shuffled = paths[:]
        rng.shuffle(shuffled)
        assert order_paths(paths) == order_paths(shuffled)

    def test_shared_corner_rejected(self):
        with pytest.raises(GeneralPositionViolation):
            order_paths([P("a", 0, 0, 1, 1), P("b", 0, 0, 2, 2)])


class TestGreedyLineMds:
    def test_single_path(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 3, 3),))
        assert greedy_line_mds(rep) == {"a"}

    def test_first_of_an_adjacent_pair_wins(self):
        a = P("a", 0, 0, 4, 3)
        b = P("b", 2, 0, 6, 3)
        rep = Representation(Mode.EPG, (b, a))
        assert greedy_line_mds(rep) == {"a"}

    def test_non_adjacent_pair_keeps_both(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 1, 1), P("b", 9, 9, 10, 10)))
        assert greedy_line_mds(rep) == {"a", "b"}

    def test_wrong_mode(self):
        with pytest.raises(WrongMode):
            greedy_line_mds(Representation(Mode.VPG, ()))

    def test_always_dominates(self):
        # Feasibility needs no line assumptions, only weak general position.
        rng = random.Random(2)
        for trial in range(50):
            paths = []
            corners = set()
            while len(paths) < 9:
                cx, cy = rng.randint(-6, 6), rng.randint(-6, 6)
                if (cx, cy) in corners:
                    continue
                corners.add((cx, cy))
                paths.append(
                    P(f"p{len(paths)}", cx, cy,
                      cx + rng.choice((-1, 1)) * rng.randint(1, 5),
                      cy + rng.choice((-1, 1)) * rng.randint(1, 5))
                )
            rep = Representation(Mode.EPG, tuple(paths))
            graph = build_graph(rep)
            assert graph.is_dominating_set(greedy_line_mds(rep))

    def test_permutation_invariant(self):
        rng = random.Random(3)
        for seed in range(20):
            rep = gen_epg_double_crossing(10, seed)
            first = greedy_line_mds(rep)
            paths = list(rep.paths)
            rng.shuffle(paths)
            second = greedy_line_mds(Representation(Mode.EPG, tuple(paths)))
            assert first == second


class TestDetectVerticalLine:
    def test_common_intersection(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 6, 1), P("b", 4, 3, 9, 4)))
        assert detect_vertical_line(rep) == 4

    def test_disjoint_spans(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 1, 1), P("b", 5, 3, 8, 4)))
        assert detect_vertical_line(rep) is None

    def test_empty(self):
        assert detect_vertical_line(Representation(Mode.EPG, ())) is None


class TestDetectHorizontalLine:
    def test_common_intersection(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 1, 6), P("b", 3, 4, 4, 9)))
        assert detect_horizontal_line(rep) == 4

    def test_touching_spans(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 1, 5), P("b", 3, 9, 4, 5)))
        assert detect_horizontal_line(rep) == 5

    def test_disjoint_spans(self):
        rep = Representation(Mode.EPG, (P("a", 0, 0, 1, 1), P("b", 3, 5, 4, 8)))
        assert detect_horizontal_line(rep) is None

    def test_empty(self):
        assert detect_horizontal_line(Representation(Mode.EPG, ())) is None


class TestIsDoubleCrossing:
    def test_conforming_path(self):
        rep = Representation(Mode.EPG, (P("a", -2, -3, 1, 2),))
        assert is_double_crossing(rep, 0, 0)

    def test_vertical_part_stops_short(self):
        rep = Representation(Mode.EPG, (P("a", -2, -3, 1, -1),))
        assert not is_double_crossing(rep, 0, 0)

    def test_empty_vacuous(self):
        assert is_double_crossing(Representation(Mode.EPG, ()), 0, 0)

    def test_non_ll_rejected(self):
        rep = Representation(Mode.EPG, (P("a", 2, 2, -1, -1),))  # UR type
        assert not is_double_crossing(rep, 0, 0)


class TestIsVerticalCrossing:
    def test_conforming(self):
        rep = Representation(Mode.EPG, (P("a", -2, 0, 1, 2), P("b", -1, 5, 3, 8)))
        assert is_vertical_crossing(rep, 0)

    def test_short_span(self):
        rep = Representation(Mode.EPG, (P("a", -4, 0, -2, 2),))
        assert not is_vertical_crossing(rep, 0)

    def test_empty_vacuous(self):
        assert is_vertical_crossing(Representation(Mode.EPG, ()), 0)


class TestCheckNonContainment:
    def test_containment_detected(self):
        a = P("a", 0, 0, 1, 3)
        b = P("b", 0, 1, 2, 2)  # vertical part inside a's, sharing an edge
        rep = Representation(Mode.EPG, (a, b))
        assert not check_non_containment(rep)

    def test_proper_overlap_ok(self):
        a = P("a", 0, 0, 1, 3)
        b = P("b", 0, 2, 2, 5)
        rep = Representation(Mode.EPG, (a, b))
        assert check_non_containment(rep)

    def test_different_columns_vacuous(self):
        a = P("a", 0, 0, 1, 3)
        b = P("b", 4, 1, 5, 2)
        rep = Representation(Mode.EPG, (a, b))
        assert check_non_containment(rep)


class TestRatioGuarantees:
    def test_double_crossing_two_approx(self):
        for seed in range(40):
            rep = gen_epg_double_crossing(10, seed)
            assert is_double_crossing(rep, rep.hline, rep.vline)
            graph = build_graph(rep)
            greedy = greedy_line_mds(rep)
            assert graph.is_dominating_set(greedy)
            opt = brute_mds(graph)
            assert len(greedy) <= 2 * len(opt)

    def test_double_crossing_witness(self):
        # When a disjoint optimum exists, each of its members is adjacent to
        # at most two chosen paths.
        for seed in range(30):
            rep = gen_epg_double_crossing(9, seed)
            graph = build_graph(rep)
            greedy = greedy_line_mds(rep)
            opt = brute_mds(graph)
            disjoint = find_disjoint_optimum(graph, greedy, len(opt))
            if disjoint is None:
                continue
            for v in disjoint:
                assert len(set(graph.neighbors(v)) & greedy) <= 2

    def test_vertical_crossing_three_approx(self):
        for seed in range(40):
            rep = gen_epg_vertical_crossing(10, seed)
            assert is_vertical_crossing(rep, rep.vline)
            assert check_non_containment(rep)
            graph = build_graph(rep)
            greedy = greedy_line_mds(rep)
            assert graph.is_dominating_set(greedy)
            opt = brute_mds(graph)
            assert len(greedy) <= 3 * len(opt)

    def test_vertical_crossing_witnesses(self):
        for seed in range(30):
            rep = gen_epg_vertical_crossing(9, seed)
            graph = build_graph(rep)
            greedy = greedy_line_mds(rep)
            opt = brute_mds(graph)
            disjoint = find_disjoint_optimum(graph, greedy, len(opt))
            if disjoint is None:
                continue
            for v in disjoint:
                h_nb, v_nb = split_neighbors(rep, v)
                assert len(h_nb & greedy) <= 1
                assert len(v_nb & greedy) <= 2
