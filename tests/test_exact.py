"""Brute-force oracles and the seeded generators."""
import random

import pytest

from gridpaths.errors import Infeasible, TooLarge
from gridpaths.exact import brute_hs, brute_mds, brute_mis, brute_vc
from gridpaths.generators import (
    gen_degree3_graph,
    gen_epg_double_crossing,
    gen_epg_vertical_crossing,
    gen_vpg,
)
from gridpaths.geometry import IntersectionGraph, Mode, build_graph, is_one_string, weak_general_position
from gridpaths.mds_epg import check_non_containment, is_double_crossing, is_vertical_crossing
from gridpaths.mds_vpg import build_set_system
from gridpaths.reduction import SimpleGraph

from conftest import (
    exhaustive_max_independent,
    exhaustive_min_dominating,
    exhaustive_min_hitting_set,
    exhaustive_min_vertex_cover,
)
from test_golden import dense_vpg


def graph_from(n, edges):
    verts = [f"v{i}" for i in range(n)]
    return IntersectionGraph.from_edges(verts, [(f"v{a}", f"v{b}") for a, b in edges])


class TestBruteMis:
    def test_empty_graph(self):
        g = graph_from(3, [])
        assert len(brute_mis(g)) == 3

    def test_triangle(self):
        g = graph_from(3, [(0, 1), (1, 2), (0, 2)])
        assert len(brute_mis(g)) == 1

    def test_five_cycle(self):
        g = graph_from(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert len(brute_mis(g)) == 2

    def test_cap(self):
        g = graph_from(26, [])
        with pytest.raises(TooLarge):
            brute_mis(g)
        assert len(brute_mis(g, cap=26)) == 26

    def test_matches_exhaustive(self):
        for seed in range(20):
            g = build_graph(gen_vpg(7, seed))
            assert len(brute_mis(g)) == len(exhaustive_max_independent(g))


class TestBruteMds:
    def test_triangle(self):
        g = graph_from(3, [(0, 1), (1, 2), (0, 2)])
        assert len(brute_mds(g)) == 1

    def test_empty_graph(self):
        g = graph_from(3, [])
        assert len(brute_mds(g)) == 3

    def test_star(self):
        g = graph_from(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert brute_mds(g) == {"v0"}

    def test_cap(self):
        with pytest.raises(TooLarge):
            brute_mds(graph_from(26, []))

    def test_matches_exhaustive(self):
        for seed in range(20):
            g = build_graph(gen_vpg(8, seed))
            assert len(brute_mds(g)) == len(exhaustive_min_dominating(g))


class TestBruteHs:
    def _system(self, universe_size, sets):
        # A minimal stand-in with the attributes brute_hs needs.
        class Stub:
            pass

        stub = Stub()
        stub.universe = list(range(universe_size))
        stub.sets = [sorted(s) for s in sets]
        return stub

    def test_beats_the_greedy_seed(self):
        # Element 2 hits the most sets, but the only optimum is {0, 1}.
        sets = [{0, 2}, {0, 2}, {0, 3}, {1, 2}, {1, 2}, {1, 4}]
        assert brute_hs(self._system(5, sets)) == {0, 1}

    def test_empty_set_is_infeasible(self):
        with pytest.raises(Infeasible):
            brute_hs(self._system(3, [{0, 1}, set()]))

    def test_one_string_systems_match_exhaustive(self):
        for seed in range(12):
            n = 6 + seed % 5
            rep = dense_vpg(seed, n, 8, 8, True, min_arm=3)
            assert build_graph(rep).edges()
            system = build_set_system(rep)
            expected = exhaustive_min_hitting_set(len(system.universe), system.sets)
            assert len(brute_hs(system)) == len(expected)

    def test_random_systems_match_exhaustive(self):
        # Each system has a singleton set and an element in no set.
        for seed in range(40):
            rng = random.Random(seed)
            u = rng.randint(3, 12)
            sets = [{rng.randrange(u - 1)}]
            sets += [set(rng.sample(range(u - 1), rng.randint(1, min(3, u - 1))))
                     for _ in range(rng.randint(1, 12))]
            rng.shuffle(sets)
            system = self._system(u, sets)
            hs = brute_hs(system)
            assert u - 1 not in hs
            assert len(hs) == len(exhaustive_min_hitting_set(u, sets))

    def test_one_set(self):
        assert len(brute_hs(self._system(2, [{0, 1}]))) == 1

    def test_two_disjoint_sets(self):
        assert len(brute_hs(self._system(4, [{0, 1}, {2, 3}]))) == 2

    def test_triangle_of_sets(self):
        assert len(brute_hs(self._system(3, [{0, 1}, {1, 2}, {0, 2}]))) == 2

    def test_caps(self):
        with pytest.raises(TooLarge):
            brute_hs(self._system(51, [{0}]))
        with pytest.raises(TooLarge):
            brute_hs(self._system(4, [{0}] * 26))

    def test_real_system(self):
        system = build_set_system(gen_vpg(8, 5, one_string=True))
        hs = brute_hs(system)
        for members in system.sets:
            assert hs & set(members)


class TestBruteVc:
    def test_single_edge(self):
        assert len(brute_vc(SimpleGraph(2, ((0, 1),)))) == 1

    def test_triangle(self):
        assert len(brute_vc(SimpleGraph(3, ((0, 1), (1, 2), (0, 2))))) == 2

    def test_path_three(self):
        assert len(brute_vc(SimpleGraph(3, ((0, 1), (1, 2))))) == 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            brute_vc(SimpleGraph(21, ()))

    def test_degree3_graphs_match_exhaustive(self):
        for seed in range(30):
            n = 4 + seed % 9
            g = gen_degree3_graph(n, random.Random(seed).randint(0, 3 * n // 2), seed)
            assert len(brute_vc(g)) == len(exhaustive_min_vertex_cover(g))

    def test_dense_graphs_match_exhaustive(self):
        for seed in range(30):
            rng = random.Random(seed)
            n, p = 1 + seed % 12, 0.2 + 0.2 * (seed % 4)
            g = SimpleGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < p))
            assert len(brute_vc(g)) == len(exhaustive_min_vertex_cover(g))


class TestGenVpg:
    def test_empty(self):
        assert gen_vpg(0, 1).paths == ()

    def test_deterministic(self):
        assert gen_vpg(5, 7) == gen_vpg(5, 7)

    def test_one_string_flag(self):
        for seed in range(15):
            rep = gen_vpg(12, seed, one_string=True)
            assert is_one_string(rep)

    def test_mode(self):
        assert gen_vpg(3, 0).mode is Mode.VPG


class TestGenEpg:
    def test_double_crossing_validates(self):
        for seed in range(15):
            rep = gen_epg_double_crossing(8, seed)
            assert rep.mode is Mode.EPG
            assert weak_general_position(rep)
            assert is_double_crossing(rep, rep.hline, rep.vline)

    def test_vertical_crossing_validates(self):
        for seed in range(15):
            rep = gen_epg_vertical_crossing(8, seed)
            assert weak_general_position(rep)
            assert is_vertical_crossing(rep, rep.vline)
            assert check_non_containment(rep)

    def test_single_path(self):
        assert len(gen_epg_double_crossing(1, 0).paths) == 1
        assert len(gen_epg_vertical_crossing(1, 0).paths) == 1

    def test_deterministic(self):
        assert gen_epg_double_crossing(9, 3) == gen_epg_double_crossing(9, 3)
        assert gen_epg_vertical_crossing(9, 3) == gen_epg_vertical_crossing(9, 3)


class TestGenDegree3:
    def test_triangle_possible(self):
        g = gen_degree3_graph(3, 3, 1)
        assert g.m == 3
        assert g.max_degree() <= 3

    def test_single_edge(self):
        g = gen_degree3_graph(2, 1, 0)
        assert g.edges == ((0, 1),)

    def test_degree_bound_always(self):
        for seed in range(25):
            g = gen_degree3_graph(8, 12, seed)
            assert g.max_degree() <= 3
            assert g.m == 12

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            gen_degree3_graph(4, 7, 0)
        with pytest.raises(Infeasible):
            gen_degree3_graph(2, 3, 0)

    def test_deterministic(self):
        assert gen_degree3_graph(7, 9, 4) == gen_degree3_graph(7, 9, 4)
