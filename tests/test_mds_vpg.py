"""The reference crosses, hitting-set system, nets and the doubling pipeline."""
import random
from collections import Counter
from fractions import Fraction

import pytest

from gridpaths import geometry, mds_vpg
from gridpaths.errors import (
    NetFailure,
    NotDominating,
    NotHitting,
    NotOneString,
)
from gridpaths.exact import brute_hs, brute_mds
from gridpaths.generators import gen_vpg
from gridpaths.geometry import (
    GridPath,
    Mode,
    Representation,
    build_graph,
    is_one_string,
    vpg_adjacent,
)
from gridpaths.mds_vpg import (
    Axis,
    NetParams,
    Segment,
    approx_mds_one_string,
    axis_net,
    bg_hitting_set,
    build_set_system,
    combined_net,
    ds_to_hs,
    hs_to_ds,
    verify_hitting,
)

from conftest import all_points, build_cross, crosses_intersect, hand_crossings
from test_golden import dense_vpg


def P(pid, cx, cy, hx, vy):
    return GridPath.make(pid, cx, cy, hx, vy)


def one_string_rep(n, seed):
    return gen_vpg(n, seed, one_string=True)


def axis_mass(system, members, axis):
    return sum(
        system.weights[e] for e in members if system.universe[e].axis is axis
    )


def summed_masses(system):
    """Per axis, the sets' axis-restricted masses and the axis total, summed
    from the current weights: the masses argument of the nets."""
    w = system.weights
    return [
        ([sum(w[e] for e in members) for members in system.axis_sets[axis]],
         sum(w[e] for e in system.axis_elements[axis]))
        for axis in (Axis.H, Axis.V)
    ]


def outcome(call, *args):
    try:
        return call(*args)
    except NetFailure:
        return NetFailure


def scan_net_soundness(system, net, eps):
    """Independent exhaustive check of the combined net guarantee."""
    total = sum(system.weights)
    for members in system.sets:
        mass = sum(system.weights[e] for e in members)
        if total and Fraction(mass) >= Fraction(eps) * total:
            assert set(members) & net, "heavy set left unhit"


class TestBuildCross:
    """The paper's crosses, kept in conftest as the reference construction."""

    def test_ll_support_offsets(self):
        cross = build_cross(P("a", 0, 0, 4, 4))
        # Quarter units: one quarter past the corner, three short of the tip.
        assert (cross.h_support.anchor, cross.h_support.lo, cross.h_support.hi) == (0, -1, 13)
        assert (cross.v_support.anchor, cross.v_support.lo, cross.v_support.hi) == (0, -1, 13)
        assert not cross.degenerate

    def test_mirrored_arm(self):
        cross = build_cross(P("a", 0, 0, -4, 4))
        assert (cross.h_support.lo, cross.h_support.hi) == (-13, 1)

    def test_unit_arm(self):
        cross = build_cross(P("a", 0, 0, 1, 4))
        assert (cross.h_support.lo, cross.h_support.hi) == (-1, 1)
        assert not cross.degenerate

    def test_zero_arm_clamps_and_flags(self):
        cross = build_cross(P("a", 0, 0, 0, 4))
        assert (cross.h_support.lo, cross.h_support.hi) == (-1, -1)
        assert cross.degenerate


class TestCrossesIntersect:
    def test_own_cross(self):
        cross = build_cross(P("a", 0, 0, 4, 4))
        assert crosses_intersect(cross, cross)

    def test_far_apart(self):
        a = build_cross(P("a", 0, 0, 3, 3))
        b = build_cross(P("b", 50, 50, 53, 53))
        assert not crosses_intersect(a, b)

    def test_crossing_pair_matches_adjacency(self):
        a = P("a", 0, 0, 2, 2)
        b = P("b", 1, -1, 3, 1)
        assert vpg_adjacent(a, b)
        assert crosses_intersect(build_cross(a), build_cross(b))

    def test_touching_pair_not_intersecting(self):
        a = P("a", 0, 0, 2, 2)
        b = P("b", 2, 0, 4, 2)
        assert not vpg_adjacent(a, b)
        assert not crosses_intersect(build_cross(a), build_cross(b))

    def test_equivalence_on_random_pairs(self):
        # Excluded: touching contacts (meet without adjacency), degenerate
        # crosses, and collinear-overlap adjacency; the equivalence belongs
        # to the crossing-only regime of one-string inputs.
        rng = random.Random(41)
        checked = 0
        excluded = 0
        while checked < 4000:
            cx, cy = rng.randint(-8, 8), rng.randint(-8, 8)
            dx, dy = rng.randint(-8, 8), rng.randint(-8, 8)
            a = P("a", cx, cy, cx + rng.choice((-1, 1)) * rng.randint(1, 5),
                  cy + rng.choice((-1, 1)) * rng.randint(1, 5))
            b = P("b", dx, dy, dx + rng.choice((-1, 1)) * rng.randint(1, 5),
                  dy + rng.choice((-1, 1)) * rng.randint(1, 5))
            ca, cb = build_cross(a), build_cross(b)
            touch_only = bool(all_points(a) & all_points(b)) and not vpg_adjacent(a, b)
            overlap = hand_crossings(a, b)[1]
            if touch_only or overlap or ca.degenerate or cb.degenerate:
                excluded += 1
                continue
            assert vpg_adjacent(a, b) == crosses_intersect(ca, cb)
            checked += 1
        assert excluded < checked  # pathological contacts are the rare case


class TestBuildSetSystem:
    def test_single_path(self):
        system = build_set_system(Representation(Mode.VPG, (P("a", 0, 0, 3, 3),)))
        assert system.universe == [Segment(Axis.H, 0, 0, 3, "a"), Segment(Axis.V, 0, 0, 3, "a")]
        assert system.sets == [[0, 1]]
        assert system.weights == [1, 1]

    def test_two_disjoint_paths(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33)))
        system = build_set_system(rep)
        assert system.sets == [[0, 1], [2, 3]]

    def test_crossing_pair_sets_grow(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 2, 2), P("b", 1, -1, 3, 1)))
        system = build_set_system(rep)
        assert all(len(members) >= 3 for members in system.sets)
        assert {0, 1} <= set(system.sets[0])
        assert {2, 3} <= set(system.sets[1])

    def test_rejects_non_one_string(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 6, 6), P("b", 5, 5, -1, -1)))
        with pytest.raises(NotOneString):
            build_set_system(rep)

    def test_rejects_universe_off_the_parity_layout(self):
        # The derived axis lists take each element's axis from its parity.
        system = build_set_system(Representation(Mode.VPG, (P("a", 0, 0, 3, 3),)))
        with pytest.raises(ValueError, match="axis"):
            mds_vpg.SetSystem(
                universe=system.universe[::-1],
                sets=system.sets,
                weights=system.weights,
                path_ids=system.path_ids,
                graph=system.graph,
            )

    def test_same_axis_supports_never_share_an_edge(self):
        # On one-string inputs, distinct paths' same-axis parts overlap in at
        # most a point, so horizontal elements only ever meet vertical parts
        # of other paths.
        for seed in range(30):
            system = build_set_system(one_string_rep(10, seed))
            segs = system.universe
            for i, s in enumerate(segs):
                for t in segs[i + 1 :]:
                    if s.owner == t.owner or s.axis is not t.axis:
                        continue
                    if s.anchor != t.anchor:
                        continue
                    assert min(s.hi, t.hi) - max(s.lo, t.lo) <= 0


class TestConversions:
    def test_singleton_round_trip(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3),))
        system = build_set_system(rep)
        hs = ds_to_hs({"a"}, system)
        assert hs == {0, 1}
        assert hs_to_ds(hs, system) == {"a"}

    def test_everything(self):
        rep = one_string_rep(8, 2)
        system = build_set_system(rep)
        all_ids = set(system.path_ids)
        hs = ds_to_hs(all_ids, system)
        assert hs == set(range(len(system.universe)))
        assert hs_to_ds(hs, system) == all_ids

    def test_crossing_pair_single_endpoint(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 2, 2), P("b", 1, -1, 3, 1)))
        system = build_set_system(rep)
        hs = ds_to_hs({"a"}, system)
        assert len(hs) == 2
        assert verify_hitting(system, hs) is None

    def test_not_dominating_rejected(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33)))
        system = build_set_system(rep)
        with pytest.raises(NotDominating):
            ds_to_hs({"a"}, system)

    def test_not_hitting_rejected(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33)))
        system = build_set_system(rep)
        with pytest.raises(NotHitting):
            hs_to_ds({0}, system)

    def test_round_trip_bound_random(self):
        for seed in range(40):
            rep = one_string_rep(9, seed)
            system = build_set_system(rep)
            optimum = brute_mds(system.graph)
            hs = ds_to_hs(optimum, system)
            assert len(hs) == 2 * len(optimum)
            assert verify_hitting(system, hs) is None
            ds = hs_to_ds(hs, system)
            assert system.graph.is_dominating_set(ds)
            assert len(ds) <= len(hs)
            assert len(ds) <= 2 * len(optimum)


class TestVerifyHitting:
    def test_full_universe(self):
        system = build_set_system(one_string_rep(6, 0))
        assert verify_hitting(system, set(range(len(system.universe)))) is None

    def test_empty_candidate(self):
        system = build_set_system(one_string_rep(6, 0))
        assert verify_hitting(system, set()) == 0

    def test_first_unhit_reported(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33)))
        system = build_set_system(rep)
        assert verify_hitting(system, {0}) == 1
        assert verify_hitting(system, {2}) == 0


class TestNets:
    def test_axis_net_hits_heavy_sets(self):
        system = build_set_system(one_string_rep(12, 1))
        params = NetParams(rng_seed=5)
        for eps in (Fraction(1, 2), Fraction(1, 4)):
            net = axis_net(system, Axis.H, eps, params)
            total = sum(
                system.weights[i]
                for i, s in enumerate(system.universe)
                if s.axis is Axis.H
            )
            for members in system.sets:
                mass = axis_mass(system, members, Axis.H)
                if mass and Fraction(mass) >= eps * total:
                    assert {
                        e for e in members if system.universe[e].axis is Axis.H
                    } & net

    def test_axis_net_respects_axis(self):
        system = build_set_system(one_string_rep(10, 3))
        net = axis_net(system, Axis.V, Fraction(1, 4), NetParams(rng_seed=7))
        assert all(system.universe[e].axis is Axis.V for e in net)

    def test_eps_one_can_be_empty(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33)))
        system = build_set_system(rep)
        net = axis_net(system, Axis.H, Fraction(1), NetParams(rng_seed=1))
        assert net == set()

    def test_combined_net_soundness(self):
        for seed in range(20):
            system = build_set_system(one_string_rep(10, seed))
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                net = combined_net(system, eps, NetParams(rng_seed=seed))
                scan_net_soundness(system, net, eps)

    def test_combined_net_weighted(self):
        rng = random.Random(2)
        for seed in range(10):
            system = build_set_system(one_string_rep(10, seed))
            for i in range(len(system.weights)):
                system.weights[i] = rng.randint(1, 16)
            net = combined_net(system, Fraction(1, 4), NetParams(rng_seed=seed))
            scan_net_soundness(system, net, Fraction(1, 4))

    def test_empty_system(self):
        system = build_set_system(Representation(Mode.VPG, ()))
        assert combined_net(system, Fraction(1, 2), NetParams()) == set()

    @pytest.mark.parametrize("light, demanding", [(3, True), (2, False)])
    def test_heavy_set_boundary(self, light, demanding):
        # Three far-apart paths whose horizontal elements weigh light and the
        # rest of 30; with eps = 1/10 the bound is exactly 3 (where the float
        # product 0.1 * 30 would exceed 3).  The draw is fixed to the other
        # two elements, so the net fails exactly when the light set demands
        # a hit.
        class FixedDraw:
            def choices(self, population, weights, k):
                return [2, 4]

        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33),
                                        P("c", 60, 60, 63, 63)))
        system = build_set_system(rep)
        system.weights[:] = [light, 1, 13, 1, 17 - light, 1]
        params = NetParams()
        eps = Fraction(1, 10)
        if demanding:
            with pytest.raises(NetFailure):
                axis_net(system, Axis.H, eps, params, FixedDraw())
        else:
            assert axis_net(system, Axis.H, eps, params, FixedDraw()) == {2, 4}

    def test_invalid_eps(self):
        system = build_set_system(one_string_rep(4, 0))
        with pytest.raises(ValueError):
            axis_net(system, Axis.H, Fraction(0), NetParams())

    @pytest.mark.parametrize("seed", range(4))
    def test_passed_masses_give_the_same_net(self, seed):
        # The masses bg_hitting_set keeps stand in for summing them afresh:
        # same demanding sets, same draws, same net or the same failure.
        system = build_set_system(dense_vpg(seed, 60, 60, 12, True))
        rng = random.Random(seed)
        system.weights[:] = [rng.choice((1, 1, 2, 4, 32, 512)) for _ in system.weights]
        masses = summed_masses(system)
        params = NetParams(rng_seed=seed)
        for eps in (Fraction(1), Fraction(1, 3), Fraction(1, 16), Fraction(1, 128)):
            for axis, axis_masses in zip((Axis.H, Axis.V), masses):
                assert outcome(
                    axis_net, system, axis, eps, params, random.Random(seed), axis_masses
                ) == outcome(axis_net, system, axis, eps, params, random.Random(seed))
            assert outcome(
                combined_net, system, eps, params, random.Random(seed), masses
            ) == outcome(combined_net, system, eps, params, random.Random(seed))


class TestBgHittingSet:
    def test_single_path_system(self):
        system = build_set_system(Representation(Mode.VPG, (P("a", 0, 0, 3, 3),)))
        hs = bg_hitting_set(system, NetParams(rng_seed=0))
        assert 1 <= len(hs) <= 2
        assert verify_hitting(system, hs) is None

    def test_two_disjoint_paths_exactly_two(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33)))
        system = build_set_system(rep)
        hs = bg_hitting_set(system, NetParams(rng_seed=0))
        assert len(hs) == 2
        assert verify_hitting(system, hs) is None

    def test_corpus_ratio(self):
        worst = 0.0
        for seed in range(20):
            system = build_set_system(one_string_rep(10, seed))
            hs = bg_hitting_set(system, NetParams(rng_seed=seed))
            assert verify_hitting(system, hs) is None
            opt = len(brute_hs(system))
            worst = max(worst, len(hs) / opt)
        assert worst <= 6.0

    @pytest.mark.parametrize("failures, calls", [(1, 2), (2, 2)])
    def test_net_retry_then_universe(self, monkeypatch, failures, calls):
        # One retry after a NetFailure; a second failure in the same round
        # falls back to the whole universe, which hits every set at once.
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3), P("b", 30, 30, 33, 33)))
        system = build_set_system(rep)
        seen = []

        def flaky(system, eps, params, rng, masses):
            seen.append(eps)
            if len(seen) <= failures:
                raise NetFailure("forced")
            return {0, 2}

        monkeypatch.setattr(mds_vpg, "combined_net", flaky)
        hs = bg_hitting_set(system, NetParams(rng_seed=0))
        assert seen == [Fraction(1, 2)] * calls
        assert len(hs) == 2 and verify_hitting(system, hs) is None

    def test_one_pass_doubles_every_light_unhit_set(self, monkeypatch):
        # Four spokes cross the centre's horizontal part.  An empty net
        # misses all five sets; the one pass doubles each spoke's set in
        # turn, and the centre's shared element with it, until the centre's
        # set (last) weighs 25 of 33 and is heavy against the current
        # masses, so it is counted but left alone.
        center = P("c", 0, 0, 12, 2)
        spokes = [P(f"s{k}", 2 * k + 1, -1, 2 * k + 2, 1) for k in range(4)]
        system = build_set_system(Representation(Mode.VPG, tuple(spokes + [center])))
        assert system.sets[4] == [1, 3, 5, 7, 8, 9]
        nets = [set(), set(range(10))]
        monkeypatch.setattr(mds_vpg, "combined_net", lambda *args: nets.pop(0))
        assert bg_hitting_set(system, NetParams()) == {8}
        assert nets == []
        assert system.weights == [2, 2, 2, 2, 2, 2, 2, 2, 16, 1]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_rounds_collapse_on_a_dense_instance(self, monkeypatch, seed):
        # Doubling one unhit set per net took about two hundred nets here;
        # doubling every light unhit set per net takes a handful.
        system = build_set_system(dense_vpg(5, 150, 300, 30, True))
        real = mds_vpg.combined_net
        calls = []

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(mds_vpg, "combined_net", counted)
        hs = bg_hitting_set(system, NetParams(rng_seed=seed))
        assert verify_hitting(system, hs) is None
        assert len(calls) <= 20

    @pytest.mark.parametrize("seed", [0, 7])
    def test_kept_masses_match_the_weights(self, monkeypatch, seed):
        # Every net the loop draws gets the masses it would sum itself.
        system = build_set_system(dense_vpg(5, 150, 300, 30, True))
        real = mds_vpg.combined_net
        checked = []

        def checking(system, eps, params, rng, masses):
            assert masses == summed_masses(system)
            checked.append(max(system.weights))
            return real(system, eps, params, rng, masses)

        monkeypatch.setattr(mds_vpg, "combined_net", checking)
        bg_hitting_set(system, NetParams(rng_seed=seed))
        assert max(checked) > 1  # some net was drawn after a doubling

    def test_deterministic(self):
        rep = one_string_rep(12, 9)
        first = bg_hitting_set(build_set_system(rep), NetParams(rng_seed=3))
        second = bg_hitting_set(build_set_system(rep), NetParams(rng_seed=3))
        assert first == second


class TestPipeline:
    def test_singleton(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 3, 3),))
        assert approx_mds_one_string(rep, NetParams(rng_seed=0)) == {"a"}

    def test_star(self):
        center = P("c", 0, 0, 12, 2)
        spokes = [P(f"s{k}", 2 * k + 1, -1, 2 * k + 2, 1) for k in range(4)]
        rep = Representation(Mode.VPG, tuple([center] + spokes))
        graph = build_graph(rep)
        assert len(brute_mds(graph)) == 1
        solution = approx_mds_one_string(rep, NetParams(rng_seed=0))
        assert graph.is_dominating_set(solution)
        assert len(solution) <= 2

    def test_random_instances_dominate(self):
        for seed in range(25):
            rep = one_string_rep(10, seed)
            graph = build_graph(rep)
            solution = approx_mds_one_string(rep, NetParams(rng_seed=seed))
            assert graph.is_dominating_set(solution)
            assert len(solution) <= 6 * len(brute_mds(graph))

    def test_rejects_non_one_string(self):
        rep = Representation(Mode.VPG, (P("a", 0, 0, 6, 6), P("b", 5, 5, -1, -1)))
        with pytest.raises(NotOneString):
            approx_mds_one_string(rep, NetParams())

    def test_one_contact_sweep_per_solve(self, monkeypatch):
        # The one-string check, the set system and the graph share the
        # representation's kept pairs: one horizontal-vertical sweep and one
        # shared-edge pass per axis.
        rep = dense_vpg(3, 80, 60, 10, True)
        calls = Counter()
        for name in ("hv_contacts", "shared_edge_pairs"):
            def counted(*args, _real=getattr(geometry, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(geometry, name, counted)
        approx_mds_one_string(rep, NetParams(rng_seed=1))
        assert calls == {"hv_contacts": 1, "shared_edge_pairs": 2}
        assert build_graph(rep).edges() and is_one_string(rep)
        build_set_system(rep)
        assert calls == {"hv_contacts": 1, "shared_edge_pairs": 2}

    def test_answers_touching_contact(self):
        # a's vertical arm has zero length and its corner lies on b's
        # vertical part: the paths only touch, but a's horizontal support
        # overhangs a quarter unit across b's, so the reference crosses
        # meet.  The sets come from proper crossings only, so each holds
        # its own path's parts and the answer needs both paths.
        a, b = P("a", 0, 2, -3, 2), P("b", 0, 0, 3, 4)
        assert not vpg_adjacent(a, b)
        assert crosses_intersect(build_cross(a), build_cross(b))
        rep = Representation(Mode.VPG, (a, b))
        assert build_set_system(rep).sets == [[0, 1], [2, 3]]
        assert approx_mds_one_string(rep, NetParams()) == {"a", "b"}
