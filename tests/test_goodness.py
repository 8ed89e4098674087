import math
import sys

import pytest

from spidersearch import spiders
from spidersearch.goodness import (
    Thresholds,
    canonical_path,
    classify_paths,
    classify_spiders,
    enumerate_paths,
    f_value,
    not_good_ratio,
)
from spidersearch.graph import (
    Graph,
    complete_bipartite,
    cycle_graph,
    path_graph,
    random_gnm,
)

from bruteforce import (
    brute_classify_paths,
    brute_classify_spiders,
    brute_f,
    unflatten,
)
from conftest import random_small_graphs

BIG = 10**9


class TestFValue:
    def test_paper_examples(self):
        assert f_value(1, 7) == 7
        assert f_value(2, 2) == 262145
        assert f_value(3, 1) == 524289

    def test_f2_closed_form(self):
        for L in (1, 2, 3, 5):
            assert f_value(2, L) == 1 + L**18

    def test_matches_naive_recursion(self):
        for L in (1, 2, 3):
            for ell in range(1, 6):
                assert f_value(ell, L) == brute_f(ell, L)

    def test_ceiling_of_L(self):
        assert f_value(1, 2.3) == 3

    def test_nondecreasing_in_L(self):
        for ell in range(1, 7):
            assert f_value(ell, 1) <= f_value(ell, 2) <= f_value(ell, 3)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            f_value(0, 1)
        with pytest.raises(ValueError):
            f_value(2, 0.5)


class TestThresholds:
    def test_modes(self):
        assert Thresholds.paper_recursion(2).f(2) == 262145
        assert Thresholds.constant(7).f(99) == 7
        assert Thresholds.custom([4, 9]).f(2) == 9

    @pytest.mark.parametrize("L", [1, 2, 3.5])
    def test_paper_saturates_past_maxsize(self, L):
        # exact up to the first value above sys.maxsize, math.inf from there
        f = Thresholds.paper_recursion(L).f
        exact = [f_value(ell, L) for ell in range(1, 5)]
        first_big = next(i for i, v in enumerate(exact) if v > sys.maxsize)
        want = exact[:first_big] + [math.inf] * (8 - first_big)
        assert [f(ell) for ell in range(1, 9)] == want

    def test_custom_missing_level(self):
        with pytest.raises(ValueError):
            Thresholds.custom([4]).f(2)

    def test_describe(self):
        assert Thresholds.constant(3).spelling == "const:3"
        assert Thresholds.custom([4, 9]).spelling == "custom:4,9"
        assert Thresholds.paper_recursion(2.0).spelling == "paper"

    def test_validation(self):
        with pytest.raises(ValueError):
            Thresholds.constant(-1)
        with pytest.raises(ValueError):
            Thresholds.paper_recursion(0.5)
        with pytest.raises(ValueError):
            Thresholds.custom([])

    def test_parse(self):
        paper = Thresholds.parse("paper", 2)
        assert paper.f(2) == 262145 and paper.spelling == "paper"
        const = Thresholds.parse("const:3", 2)
        assert [const.f(ell) for ell in (1, 5, 99)] == [3, 3, 3]
        assert const.spelling == "const:3"
        custom = Thresholds.parse("custom:4,9", 2)
        assert (custom.f(1), custom.f(2)) == (4, 9)
        with pytest.raises(ValueError):
            custom.f(3)

    @pytest.mark.parametrize("text", [
        "const:", "custom:", "custom:1,x", "foo", "const:1,2", "custom:1,-2",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            Thresholds.parse(text, 2)

    @pytest.mark.parametrize("thr", [
        Thresholds.paper_recursion(2.5), Thresholds.constant(3),
        Thresholds.custom([4, 9, 0]),
    ], ids=["paper", "const", "custom"])
    def test_describe_parses_back(self, thr):
        again = Thresholds.parse(thr.spelling, 2.5)
        assert again.spelling == thr.spelling
        assert [again.f(ell) for ell in (1, 2, 3)] == \
            [thr.f(ell) for ell in (1, 2, 3)]

    def test_custom_describe_parses_back(self):
        thr = Thresholds.parse("custom:4,9,0", 1)
        again = Thresholds.parse(thr.spelling, 1)
        assert thr.spelling == "custom:4,9,0"
        assert [again.f(ell) for ell in (1, 2, 3)] == [4, 9, 0]


class TestClassifyPaths:
    def test_edges_always_good(self):
        g = random_gnm(10, 20, seed=1)
        cls = classify_paths(g, 3, Thresholds.constant(0))
        lvl1 = cls.levels[1]
        assert lvl1.total == g.m
        assert lvl1.good == lvl1.admissible and len(lvl1.good) == g.m

    def test_path_graph_all_good(self):
        cls = classify_paths(path_graph(4), 4, Thresholds.constant(1))
        for ell, lvl in cls.levels.items():
            assert lvl.admissible == lvl.good
            assert all(c == 1 for c in lvl.counts.values())

    def test_k2q_hub_paths(self):
        g = complete_bipartite(2, 5)  # hubs 0,1
        cls = classify_paths(g, 2, Thresholds.constant(3))
        lvl = cls.levels[2]
        hub_paths = {p for p in lvl.admissible if {p[0], p[-1]} == {0, 1}}
        assert len(hub_paths) == 5 and lvl.counts[(0, 1)] == 5
        assert hub_paths & lvl.good == set()
        assert all(p in lvl.good for p in lvl.admissible - hub_paths)
        relaxed = classify_paths(g, 2, Thresholds.constant(5))
        assert relaxed.levels[2].good == relaxed.levels[2].admissible

    def test_constant_zero_kills_higher_levels(self):
        g = random_gnm(9, 18, seed=3)
        cls = classify_paths(g, 3, Thresholds.constant(0))
        assert cls.levels[2].good == set()
        assert cls.levels[3].admissible == set()

    def test_constant_huge_everything_good(self):
        g = random_gnm(9, 18, seed=4)
        cls = classify_paths(g, 3, Thresholds.constant(BIG))
        for ell in (2, 3):
            lvl = cls.levels[ell]
            assert lvl.total == len(lvl.admissible) == len(lvl.good)

    def test_good_implies_admissible(self):
        for g in random_small_graphs(10, 10, seed=41):
            cls = classify_paths(g, 4, Thresholds.constant(2))
            for lvl in cls.levels.values():
                assert lvl.good <= lvl.admissible

    def test_matches_bruteforce(self):
        for g in random_small_graphs(10, 9, seed=42):
            for thr in (Thresholds.constant(1), Thresholds.constant(2),
                        Thresholds.paper_recursion(1)):
                cls = classify_paths(g, 4, thr)
                ref = brute_classify_paths(g, 4, thr.f)
                for ell in range(1, 5):
                    assert cls.levels[ell].admissible == ref[ell]["admissible"]
                    assert cls.levels[ell].good == ref[ell]["good"]
                    assert cls.levels[ell].counts == ref[ell]["counts"]

    def test_per_length_threshold_monotone(self):
        # raising one level's threshold (others fixed) never shrinks that
        # level's good set
        for g in random_small_graphs(8, 9, seed=43, density=2.0):
            lo = classify_paths(g, 3, Thresholds.custom([BIG, 1, 2]))
            hi = classify_paths(g, 3, Thresholds.custom([BIG, 2, 2]))
            assert lo.levels[2].good <= hi.levels[2].good


class TestClassifySpiders:
    def test_base_vector_all_admissible(self):
        g = random_gnm(8, 14, seed=6)
        paths = classify_paths(g, 2, Thresholds.constant(0))
        cls = classify_spiders(g, (1, 1), Thresholds.constant(0), paths)
        lvl = cls.levels[(1, 1)]
        assert len(lvl.admissible) == lvl.total

    def test_k2q_hub_leaf_counts(self):
        g = complete_bipartite(2, 5)
        thr = Thresholds.constant(4)
        paths = classify_paths(g, 1, thr)
        cls = classify_spiders(g, (1, 1), thr, paths)
        lvl = cls.levels[(1, 1)]
        assert lvl.counts[(0, 1)] == 5
        assert all(
            sp not in lvl.good for sp in lvl.admissible
            if unflatten(sp, (1, 1)).leaf_vector == (0, 1)
        )
        assert classify_spiders(
            g, (1, 1), Thresholds.constant(5), paths
        ).levels[(1, 1)].good == lvl.admissible

    def test_empty_tables_without_spiders(self):
        g = cycle_graph(3)
        paths = classify_paths(g, 2, Thresholds.constant(BIG))
        cls = classify_spiders(g, (2, 2), Thresholds.constant(BIG), paths)
        assert cls.levels[(2, 2)].total == 0

    def test_good_implies_admissible(self):
        for g in random_small_graphs(8, 9, seed=51):
            thr = Thresholds.constant(2)
            paths = classify_paths(g, 2, thr)
            cls = classify_spiders(g, (2, 2), thr, paths)
            for lvl in cls.levels.values():
                assert lvl.good <= lvl.admissible

    def test_matches_bruteforce(self):
        for g in random_small_graphs(8, 8, seed=52):
            for thr in (Thresholds.constant(1), Thresholds.constant(3)):
                paths = classify_paths(g, 3, thr)
                ref_paths = brute_classify_paths(g, 3, thr.f)
                cls = classify_spiders(g, (2, 2), thr, paths)
                ref = brute_classify_spiders(g, (2, 2), thr.f, ref_paths)
                for vec, lvl in cls.levels.items():
                    got = {unflatten(sp, vec) for sp in lvl.admissible}
                    assert got == ref[vec]["admissible"], (g, vec)
                    gotg = {unflatten(sp, vec) for sp in lvl.good}
                    assert gotg == ref[vec]["good"], (g, vec)
                    assert lvl.counts == ref[vec]["counts"]

    @pytest.mark.parametrize("lv", [(3,), (3, 1), (1, 3, 1)])
    def test_matches_bruteforce_leg_shapes(self, lv):
        # one leg (whose leaf key comes from a single index), a long leg
        # before a unit leg, and a long leg between two unit legs; the
        # hosts include isolated vertices
        hosts = random_small_graphs(8, 9, seed=53) + [
            Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5),
                                 (2, 5), (5, 6)]),
        ]
        assert any(g.min_degree() == 0 for g in hosts)
        for g in hosts:
            for thr in (Thresholds.constant(1), Thresholds.constant(2)):
                paths = classify_paths(g, 3, thr)
                ref = brute_classify_spiders(
                    g, lv, thr.f, brute_classify_paths(g, 3, thr.f))
                cls = classify_spiders(g, lv, thr, paths)
                assert set(cls.levels) == set(ref)
                for vec, lvl in cls.levels.items():
                    for name in ("admissible", "good"):
                        got = {unflatten(sp, vec)
                               for sp in getattr(lvl, name)}
                        assert got == ref[vec][name], (g, vec, name)
                    assert lvl.counts == ref[vec]["counts"], (g, vec)

    def test_builds_only_the_getters_it_reads(self, monkeypatch):
        # a leaf getter per sub-vector and at most s unit truncations each;
        # every truncation of every sub-vector would be 2^8 * 2^8 + 2^8
        s, built, real = 8, [], spiders._picker
        monkeypatch.setattr(
            spiders, "_picker", lambda idx: built.append(idx) or real(idx))
        spiders.spider_layout.cache_clear()
        g, thr = cycle_graph(8), Thresholds.constant(1)
        classify_spiders(g, (2,) * s, thr, classify_paths(g, 2, thr))
        assert 2 ** s <= len(built) <= (s + 1) * 2 ** s

    def test_requires_path_tables(self):
        g = cycle_graph(5)
        paths = classify_paths(g, 1, Thresholds.constant(1))
        with pytest.raises(ValueError):
            classify_spiders(g, (2, 2), Thresholds.constant(1), paths)


class TestNotGoodRatio:
    def test_all_good_is_zero(self):
        g = complete_bipartite(2, 5)
        thr = Thresholds.constant(BIG)
        cls = classify_spiders(g, (1, 1), thr, classify_paths(g, 1, thr))
        assert not_good_ratio(g, (1, 1), cls) == 0

    def test_k25_exact_value(self):
        g = complete_bipartite(2, 5)
        thr = Thresholds.constant(1)
        cls = classify_spiders(g, (1, 1), thr, classify_paths(g, 1, thr))
        # every (1,1)-spider shares its leaf vector with another one
        assert not_good_ratio(g, (1, 1), cls) == pytest.approx(50 / (7 * 4))

    def test_isolated_vertex_inf(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        thr = Thresholds.constant(1)
        cls = classify_spiders(g, (1, 1), thr, classify_paths(g, 1, thr))
        assert not_good_ratio(g, (1, 1), cls) == float("inf")


class TestEnumeratePaths:
    def test_cycle_counts(self):
        g = cycle_graph(8)
        assert sum(1 for _ in enumerate_paths(g, 1)) == 8
        assert sum(1 for _ in enumerate_paths(g, 2)) == 8

    def test_canonical(self):
        assert canonical_path((3, 1, 0)) == (0, 1, 3)
        for p in enumerate_paths(random_gnm(8, 14, seed=9), 3):
            assert p[0] < p[-1]

    def test_longer_than_recursion_limit(self):
        assert sum(1 for _ in enumerate_paths(path_graph(1100), 1050)) == 51
