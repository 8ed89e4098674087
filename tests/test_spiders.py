from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidersearch.finder import refine_family
from spidersearch.goodness import Thresholds, enumerate_paths
from spidersearch.graph import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnm,
)
from spidersearch.spiders import enumerate_spiders, spider_layout

from bruteforce import all_spiders, unflatten
from conftest import random_small_graphs


def falling(d: int, s: int) -> int:
    out = 1
    for i in range(s):
        out *= d - i
    return max(out, 0)


class TestEnumeration:
    def test_star_11(self):
        assert sum(1 for _ in enumerate_spiders(complete_bipartite(1, 3), (1, 1))) == 6

    def test_k4_11(self):
        assert sum(1 for _ in enumerate_spiders(complete_graph(4), (1, 1))) == 24

    def test_triangle_22_empty(self):
        assert list(enumerate_spiders(cycle_graph(3), (2, 2))) == []

    def test_matches_bruteforce(self):
        for g in random_small_graphs(10, 9, seed=17, density=1.8):
            for lv in [(1, 1), (2,), (1, 2), (2, 2)]:
                got = {unflatten(sp, lv) for sp in enumerate_spiders(g, lv)}
                assert got == set(all_spiders(g, lv)), (g, lv)

    def test_leg_longer_than_recursion_limit(self):
        g = path_graph(1100)
        assert sum(1 for _ in enumerate_spiders(g, (1050,))) == 102

    def test_canonical_order_and_validity(self):
        g = random_gnm(10, 20, seed=2)
        spiders = list(enumerate_spiders(g, (2, 1)))
        assert spiders == sorted(spiders)
        assert len(spiders) == len(set(spiders))
        reference = set(all_spiders(g, (2, 1)))
        for sp in spiders:
            assert unflatten(sp, (2, 1)) in reference
            assert len(set(unflatten(sp, (2, 1)).leaf_vector)) == 2

    @given(n=st.integers(3, 9), seed=st.integers(0, 10**6),
           s=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_all_ones_closed_form(self, n, seed, s):
        m = min(2 * n, n * (n - 1) // 2)
        g = random_gnm(n, m, seed)
        total = sum(1 for _ in enumerate_spiders(g, (1,) * s))
        assert total == sum(falling(g.degree(u), s) for u in g.vertices())


def truncate(sp, lv, target):
    """The prefix truncation of `sp` to `target`, one edge off each
    longer leg per step, through the layouts' truncation getters."""
    while lv != target:
        gamma = tuple(int(x > t) for x, t in zip(lv, target))
        sp = spider_layout(lv).truncation(gamma)(sp)
        lv = tuple(x - g for x, g in zip(lv, gamma))
    return sp


class TestSubspider:
    """Truncations (subspiders) of the flat spider (0; 1 2 3; 4 5)."""

    S = (0, 1, 2, 3, 4, 5)
    LV = (3, 2)

    def test_identity(self):
        assert spider_layout(self.LV).truncation((0, 0))(self.S) == self.S
        assert truncate(self.S, self.LV, self.LV) == self.S

    def test_all_zero(self):
        z = truncate(self.S, self.LV, (0, 0))
        assert z == (0,)
        assert spider_layout((0, 0)).leaf(z) == (0, 0)

    def test_prefix(self):
        assert truncate(self.S, self.LV, (1, 1)) == (0, 1, 4)
        assert spider_layout((1, 1)).leaf((0, 1, 4)) == (1, 4)

    def test_monotone_composition(self):
        for a in [(3, 2), (2, 2), (2, 1), (1, 1)]:
            for b in [(1, 1), (1, 0), (0, 0)]:
                if all(x <= y for x, y in zip(b, a)):
                    assert truncate(truncate(self.S, self.LV, a), a, b) == \
                        truncate(self.S, self.LV, b)

    def test_target_too_long(self):
        # only legs with an edge to spare have a truncation getter, and
        # gamma truncates each leg by 0 or 1
        layout = spider_layout((0, 2))
        assert layout.truncation((0, 1))((7, 3, 4)) == (7, 3)
        for gamma in [(1, 0), (1, 1), (0, 2), (0, -1), (0,), (0, 0, 0)]:
            with pytest.raises(ValueError):
                layout.truncation(gamma)
        with pytest.raises(ValueError):
            spider_layout(self.LV).truncation((2, 0))

    def test_gamma_truncation(self):
        trunc = spider_layout(self.LV).truncation((1, 0))
        assert trunc(self.S) == (0, 1, 2, 4, 5)

    @pytest.mark.parametrize("lv", [(2, 2), (3, 1), (1, 2, 2)])
    def test_truncations_compose(self, lv):
        # truncating by gamma and then by gamma' at lv - gamma is one
        # prefix truncation by gamma + gamma', whatever the order
        g = random_gnm(9, 18, seed=4)
        spiders = list(enumerate_spiders(g, lv))
        assert spiders
        layout = spider_layout(lv)
        for sp in spiders[:50]:
            nested = unflatten(sp, lv)
            for g1 in product((0, 1), repeat=len(lv)):
                t1 = layout.truncation(g1)
                mid = tuple(x - g for x, g in zip(lv, g1))
                for g2 in product(*((0, 1) if x else (0,) for x in mid)):
                    both = spider_layout(mid).truncation(g2)(t1(sp))
                    want = tuple(x - a - b for x, a, b in zip(lv, g1, g2))
                    assert unflatten(both, want) == (nested.centre, tuple(
                        leg[:w] for leg, w in zip(nested.legs, want)))
                    assert both == truncate(sp, lv, want)


class TestCountByLeaf:
    """Leaf-vector counts through the layout's leaf getter."""

    def test_empty(self):
        leaf = spider_layout((2, 2)).leaf
        assert Counter(map(leaf, enumerate_spiders(cycle_graph(3), (2, 2)))) \
            == {}

    def test_k4_pairs(self):
        leaf = spider_layout((1, 1)).leaf
        counts = Counter(map(leaf, enumerate_spiders(complete_graph(4),
                                                     (1, 1))))
        assert all(c == 2 for c in counts.values())
        assert len(counts) == 12

    def test_conservation(self):
        g = random_gnm(9, 16, seed=8)
        spiders = list(enumerate_spiders(g, (2, 1)))
        counts = Counter(map(spider_layout((2, 1)).leaf, spiders))
        assert sum(counts.values()) == len(spiders)
        assert counts == Counter(unflatten(sp, (2, 1)).leaf_vector
                                 for sp in spiders)


class TestSpiderLayout:
    @pytest.mark.parametrize("lv", [(1,), (3,), (1, 1), (2, 1), (1, 3, 1)])
    def test_keys_match_spider_api(self, lv):
        # the leaf and truncation getters read what the nested
        # (centre, legs) form of each spider says, including the one-leg
        # layouts
        layout = spider_layout(lv)
        spiders = list(enumerate_spiders(random_gnm(9, 16, seed=8), lv))
        assert spiders
        for sp in spiders:
            assert len(sp) == 1 + sum(lv)
            nested = unflatten(sp, lv)
            assert layout.leaf(sp) == nested.leaf_vector
            for gamma in product((0, 1), repeat=len(lv)):
                trunc = layout.truncation(gamma)
                legs = tuple(leg[:len(leg) - g]
                             for leg, g in zip(nested.legs, gamma))
                want = tuple(len(leg) for leg in legs)
                assert unflatten(trunc(sp), want) == (nested.centre, legs)

    def test_built_once_per_vector(self):
        assert spider_layout((2, 2)) is spider_layout((2, 2))

    def test_negative_entries_rejected_empty_leg_leaf_is_centre(self):
        with pytest.raises(ValueError):
            spider_layout((2, -1))
        assert spider_layout((0, 2)).leaf((7, 3, 4)) == (7, 4)
        assert spider_layout((2, 0)).leaf((7, 3, 4)) == (4, 7)
        assert spider_layout((1, 0, 1)).leaf((7, 3, 4)) == (3, 7, 4)
        assert spider_layout((0,)).leaf((7,)) == (7,)
        # proper spiders still need every leg
        g = complete_bipartite(2, 3)
        with pytest.raises(ValueError):
            list(enumerate_spiders(g, (2, 0)))
        with pytest.raises(ValueError):
            list(enumerate_paths(g, 0))
        with pytest.raises(ValueError):
            refine_family([], (2, 0), Thresholds.constant(1), delta=1, L=1)
