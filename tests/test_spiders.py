import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidersearch.graph import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_gnm,
)
from spidersearch.spiders import (
    Spider,
    count_by_leaf,
    enumerate_spiders,
    gamma_truncation,
    spider_layout,
    subspider,
    validate_spider,
)

from bruteforce import all_spiders
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
                got = {(S.centre, S.legs) for S in enumerate_spiders(g, lv)}
                assert got == set(all_spiders(g, lv)), (g, lv)

    def test_canonical_order_and_validity(self):
        g = random_gnm(10, 20, seed=2)
        spiders = list(enumerate_spiders(g, (2, 1)))
        assert spiders == sorted(spiders)
        assert len(spiders) == len(set(spiders))
        for S in spiders:
            validate_spider(g, S)
            assert len(set(S.leaf_vector)) == len(S.legs)

    @given(n=st.integers(3, 9), seed=st.integers(0, 10**6),
           s=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_all_ones_closed_form(self, n, seed, s):
        m = min(2 * n, n * (n - 1) // 2)
        g = random_gnm(n, m, seed)
        total = sum(1 for _ in enumerate_spiders(g, (1,) * s))
        assert total == sum(falling(g.degree(u), s) for u in g.vertices())


class TestSubspider:
    def setup_method(self):
        self.S = Spider(0, ((1, 2, 3), (4, 5)))

    def test_identity(self):
        assert subspider(self.S, (3, 2)) == self.S

    def test_all_zero(self):
        z = subspider(self.S, (0, 0))
        assert z.legs == ((), ())
        assert z.leaf_vector == (0, 0)

    def test_prefix(self):
        assert subspider(self.S, (1, 1)).legs == ((1,), (4,))

    def test_monotone_composition(self):
        for a in [(3, 2), (2, 2), (2, 1), (1, 1)]:
            for b in [(1, 1), (1, 0), (0, 0)]:
                if all(x <= y for x, y in zip(b, a)):
                    assert subspider(subspider(self.S, a), b) == subspider(self.S, b)

    def test_target_too_long(self):
        with pytest.raises(ValueError):
            subspider(self.S, (4, 2))

    def test_gamma_truncation(self):
        t = gamma_truncation(self.S, (1, 0))
        assert t.legs == ((1, 2), (4, 5))


class TestCountByLeaf:
    def test_empty(self):
        assert count_by_leaf(iter([])) == {}

    def test_k4_pairs(self):
        counts = count_by_leaf(enumerate_spiders(complete_graph(4), (1, 1)))
        assert all(c == 2 for c in counts.values())
        assert len(counts) == 12

    def test_conservation(self):
        g = random_gnm(9, 16, seed=8)
        spiders = list(enumerate_spiders(g, (2, 1)))
        counts = count_by_leaf(iter(spiders))
        assert sum(counts.values()) == len(spiders)


class TestSpiderLayout:
    @pytest.mark.parametrize("lv", [(1,), (3,), (1, 1), (2, 1), (1, 3, 1)])
    def test_keys_match_spider_api(self, lv):
        # the flat keys partition spiders exactly as leaf_vector and
        # gamma_truncation do, including the one-leg layouts
        layout = spider_layout(lv)
        spiders = list(enumerate_spiders(random_gnm(9, 16, seed=8), lv))
        assert spiders
        for S in spiders:
            sp = layout.flatten(S)
            assert len(sp) == 1 + sum(lv)
            assert layout.to_spider(sp) == S
            assert layout.leaf(sp) == S.leaf_vector
        for gamma, trunc in layout.truncations.items():
            by_key = {}
            for S in spiders:
                by_key.setdefault(trunc(layout.flatten(S)), set()).add(
                    gamma_truncation(S, gamma))
            assert all(len(v) == 1 for v in by_key.values())
            assert len(by_key) == len(
                {gamma_truncation(S, gamma) for S in spiders})

    def test_built_once_per_vector(self):
        assert spider_layout((2, 2)) is spider_layout((2, 2))

    def test_rejects_empty_legs(self):
        with pytest.raises(ValueError):
            spider_layout((2, 0))
