import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidersearch.graph import (
    BalanceUndecidable,
    Graph,
    GraphParseError,
    RootedPattern,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_balanced,
    path_graph,
    pattern_density,
    random_gnm,
    rooted_blowup,
    rooted_density,
    spider_balance_criterion,
    spider_pattern,
    subdivide,
)
from spidersearch.oracle import are_isomorphic

from conftest import random_small_graphs


class TestLoad:
    def test_path_on_three(self):
        g = Graph.load("3 2\n0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert g.degrees() == [1, 2, 1]

    def test_loop_rejected(self):
        with pytest.raises(GraphParseError, match="line 2"):
            Graph.load("2 1\n0 0")

    def test_c4(self):
        g = Graph.load("4 4\n0 1\n1 2\n2 3\n3 0")
        assert g.degrees() == [2, 2, 2, 2]

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            Graph.load("3 2\n0 1\n1 0")

    def test_out_of_range(self):
        with pytest.raises(GraphParseError, match="out of range"):
            Graph.load("3 1\n0 5")

    def test_malformed_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            Graph.load("three two\n0 1")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphParseError):
            Graph.load("3 2\n0 1")

    def test_leading_comment(self):
        g = Graph.load("# a triangle\n3 3\n0 1\n1 2\n2 0\n")
        assert g == cycle_graph(3)

    def test_interleaved_and_trailing_comments(self):
        g = Graph.load("3 2\n0 1\n# between edges\n1 2  # trailing\n")
        assert g == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_blank_lines(self):
        g = Graph.load("\n3 2\n\n0 1\n\n1 2\n\n")
        assert g == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_errors_name_text_line_numbers(self):
        with pytest.raises(GraphParseError, match="line 5: loop"):
            Graph.load("# header next\n3 2\n0 1\n# comment\n1 1\n")
        with pytest.raises(GraphParseError, match="line 3: header"):
            Graph.load("# one\n\nthree two\n0 1\n")

    def test_dump_round_trip(self):
        for g in random_small_graphs(10, 12, seed=5):
            assert Graph.load(g.dump()) == g


class TestGenerators:
    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6

    def test_random_full_is_complete(self):
        assert random_gnm(10, 45, seed=3) == complete_graph(10)

    def test_random_deterministic(self):
        assert random_gnm(50, 100, seed=9) == random_gnm(50, 100, seed=9)

    def test_random_m_too_large(self):
        with pytest.raises(ValueError):
            random_gnm(4, 7, seed=0)


class TestSubdivide:
    def test_c4_once_per_edge(self):
        g = subdivide(complete_bipartite(2, 2), 2)
        assert g.n == 8 and g.m == 8
        assert are_isomorphic(g, cycle_graph(8))

    def test_identity(self):
        g = random_gnm(8, 12, seed=1)
        assert subdivide(g, 1) == g

    def test_k33(self):
        g = subdivide(complete_bipartite(3, 3), 2)
        assert g.n == 15 and g.m == 18

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            subdivide(path_graph(2), 0)

    @given(
        n=st.integers(2, 10),
        density=st.floats(0, 1),
        seed=st.integers(0, 10**6),
        k=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_law(self, n, density, seed, k):
        m = int(density * n * (n - 1) // 2)
        f = random_gnm(n, m, seed)
        g = subdivide(f, k)
        assert g.n == f.n + (k - 1) * f.m
        assert g.m == k * f.m


class TestBlowup:
    def test_spider_22_t3(self):
        g = rooted_blowup(spider_pattern((2, 2)), 3)
        assert g.n == 11
        assert are_isomorphic(g, subdivide(complete_bipartite(2, 3), 2))

    def test_t1_identity(self):
        pat = spider_pattern((1, 2, 3))
        assert are_isomorphic(rooted_blowup(pat, 1), pat.graph)

    def test_invalid_roots(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            RootedPattern(g, frozenset())
        with pytest.raises(ValueError):
            RootedPattern(g, frozenset({0, 1, 2}))

    def test_blowup_matches_subdivision(self):
        # full s,t,k <= 3 grid is exercised by the acceptance suite
        for s, t, k in [(2, 2, 2), (3, 2, 2), (2, 3, 3)]:
            a = rooted_blowup(spider_pattern((k,) * s), t)
            b = subdivide(complete_bipartite(s, t), k)
            assert are_isomorphic(a, b)


class TestDensity:
    def test_single_vertex(self):
        pat = spider_pattern((2, 2))
        assert rooted_density(pat, [pat.graph.n - 2]) == Fraction(2)

    def test_spider_22_full(self):
        assert pattern_density(spider_pattern((2, 2))) == Fraction(4, 3)

    def test_uniform_spider_formula(self):
        for s in range(1, 5):
            for k in range(1, 5):
                rho = pattern_density(spider_pattern((k,) * s))
                assert rho == Fraction(s * k, s * (k - 1) + 1)

    def test_rejects_roots_and_empty(self):
        pat = spider_pattern((2, 2))
        with pytest.raises(ValueError):
            rooted_density(pat, [])
        with pytest.raises(ValueError):
            rooted_density(pat, [min(pat.roots)])

    def test_relabel_invariance(self):
        rng = random.Random(7)
        for g in random_small_graphs(8, 8, seed=11, density=2.0):
            if g.m == 0 or g.n < 3:
                continue
            roots = frozenset([0])
            pat = RootedPattern(g, roots)
            perm = list(range(g.n))
            rng.shuffle(perm)
            g2 = Graph.from_edges(
                g.n, [(perm[u], perm[v]) for u, v in g.edges]
            )
            pat2 = RootedPattern(g2, frozenset(perm[r] for r in roots))
            sub = pat.non_roots()[: max(1, g.n // 2)]
            sub2 = [perm[v] for v in sub]
            assert rooted_density(pat, sub) == rooted_density(pat2, sub2)


class TestBalance:
    def test_criterion_examples(self):
        assert spider_balance_criterion((1, 2, 3))
        assert not spider_balance_criterion((1, 1, 5))
        for s in range(1, 5):
            for k in range(1, 5):
                assert spider_balance_criterion((k,) * s)

    def test_exhaustive_matches_criterion_samples(self):
        for lengths in [(1,), (3,), (1, 1), (2, 3), (1, 1, 5), (1, 2, 3),
                        (2, 2, 2), (1, 1, 1, 4), (4, 1, 1)]:
            assert is_balanced(spider_pattern(lengths)) == \
                spider_balance_criterion(lengths), lengths

    def test_undecidable_beyond_limit(self):
        with pytest.raises(BalanceUndecidable):
            is_balanced(spider_pattern((22,)))
