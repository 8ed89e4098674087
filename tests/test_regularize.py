import pytest

from spidersearch.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_gnm,
)
from spidersearch.regularize import (
    extract_almost_regular,
    is_almost_regular,
    theoretical_K,
)

from conftest import random_small_graphs


class TestIsAlmostRegular:
    def test_c8_regular(self):
        assert is_almost_regular(cycle_graph(8), 1)

    def test_star(self):
        assert not is_almost_regular(complete_bipartite(1, 3), 2)

    def test_k4_minus_edge(self):
        k4 = complete_graph(4)
        g = Graph(4, k4.edges - {(0, 1)})
        assert is_almost_regular(g, 1.5)

    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert not is_almost_regular(g, 100)

    def test_edgeless(self):
        assert is_almost_regular(Graph(3, frozenset()), 1)


class TestExtract:
    def test_c8_unchanged(self):
        rep = extract_almost_regular(cycle_graph(8), 0.5)
        assert rep.vertices == tuple(range(8))
        assert rep.achieved_K == 1.0

    def test_star_plus_k4_selects_k4(self):
        # K_{1,9} on 0..9 (hub 0), disjoint K4 on 10..13
        edges = [(0, i) for i in range(1, 10)]
        edges += [(a, b) for a in range(10, 14) for b in range(a + 1, 14)]
        g = Graph.from_edges(14, edges)
        rep = extract_almost_regular(g, 0.5)
        assert rep.vertices == (10, 11, 12, 13)
        assert rep.achieved_K == 1.0

    def test_never_increases_K(self):
        g = random_gnm(200, 2000, seed=4)
        rep = extract_almost_regular(g, 0.3)
        in_K = g.max_degree() / g.min_degree()
        assert rep.achieved_K <= in_K

    def test_induced_and_reported_K(self):
        for g in random_small_graphs(15, 20, seed=21, density=2.5):
            if g.m == 0:
                continue
            rep = extract_almost_regular(g, 0.5)
            sub, idx = g.induced(rep.vertices)
            assert sub == rep.subgraph
            if sub.m:
                assert rep.achieved_K == pytest.approx(
                    sub.max_degree() / sub.min_degree()
                )

    def test_quality_idempotent(self):
        for g in random_small_graphs(10, 25, seed=33, density=3.0):
            if g.m == 0:
                continue
            rep = extract_almost_regular(g, 0.5)
            rep2 = extract_almost_regular(rep.subgraph, 0.5)
            assert rep2.achieved_K <= rep.achieved_K

    def test_regular_input_returned_whole(self):
        for g in [cycle_graph(12), complete_graph(6), complete_bipartite(3, 3)]:
            rep = extract_almost_regular(g, 0.4)
            assert rep.vertices == tuple(range(g.n))
            assert rep.subgraph == g

    def test_params_validated(self):
        with pytest.raises(ValueError, match=r"epsilon must be in \(0,1\)"):
            extract_almost_regular(cycle_graph(5), 0.0)
        with pytest.raises(ValueError, match=r"epsilon must be in \(0,1\)"):
            extract_almost_regular(cycle_graph(5), 1.0)

    def test_theoretical_K(self):
        # 20 * 2^(1/eps^2 + 1) at eps = 1 is 80
        assert theoretical_K(1.0) == pytest.approx(80.0)
        rep = extract_almost_regular(cycle_graph(5), 0.5)
        assert rep.theoretical_K == pytest.approx(20 * 2 ** (1 / 0.25 + 1))
