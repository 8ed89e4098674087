import random

import pytest

from spidersearch.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_gnm,
    subdivide,
)
from spidersearch.regularize import (
    _peel,
    extract_almost_regular,
    is_almost_regular,
    theoretical_K,
)

from bruteforce import reference_peel
from conftest import criterion5_hosts, random_small_graphs


def subdivided_kst_with_chords(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        g = subdivide(complete_bipartite(rng.randint(1, 4), rng.randint(1, 5)),
                      rng.randint(1, 4))
        chords = random_gnm(g.n, rng.randint(0, g.n), rng.randrange(2**30))
        yield Graph(g.n, g.edges | chords.edges)


def star_clique_unions(seed: int, count: int):
    """A star and a clique on shuffled ids, plus isolated vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        leaves, clique, isolated = (rng.randint(0, 12), rng.randint(0, 7),
                                    rng.randint(0, 4))
        n = 1 + leaves + clique + isolated
        ids = list(range(n))
        rng.shuffle(ids)
        hub, rest = ids[0], ids[1:]
        edges = [(hub, v) for v in rest[:leaves]]
        members = rest[leaves:leaves + clique]
        edges += [(a, b) for i, a in enumerate(members) for b in members[:i]]
        yield Graph.from_edges(n, edges)


def peel_hosts():
    yield from (g for g, _, _ in criterion5_hosts())
    yield from random_small_graphs(300, 30, seed=25, density=2.5)
    yield from subdivided_kst_with_chords(seed=26, count=150)
    yield from star_clique_unions(seed=27, count=150)


class TestPeel:
    def test_matches_one_at_a_time_reference(self):
        for g in peel_hosts():
            deg = _peel(g)
            assert list(deg) == reference_peel(g)
            sub, idx = g.induced(deg)
            assert deg == {v: sub.degree(idx[v]) for v in deg}

    def test_survivors_do_not_depend_on_vertex_ids(self):
        # the smallest-id peel removes in a different order once the ids
        # are permuted; rounds are one more order, so all must agree
        rng = random.Random(28)
        for g in peel_hosts():
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))
            back = {p: v for v, p in enumerate(perm)}
            survivors = sorted(back[p] for p in reference_peel(h))
            assert survivors == reference_peel(g)
            assert sorted(back[p] for p in _peel(h)) == survivors


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
        with pytest.raises(ValueError, match="^graph must be nonempty$"):
            extract_almost_regular(Graph(0, frozenset()), 0.5)

    def test_theoretical_K(self):
        # 20 * 2^(1/eps^2 + 1) at eps = 1 is 80
        assert theoretical_K(1.0) == pytest.approx(80.0)
        rep = extract_almost_regular(cycle_graph(5), 0.5)
        assert rep.theoretical_K == pytest.approx(20 * 2 ** (1 / 0.25 + 1))

