import hashlib
import json
import random
from itertools import combinations

import pytest

from spidersearch.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnm,
    subdivide,
)
from spidersearch.oracle import (
    SearchBudget,
    Witness,
    _iter_exact_paths,
    adding_edge_creates,
    are_isomorphic,
    canonical_form,
    contains,
    embedding_error,
    extremal_number,
    find_cycle,
    first_addable_edge,
    hill_climb_free,
    is_pattern_free,
    verify_embedding,
)
from spidersearch.patterns import instantiate, parse_pattern

from bruteforce import brute_contains
from conftest import random_small_graphs

PETERSEN = Graph.from_edges(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
])


def identity_witness_k23_2():
    """The identity embedding of subdivide(K_{2,3}, 2) in itself."""
    g = subdivide(complete_bipartite(2, 3), 2)
    # interiors 5..10 follow the sorted edges of K_{2,3}
    interior = {(0, 2): 5, (0, 3): 6, (0, 4): 7, (1, 2): 8, (1, 3): 9, (1, 4): 10}
    paths = tuple(
        (c, interior[(r, c)], r) for c in (2, 3, 4) for r in (0, 1)
    )
    w = Witness(parse_pattern("kst:2,3^2"), (0, 1, 2, 3, 4), paths)
    return g, w


class TestWitness:
    def test_json_keys_and_round_trip(self):
        _, w = identity_witness_k23_2()
        doc = json.loads(w.to_json())
        assert set(doc) == {"pattern", "roots", "paths", "route"}
        assert doc["pattern"] == "kst:2,3^2"
        assert Witness.from_json(w.to_json()) == w


class TestVerifyEmbedding:
    def test_identity_witness(self):
        g, w = identity_witness_k23_2()
        assert verify_embedding(g, w)

    def test_missing_edge(self):
        g, w = identity_witness_k23_2()
        g2 = Graph(g.n, g.edges - {(2, 5)})
        assert embedding_error(g2, w) is not None
        assert "missing edge" in embedding_error(g2, w)

    def test_shared_interior(self):
        g, w = identity_witness_k23_2()
        paths = list(w.paths)
        paths[2] = (3, 5, 0)  # reuses path 0's interior vertex
        bad = Witness(w.pattern, w.terminals, tuple(paths))
        assert not verify_embedding(Graph(g.n, g.edges | {(3, 5)}), bad)

    def test_wrong_length(self):
        g, w = identity_witness_k23_2()
        bad = Witness(w.pattern, w.terminals, w.paths[:-1] + ((4, 1),))
        assert "length" in embedding_error(g, bad)

    def test_duplicate_terminals(self):
        g, w = identity_witness_k23_2()
        bad = Witness(w.pattern, (0, 1, 2, 3, 3), w.paths)
        assert "distinct" in embedding_error(g, bad)


class TestContains:
    def test_c8_contains_k22_2(self):
        res = contains(cycle_graph(8), parse_pattern("kst:2,2^2"))
        assert res.status == "found"
        assert verify_embedding(cycle_graph(8), res.witness)

    def test_c7_absent(self):
        assert contains(cycle_graph(7), parse_pattern("kst:2,2^2")).status == "absent"

    def test_petersen_regression(self):
        # frozen: the Petersen graph has an 8-cycle
        res = contains(PETERSEN, parse_pattern("kst:2,2^2"))
        assert res.status == "found"
        assert verify_embedding(PETERSEN, res.witness)

    def test_non_cycle_template(self):
        g = subdivide(complete_bipartite(2, 3), 2)
        res = contains(g, parse_pattern("kst:2,3^2"))
        assert res.status == "found"
        assert verify_embedding(g, res.witness)

    def test_budget_is_distinct_outcome(self):
        g = random_gnm(16, 20, seed=7)
        assert contains(g, parse_pattern("kst:2,2^2")).status == "absent"
        res = contains(g, parse_pattern("kst:2,2^2"), SearchBudget(node_limit=3))
        assert res.status == "budget"

    def test_matches_naive_enumerator(self):
        pats = [parse_pattern("kst:2,2^2"), parse_pattern("cycle:6")]
        graphs = random_small_graphs(8, 9, seed=71, density=1.7)
        graphs.append(cycle_graph(8))
        graphs.append(complete_graph(5))
        for g in graphs:
            for desc in pats:
                got = contains(g, desc).status
                want = brute_contains(g, instantiate(desc))
                assert got == ("found" if want else "absent"), (g, str(desc))

    def test_spider_blowup_pattern(self):
        g = subdivide(complete_bipartite(2, 3), 2)
        res = contains(g, parse_pattern("spider:2,2*3"))
        assert res.status == "found"
        assert verify_embedding(g, res.witness)

    @pytest.mark.parametrize("host,pattern,status,nodes", [
        (cycle_graph(7), "kst:2,2^2", "absent", 6),
        (random_gnm(16, 20, seed=7), "kst:2,2^2", "absent", 99),
        (random_gnm(18, 26, seed=4), "cycle:17", "absent", 1803),
        (random_gnm(18, 30, seed=4), "cycle:12", "found", 13),
        (subdivide(complete_bipartite(2, 3), 2), "kst:2,3^2", "found", 25),
        (random_gnm(12, 20, seed=5), "kst:2,3^2", "found", 1667),
        (random_gnm(12, 16, seed=2), "spider:2,2*3", "absent", 1784),
    ])
    def test_frozen_node_counts(self, host, pattern, status, nodes):
        # budget ticks are part of the contract: --node-limit answers and
        # reported node counts must not move when the search is refactored
        res = contains(host, parse_pattern(pattern), SearchBudget(10**7))
        assert (res.status, res.nodes) == (status, nodes)

    def test_long_cycle_beyond_recursion_limit(self):
        g = cycle_graph(1500)
        res = contains(g, parse_pattern("cycle:1500"))
        assert res.status == "found"
        assert verify_embedding(g, res.witness)

    def test_long_template_path_beyond_recursion_limit(self):
        g = path_graph(1499)
        adj = [g.neighbors(v) for v in g.vertices()]
        paths = list(_iter_exact_paths(adj, 0, 1499, 1499, set()))
        assert paths == [tuple(range(1500))]


class TestFindCycle:
    def test_exhaustive(self):
        assert find_cycle(cycle_graph(8), 8) is not None
        assert find_cycle(cycle_graph(8), 7) is None
        assert find_cycle(PETERSEN, 7) is None  # girth-5 graph with no C7
        assert find_cycle(PETERSEN, 5) is not None


class TestIsomorphism:
    def test_relabeling(self):
        g = random_gnm(9, 16, seed=3)
        perm = list(range(9))
        random.Random(5).shuffle(perm)
        h = Graph.from_edges(9, [(perm[u], perm[v]) for u, v in g.edges])
        assert are_isomorphic(g, h)
        assert canonical_form(g) == canonical_form(h)

    def test_regular_non_isomorphic(self):
        c6 = cycle_graph(6)
        twotri = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                      (3, 4), (4, 5), (3, 5)])
        assert not are_isomorphic(c6, twotri)
        assert canonical_form(c6) != canonical_form(twotri)

    def test_different_sizes(self):
        assert not are_isomorphic(path_graph(2), path_graph(3))


class TestExtremal:
    def test_c8_below_size(self):
        res = extremal_number(7, parse_pattern("cycle:8"))
        assert res.value == 21 and res.exhaustive

    def test_c4_on_four(self):
        res = extremal_number(4, parse_pattern("cycle:4"))
        assert res.value == 4 and res.exhaustive
        assert is_pattern_free(res.witness_graph, parse_pattern("cycle:4"))

    def test_monotone_in_n(self):
        vals = [extremal_number(n, parse_pattern("cycle:4")).value
                for n in range(3, 7)]
        assert vals == sorted(vals)

    def test_witness_attains_value(self):
        res = extremal_number(6, parse_pattern("cycle:6"))
        assert res.witness_graph.m == res.value
        assert is_pattern_free(res.witness_graph, parse_pattern("cycle:6"))

    def test_heuristic_beyond_limit(self):
        res = extremal_number(12, parse_pattern("cycle:8"))
        assert not res.exhaustive
        assert is_pattern_free(res.witness_graph, parse_pattern("cycle:8"))


class TestHillClimb:
    def test_n7_c8_is_complete(self):
        g = hill_climb_free(7, parse_pattern("cycle:8"), 50, seed=0)
        assert g.m == 21

    def test_n8_c8_range(self):
        g = hill_climb_free(8, parse_pattern("cycle:8"), 400, seed=1)
        assert 21 <= g.m < 28
        assert is_pattern_free(g, parse_pattern("cycle:8"))

    def test_deterministic(self):
        a = hill_climb_free(10, parse_pattern("cycle:6"), 200, seed=4)
        b = hill_climb_free(10, parse_pattern("cycle:6"), 200, seed=4)
        assert a == b

    def test_edge_maximal(self):
        desc = parse_pattern("cycle:6")
        g = hill_climb_free(9, desc, 100, seed=2)
        for u in range(9):
            for v in range(u + 1, 9):
                if not g.has_edge(u, v):
                    assert adding_edge_creates(g, u, v, desc)

    # (pattern, n, seed, iterations, edges, SHA-256 of Graph.dump()): the
    # graphs the per-call exact-path search produced before distance
    # tables were shared between candidate tests
    FROZEN = [
        ("cycle:4", 12, 0, 300, 21,
         "02b21e208da1971288429b5132ca138fa86fc5ebb1a9a9db5c0f2ddb527e4979"),
        ("cycle:4", 30, 7, 1000, 71,
         "430fa7a084a30a98e19758588706d743e502987fd780c94139b56ff83327ace7"),
        ("kst:2,2^2", 16, 1, 300, 33,
         "3f007a983b420ea9ef0b4b66028ba83e7a68f264f93d61fb6e57d75321de317e"),
        ("kst:2,2^2", 40, 5, 1500, 75,
         "050f8903951ecf8e80dc11ca106ab5938caca878b664aa1d9f8a98397de104e5"),
        ("cycle:6", 25, 2, 700, 46,
         "9c3965fe90413d9cd0e1bcc51976c49b6d35aeba126a23467ca68bbb78d592c9"),
    ]

    @pytest.mark.parametrize("pattern,n,seed,iters,m,digest", FROZEN)
    def test_frozen_edge_sets(self, pattern, n, seed, iters, m, digest):
        g = hill_climb_free(n, parse_pattern(pattern), iters, seed)
        assert g.m == m
        assert hashlib.sha256(g.dump().encode()).hexdigest() == digest


def first_addable_per_pair(g, desc):
    for u, v in combinations(g.vertices(), 2):
        if not g.has_edge(u, v) and not adding_edge_creates(g, u, v, desc):
            return (u, v)
    return None


class TestFirstAddableEdge:
    PATTERNS = ("cycle:4", "cycle:5", "kst:2,2^2", "kst:2,3")

    def test_random_hosts(self):
        for g in random_small_graphs(40, 10, seed=23, density=2.0):
            for text in self.PATTERNS:
                desc = parse_pattern(text)
                assert first_addable_edge(g, desc) == \
                    first_addable_per_pair(g, desc), (g, text)

    @pytest.mark.parametrize("pattern,n,seed", [
        ("cycle:4", 14, 3), ("kst:2,2^2", 18, 4), ("kst:2,2^2", 26, 9),
    ])
    def test_hill_climbed_hosts_and_their_edge_deletions(
        self, pattern, n, seed
    ):
        desc = parse_pattern(pattern)
        g = hill_climb_free(n, desc, 200, seed)
        assert first_addable_edge(g, desc) is None
        for e in g.sorted_edges()[::3]:
            h = Graph(g.n, g.edges - {e})
            got = first_addable_edge(h, desc)
            assert got is not None and got <= e
            assert got == first_addable_per_pair(h, desc)


class TestBudgetValidation:
    def test_positive_limits(self):
        with pytest.raises(ValueError):
            SearchBudget(node_limit=0)
        with pytest.raises(ValueError):
            SearchBudget(time_limit=-1)
