import hashlib
import json
import random
from itertools import combinations, product

import pytest

from spidersearch import oracle
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
    EXHAUSTIVE_N_LIMIT,
    BudgetExhausted,
    SearchBudget,
    Witness,
    _EdgeCheck,
    _anchors,
    _distances_to,
    _template_search,
    _twin_classes,
    _walk_paths,
    _witness,
    adding_edge_creates,
    are_isomorphic,
    canonical_form,
    contains,
    embedding_error,
    extremal_number,
    first_unblocked_pair,
    hill_climb_free,
    is_pattern_free,
    verify_embedding,
)
from spidersearch.patterns import (
    Template,
    as_cycle_length,
    compile_template,
    cycle_order,
    instantiate,
    parse_pattern,
    requirement_chains,
)

from bruteforce import (
    brute_contains,
    first_addable_edge,
    reference_branch_and_bound,
    reference_extremal,
    reference_find_cycle,
    reference_template_search,
)
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

    @pytest.mark.parametrize("forge, extra, message", [
        (lambda w: w._replace(terminals=(0, 1, 2, 3, 11)), set(),
         "terminal image out of range"),
        (lambda w: w._replace(paths=w.paths[:-1]), set(),
         "expected 6 paths, got 5"),
        (lambda w: w._replace(paths=((2, 2, 0), *w.paths[1:])), set(),
         "path 0: repeated vertex"),
        # 2-1-0 is a path once (0,1) and (1,2) are edges, through root 1
        (lambda w: w._replace(paths=((2, 1, 0), *w.paths[1:])),
         {(0, 1), (1, 2)}, "path 0: interior touches a terminal image"),
    ], ids=["terminal-range", "path-count", "repeat-in-path",
            "interior-terminal"])
    def test_malformed_witness_message(self, forge, extra, message):
        g, w = identity_witness_k23_2()
        host = Graph(g.n, g.edges | extra)
        assert embedding_error(host, forge(w)) == message


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

    @pytest.mark.parametrize("pattern", ["kst:2,3^2", "arbitrary:12:0-1"])
    def test_pattern_larger_than_host_is_absent_at_once(self, pattern):
        g = cycle_graph(10)
        res = contains(g, parse_pattern(pattern), SearchBudget(1))
        assert (res.status, res.nodes) == ("absent", 0)
        # the gate is the template search's own, so the edge check's
        # anchored templates (one edge fewer, as many vertices) meet it too
        adj = [g.neighbors(v) for v in g.vertices()]
        tmpl = compile_template(parse_pattern(pattern))
        anchored, _, x, y = _anchors(tmpl)[0]
        for t, pins in ((tmpl, None), (anchored, {x: 0, y: 1})):
            budget = SearchBudget()
            assert _template_search(adj, t, budget, pins) is None
            assert budget.nodes == 0

    def test_isolated_pattern_vertices_take_smallest_free_vertices(self):
        desc = parse_pattern("arbitrary:5:1-3")
        g = path_graph(5)
        res = contains(g, desc)
        assert res.status == "found" and verify_embedding(g, res.witness)
        assert res.witness.terminals == (2, 0, 3, 1, 4)

    # a pattern vertex on no path has degree 0, so the size gate counts a
    # host vertex for it; the leaf never runs short of free vertices

    @pytest.mark.parametrize("edges", [
        es for r in (1, 2, 3) for es in combinations(combinations(range(3), 2), r)
    ])
    def test_loose_vertex_found_on_three_vertices(self, edges):
        g = Graph(3, frozenset(edges))
        res = contains(g, parse_pattern("arbitrary:3:0-1"))
        assert res.status == "found" and verify_embedding(g, res.witness)

    @pytest.mark.parametrize("host", [complete_graph(2), Graph(3, frozenset())])
    def test_loose_vertex_absent_from_the_sizes_alone(self, host):
        res = contains(host, parse_pattern("arbitrary:3:0-1"))
        assert (res.status, res.nodes) == ("absent", 0)

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

    # the witnesses of the found rows below, terminals and paths, keyed by
    # pattern and node count: they pin the order in which neighbours are read
    FROZEN_WITNESSES = {
        ("cycle:12", 115): (
            (0, 7, 2, 9, 4, 10, 3, 5, 8, 1, 12, 6),
            ((0, 7), (7, 2), (2, 9), (9, 4), (4, 10), (10, 3), (3, 5),
             (5, 8), (8, 1), (1, 12), (12, 6), (6, 0)),
        ),
        ("kst:2,3^2", 7): (
            (0, 1, 2, 3, 4),
            ((2, 5, 0), (2, 8, 1), (3, 6, 0), (3, 9, 1), (4, 7, 0),
             (4, 10, 1)),
        ),
        ("kst:2,3^2", 160): (
            (0, 10, 2, 4, 6),
            ((2, 11, 0), (2, 5, 10), (4, 8, 0), (4, 3, 10), (6, 1, 0),
             (6, 9, 10)),
        ),
        # middles 2 and 10 of this witness were moved there by augmenting
        # paths of more than one step, and trying held middles in another
        # order, at the first step or a later one, changes it
        ("kst:3,3^2", 331): (
            (1, 5, 6, 0, 3, 9),
            ((0, 4, 1), (0, 10, 5), (0, 15, 6), (3, 7, 1), (3, 14, 5),
             (3, 11, 6), (9, 13, 1), (9, 2, 5), (9, 12, 6)),
        ),
    }

    @pytest.mark.parametrize("host,pattern,status,nodes", [
        (cycle_graph(7), "kst:2,2^2", "absent", 6),
        (random_gnm(16, 20, seed=7), "kst:2,2^2", "absent", 99),
        (random_gnm(18, 26, seed=4), "cycle:17", "absent", 1803),
        (random_gnm(18, 30, seed=4), "cycle:12", "found", 115),
        (subdivide(complete_bipartite(2, 3), 2), "kst:2,3^2", "found", 7),
        (random_gnm(12, 20, seed=5), "kst:2,3^2", "found", 160),
        # too few vertices of degree 2 or more: the size gate answers
        (random_gnm(12, 16, seed=2), "spider:2,2*3", "absent", 0),
        (random_gnm(12, 20, seed=2), "spider:2,2*3", "absent", 278),
        # C8-free, and kst:2,3^2 contains a C8
        (hill_climb_free(12, parse_pattern("cycle:8"), 100, seed=0).graph,
         "kst:2,3^2", "absent", 0),
        (hill_climb_free(13, parse_pattern("cycle:8"), 100, seed=0).graph,
         "kst:2,3^2", "absent", 1291),
        # a witness placed by multi-step augmenting paths
        (random_gnm(16, 44, seed=5), "kst:3,3^2", "found", 331),
    ])
    def test_frozen_node_counts(self, host, pattern, status, nodes):
        # budget ticks are part of the contract: the counts pin the search
        # order, twin-ordered on the template route with length-2 paths
        # matched, so --node-limit answers and reported node counts move
        # only when that order does
        res = contains(host, parse_pattern(pattern), SearchBudget(10**7))
        assert (res.status, res.nodes) == (status, nodes)
        if status == "found":
            w = res.witness
            assert (w.terminals, w.paths) == self.FROZEN_WITNESSES[
                pattern, nodes]

    def test_long_cycle_beyond_recursion_limit(self):
        g = cycle_graph(1500)
        res = contains(g, parse_pattern("cycle:1500"))
        assert res.status == "found"
        assert verify_embedding(g, res.witness)

    def test_many_requirements_beyond_recursion_limit(self):
        # 1,600 requirements, more than the recursion limit, on a host that
        # is the pattern itself
        g = complete_bipartite(40, 40)
        res = contains(g, parse_pattern("kst:40,40"))
        assert res.status == "found"
        assert embedding_error(g, res.witness) is None

    def test_size_gate_counts_only_vertices_of_the_pattern_degree(self):
        # K_10 plus a pendant vertex has 11 vertices, as many as
        # kst:2,3^2, but only 10 of degree 2 or more, its smallest degree
        g = Graph(11, complete_graph(10).edges | {(0, 10)})
        desc = parse_pattern("kst:2,3^2")
        res = contains(g, desc, SearchBudget(1))
        assert (res.status, res.nodes) == ("absent", 0)
        # the anchored check reads the degrees of the host plus the pair:
        # adding (9, 0) to K_9 with pendants 9 and 10 gives vertex 9 a
        # second neighbour, but vertex 10 still has one
        h = Graph(11, complete_graph(9).edges | {(1, 9), (2, 10)})
        adj = [set(h.neighbors(v)) for v in h.vertices()]
        for anchored, _, x, y in _anchors(compile_template(desc)):
            for pins in ({x: 9, y: 0}, {x: 0, y: 9}):
                budget = SearchBudget()
                assert _template_search(adj, anchored, budget, pins) is None
                assert budget.nodes == 0
        assert not _EdgeCheck(desc).start(h).creates(9, 0)
        # a pin needs a degree of its own: K_11 plus an isolated vertex has
        # vertices enough, but the pair's edge is all the isolated one gets
        lone = Graph(12, complete_graph(11).edges)
        adj = [set(lone.neighbors(v)) for v in lone.vertices()]
        for anchored, _, x, y in _anchors(compile_template(desc)):
            for pins in ({x: 11, y: 0}, {x: 0, y: 11}):
                budget = SearchBudget()
                assert _template_search(adj, anchored, budget, pins) is None
                assert budget.nodes == 0

    def test_long_template_path_beyond_recursion_limit(self):
        g = path_graph(1499)
        adj = [g.neighbors(v) for v in g.vertices()]
        dist = _distances_to(adj, 1499, 1499, set())
        paths = list(_walk_paths(adj, 0, 1499, 1499, dist, SearchBudget()))
        assert paths == [tuple(range(1500))]


class TestTemplateSearchReference:
    """The search against the unpruned one it replaced
    (`bruteforce.reference_template_search`).  spider:1,2*2 and spider:1,3*2
    are cycles, so `contains` routes them to the cycle route; the template
    search is called directly to cover patterns whose roots are not twins.
    Twin ordering alone keeps the unordered search's witness; matching the
    middles of length-2 paths keeps only its status.
    """

    PATTERNS = (
        "kst:2,3", "kst:3,3", "spider:1,3*2",
        "arbitrary:5:0-1;0-2;1-3;2-3;3-4",  # terminals 1 and 2 are twins
        "arbitrary:6:0-1;1-2;2-3;3-4;1-5;2-5",  # no two terminals are twins
    )
    MATCHED_PATTERNS = (  # with length-2 requirements
        "kst:2,3^2", "kst:3,2^2", "spider:2,2*3", "spider:1,2*2",
        "spider:1,2,3", "spider:2,2,2",
    )

    @staticmethod
    def reference(g, tmpl, node_limit=None):
        try:
            img, paths, ticks = reference_template_search(g, tmpl, node_limit)
        except BudgetExhausted:
            return "budget", None, None
        if img is None:
            return "absent", None, ticks
        return "found", (img, paths), ticks

    @staticmethod
    def pruned(g, tmpl, node_limit=None):
        budget = SearchBudget(node_limit)
        adj = [g.neighbors(v) for v in g.vertices()]
        try:
            sol = _template_search(adj, tmpl, budget)
        except BudgetExhausted:
            return "budget", None, None
        return ("absent" if sol is None else "found"), sol, budget.nodes

    @staticmethod
    def hosts():
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(6, 13)
            yield random_gnm(n, rng.randint(n, 2 * n), rng.randrange(2**30))

    def test_same_witness_in_no_more_nodes(self):
        statuses, unlocked = set(), 0
        for g in self.hosts():
            for text in self.PATTERNS:
                tmpl = compile_template(parse_pattern(text))
                assert all(ln != 2 for *_, ln in tmpl.requirements)
                want, got = self.reference(g, tmpl), self.pruned(g, tmpl)
                assert got[:2] == want[:2], (g, text)
                assert got[2] <= want[2], (g, text)
                statuses.add(want[0])
                # a node limit the unpruned search met still suffices
                want = self.reference(g, tmpl, 200)
                got = self.pruned(g, tmpl, 200)
                if want[0] != "budget":
                    assert got[:2] == want[:2], (g, text)
                elif got[0] != "budget":
                    unlocked += 1
        assert statuses == {"found", "absent"}
        assert unlocked > 0

    def test_matched_middles_same_status_and_a_valid_witness(self):
        statuses, ticks, reference_ticks = set(), 0, 0
        for g in self.hosts():
            for text in self.MATCHED_PATTERNS:
                desc = parse_pattern(text)
                tmpl = compile_template(desc)
                assert any(ln == 2 for *_, ln in tmpl.requirements)
                want = self.reference(g, tmpl)
                statuses.add(want[0])
                reference_ticks += want[2]
                for limit in (None, 200):
                    status, sol, nodes = self.pruned(g, tmpl, limit)
                    if limit is None:
                        assert status == want[0], (g, text)
                        ticks += nodes
                    if status == "found":
                        w = _witness(desc, tmpl, *sol)
                        assert embedding_error(g, w) is None, (g, text)
                    elif status == "absent":
                        assert want[0] == "absent", (g, text)
        assert statuses == {"found", "absent"}
        assert ticks < reference_ticks

    def test_two_paths_cannot_share_their_only_middle(self):
        # two disjoint 2-edge paths: every pair of leaves of the star
        # K_{1,4} has the centre as its one common neighbour, and the edge
        # 5-6 has none
        g = Graph(7, complete_bipartite(1, 4).edges | {(5, 6)})
        desc = parse_pattern("arbitrary:4:0-1;2-3^2")
        assert contains(g, desc).status == "absent"
        assert not brute_contains(g, instantiate(desc))
        g2 = Graph(8, g.edges | {(1, 7), (2, 7)})  # a second middle
        res = contains(g2, desc)
        assert res.status == "found"
        assert embedding_error(g2, res.witness) is None

    @pytest.mark.parametrize("length", [1, 3])
    def test_a_taken_middle_is_rerouted(self, length):
        # vertex 2 is the first middle of 0-?-1; then terminal 2 (a
        # neighbour of 1) or the 3-edge path 0-2-4-1 takes it, and the
        # 2-edge path moves to vertex 3
        tmpl = Template(2, ((0, 1, 2), (0, 1, 3))) if length == 3 else \
            Template(3, ((0, 1, 2), (2, 1, 1)))
        g = Graph.from_edges(5, [(0, 2), (1, 2), (0, 3), (1, 3), (2, 4),
                                 (1, 4)])
        adj = [g.neighbors(v) for v in g.vertices()]
        img, paths = _template_search(adj, tmpl, SearchBudget(), {0: 0, 1: 1})
        assert paths[0] == (0, 3, 1)
        if length == 3:
            assert paths[1] == (0, 2, 4, 1)
        else:
            assert (img[2], paths[1]) == (2, (2, 1))
        # without the second middle, whatever takes vertex 2 leaves the
        # 2-edge path none (terminal 2 could still take vertex 4, so its
        # edge to 1 goes too)
        blocked = {(1, 3)} if length == 3 else {(1, 3), (1, 4)}
        h = Graph(g.n, g.edges - blocked)
        adj = [h.neighbors(v) for v in h.vertices()]
        assert _template_search(adj, tmpl, SearchBudget(), {0: 0, 1: 1}) is None

    @pytest.mark.parametrize("kind", [tuple, dict.fromkeys])
    def test_two_step_augmenting_path(self, kind):
        # requirement 2's only middle, vertex 4, is held by requirement 0,
        # whose other middle, vertex 5, is held by requirement 1: both move
        # along one augmenting path
        tmpl = Template(6, ((0, 1, 2), (2, 3, 2), (4, 5, 2)))
        pins = {0: 0, 1: 1, 2: 2, 3: 3, 4: 7, 5: 8}
        g = Graph.from_edges(9, [(0, 4), (1, 4), (7, 4), (8, 4), (0, 5),
                                 (1, 5), (2, 5), (3, 5), (2, 6), (3, 6)])
        adj = [kind(g.neighbors(v)) for v in g.vertices()]
        budget = SearchBudget().start()
        img, paths = _template_search(adj, tmpl, budget, pins)
        assert img == pins
        assert paths == {0: (0, 5, 1), 1: (2, 6, 3), 2: (7, 4, 8)}
        assert budget.nodes == 4
        # without edge 3-6, requirement 1 has no middle but vertex 5
        h = Graph(g.n, g.edges - {(3, 6)})
        adj = [kind(h.neighbors(v)) for v in h.vertices()]
        assert _template_search(adj, tmpl, SearchBudget(), pins) is None


class TestCycleRoute:
    """`contains` finds a cycle-shaped pattern by the edge check's path walk
    (`_EdgeCheck.path`); `bruteforce.reference_find_cycle` is the separate
    cycle search it replaced.
    """

    PATTERNS = (
        "cycle:3", "cycle:4", "cycle:5", "cycle:6", "cycle:7", "cycle:8",
        "kst:2,2^2", "spider:1,2*2", "cycle:3^2",
    )

    def test_exhaustive(self):
        def status(g, length):
            return contains(g, parse_pattern(f"cycle:{length}")).status

        assert status(cycle_graph(8), 8) == "found"
        assert status(cycle_graph(8), 7) == "absent"
        assert status(PETERSEN, 7) == "absent"  # girth-5 graph with no C7
        assert status(PETERSEN, 5) == "found"

    @staticmethod
    def reference(g, desc, node_limit):
        """(status, nodes, witness) as `contains` reported them when the
        old cycle search's cycle was laid onto the pattern."""
        budget = SearchBudget(node_limit)
        try:
            cyc = reference_find_cycle(g, as_cycle_length(desc), budget)
        except BudgetExhausted:
            return "budget", budget.nodes, None
        if cyc is None:
            return "absent", budget.nodes, None
        tmpl = compile_template(desc)
        vmap = dict(zip(cycle_order(instantiate(desc)), cyc))
        return "found", budget.nodes, Witness(
            desc,
            tuple(vmap[t] for t in range(tmpl.num_terminals)),
            tuple(tuple(vmap[x] for x in c) for c in requirement_chains(tmpl)),
        )

    def test_matches_reference_find_cycle(self):
        # same search order, so the same status, node count and witness,
        # with and without a node limit small enough to run out
        rng = random.Random(15)
        statuses = set()
        for _ in range(60):
            n = rng.randint(5, 14)
            m = rng.randint(n, min(3 * n, n * (n - 1) // 2))
            g = random_gnm(n, m, rng.randrange(2**30))
            for text in self.PATTERNS:
                desc = parse_pattern(text)
                for limit in (None, 40):
                    res = contains(g, desc, SearchBudget(limit))
                    want = self.reference(g, desc, limit)
                    assert (res.status, res.nodes, res.witness) == want, (
                        g, text, limit)
                    statuses.add(want[0])
        assert statuses == {"found", "absent", "budget"}

    def test_witness_is_first_cycle_in_ascending_order(self):
        # two 4-cycles through the smallest edge (0, 1), by 7 and by 9:
        # neighbour sets would try 9 first, the ascending walk tries 7
        assert list({7, 9}) == [9, 7]
        g = Graph.from_edges(
            10, [(0, 1), (0, 7), (0, 9), (1, 2), (1, 3), (2, 7), (3, 9)])
        res = contains(g, parse_pattern("cycle:4"))
        assert res.status == "found"
        assert {v for p in res.witness.paths for v in p} == {0, 1, 2, 7}


class TestNodeCount:
    """`contains` reports its search's node count with or without a
    budget, and a `--node-limit` of exactly that count suffices."""

    CASES = (
        (cycle_graph(8), "cycle:8", "found"),  # cycle route
        (subdivide(complete_bipartite(2, 3), 2), "kst:2,3^2", "found"),
        # C8-free, so absent (kst:2,3^2 contains C8); edge-maximal, so it
        # passes the size gate and the search runs
        (hill_climb_free(12, parse_pattern("cycle:8"), 40, 0).graph,
         "kst:2,3^2", "absent"),
    )

    @pytest.mark.parametrize("g, pattern, status", CASES,
                             ids=["cycle-route", "template-found",
                                  "template-absent"])
    def test_unbudgeted_count_is_the_budgeted_one(self, g, pattern, status):
        desc = parse_pattern(pattern)
        res = contains(g, desc)
        assert res.status == status
        assert res.nodes == contains(g, desc, SearchBudget()).nodes > 0
        exact = contains(g, desc, SearchBudget(res.nodes))
        assert (exact.status, exact.witness) == (res.status, res.witness)
        short = contains(g, desc, SearchBudget(res.nodes - 1))
        assert short.status == "budget"


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

    @pytest.mark.parametrize("n,classes", [
        (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156),
    ])
    def test_class_counts(self, n, classes):
        # OEIS A000088: graphs on n unlabelled vertices
        pairs = list(combinations(range(n), 2))
        forms = {
            canonical_form(Graph(n, frozenset(
                e for i, e in enumerate(pairs) if mask >> i & 1)))
            for mask in range(1 << len(pairs))
        }
        assert len(forms) == classes

    @pytest.mark.parametrize("g", [
        complete_graph(10), subdivide(complete_bipartite(3, 3), 3),
    ], ids=["K10", "K33^3"])
    def test_symmetric_relabeling(self, g):
        perm = list(range(g.n))
        random.Random(11).shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert canonical_form(g) == canonical_form(h)
        assert are_isomorphic(g, h)

    def test_regular_with_two_orbits(self):
        # K4 + K_{3,3} is 3-regular, so refinement leaves one cell holding
        # two orbits; every vertex of that cell must be individualised
        k4 = [(u, v) for u, v in combinations(range(4), 2)]
        k33 = [(u, v) for u in range(3) for v in range(3, 6)]
        g = Graph.from_edges(10, k4 + [(u + 4, v + 4) for u, v in k33])
        h = Graph.from_edges(10, k33 + [(u + 6, v + 6) for u, v in k4])
        assert canonical_form(g) == canonical_form(h)
        assert are_isomorphic(g, h)

    def test_rook_vs_shrikhande(self):
        # both strongly regular (16, 6, 2, 2), hence 6-regular and
        # indistinguishable by refinement alone
        cells = [(i, j) for i in range(4) for j in range(4)]
        idx = {c: v for v, c in enumerate(cells)}
        rook = Graph.from_edges(16, [
            (idx[a], idx[b]) for a, b in combinations(cells, 2)
            if a[0] == b[0] or a[1] == b[1]
        ])
        steps = [(0, 1), (1, 0), (1, 1)]
        shrikhande = Graph.from_edges(16, [
            (idx[(i, j)], idx[((i + di) % 4, (j + dj) % 4)])
            for i, j in cells for di, dj in steps
        ])
        assert set(rook.degrees()) == set(shrikhande.degrees()) == {6}
        assert canonical_form(rook) != canonical_form(shrikhande)
        assert not are_isomorphic(rook, shrikhande)
        perm = list(range(16))
        random.Random(2).shuffle(perm)
        for g in (rook, shrikhande):
            h = Graph.from_edges(16, [(perm[u], perm[v]) for u, v in g.edges])
            assert are_isomorphic(g, h)

    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(29)
        verdicts = set()
        for _ in range(300):
            n = rng.randint(4, 10)
            m = rng.randint(n // 2, min(2 * n, n * (n - 1) // 2))
            g = random_gnm(n, m, rng.randrange(2**30))
            # random double-edge swaps keep the degree sequence
            edges = set(g.edges)
            for _ in range(rng.randint(0, 3)):
                (a, b), (c, d) = rng.sample(sorted(edges), 2)
                new = {tuple(sorted(e)) for e in ((a, d), (c, b))}
                if len({a, b, c, d}) == 4 and not new & edges:
                    edges = (edges - {(a, b), (c, d)}) | new
            perm = list(range(n))
            rng.shuffle(perm)
            h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            assert sorted(g.degrees()) == sorted(h.degrees())
            gx, hx = nx.empty_graph(n), nx.empty_graph(n)
            gx.add_edges_from(g.edges)
            hx.add_edges_from(h.edges)
            want = nx.is_isomorphic(gx, hx)
            assert are_isomorphic(g, h) == want, (g, h)
            verdicts.add(want)
        assert verdicts == {True, False}


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

    PATTERNS = (
        "cycle:3", "cycle:4", "cycle:5", "cycle:6", "kst:2,2", "kst:2,3",
        "spider:1,2,2",
        "arbitrary:4:0-1;1-2;0-2;2-3",  # a triangle with a pendant edge
    )

    @pytest.mark.parametrize("n,pattern", [
        *product(range(1, 6), PATTERNS),
        (6, "cycle:5"), (6, "kst:2,3"),
    ])
    def test_matches_subset_enumeration(self, n, pattern):
        # value, witness and flag of the isomorph-rejecting subset search:
        # both return the lexicographically first largest pattern-free set
        desc = parse_pattern(pattern)
        assert extremal_number(n, desc) == reference_extremal(n, desc)

    @pytest.mark.parametrize("pattern", [
        *PATTERNS, "cycle:8", "kst:2,2^2", "spider:2,2,2", "arbitrary:3:0-1",
    ])
    def test_fallback_is_a_lower_bound(self, pattern):
        # the climb that answers past the limit, with the fallback's own
        # iterations and seed, never beats the exact value
        desc = parse_pattern(pattern)
        for n in range(1, EXHAUSTIVE_N_LIMIT + 1):
            climbed = hill_climb_free(n, desc, 20 * n * n, 0).graph
            exact = extremal_number(n, desc)
            assert exact.exhaustive
            assert climbed.m <= exact.value, (pattern, n)

    SEARCHED = [
        *product(range(1, 7), PATTERNS),
        (7, "cycle:4"), (7, "cycle:5"), (7, "cycle:6"),
    ]

    @pytest.mark.parametrize("n,pattern", SEARCHED)
    def test_matches_unbounded_branch_and_bound(self, n, pattern):
        # the hereditary cuts drop only branches that cannot beat the best
        # set, so value, witness and flag are those of the uncut search
        desc = parse_pattern(pattern)
        assert extremal_number(n, desc) == reference_branch_and_bound(n, desc)

    @pytest.mark.parametrize("n,pattern", SEARCHED)
    def test_memo_answers_match_containment(self, monkeypatch, n, pattern):
        # every answer the memo gives without asking the check is judged
        # afresh on the graph the search holds at that moment
        desc = parse_pattern(pattern)
        creates = oracle._AnswerMemo.creates
        copy_through = oracle._EdgeCheck.copy_through
        asked = []
        recalled = set()

        def counted(check, u, v):
            asked.append((u, v))
            return copy_through(check, u, v)

        def judged(memo, i, mask):
            before = len(asked)
            known = creates(memo, i, mask)
            if len(asked) == before:
                adj = memo.check.adj
                g = Graph.from_edges(len(adj), [
                    p for j, p in enumerate(memo.pairs) if mask >> j & 1
                ])
                assert [d.keys() for d in adj] == \
                    [set(g.neighbors(v)) for v in g.vertices()]
                want = creates_by_containment(g, *memo.pairs[i], desc)
                assert known == want, (pattern, g, memo.pairs[i])
                recalled.add(known)
            return known

        monkeypatch.setattr(oracle._EdgeCheck, "copy_through", counted)
        monkeypatch.setattr(oracle._AnswerMemo, "creates", judged)
        extremal_number(n, desc)
        if n >= 6:  # where every pattern here recalls both answers
            assert recalled == {True, False}

    def test_c4_values_and_polarity_graph(self, monkeypatch):
        # OEIS A006855 for n = 1..8: the whole exhaustive range, and one
        # past it with the limit raised for this test alone
        assert EXHAUSTIVE_N_LIMIT == 7
        monkeypatch.setattr(oracle, "EXHAUSTIVE_N_LIMIT", 8)
        c4 = parse_pattern("cycle:4")
        results = [extremal_number(n, c4) for n in range(1, 9)]
        assert all(r.exhaustive for r in results)
        assert [r.value for r in results] == [0, 1, 3, 4, 6, 7, 9, 11]
        assert is_pattern_free(results[-1].witness_graph, c4)
        # ER_2 is a C4-free graph on 7 vertices with ex(7, C4) edges
        assert polarity_graph(2).m == results[6].value

    @pytest.mark.parametrize("q,edges", [(2, 9), (3, 24), (5, 90), (7, 224)])
    def test_polarity_graph_is_c4_free(self, q, edges):
        g = polarity_graph(q)
        assert (g.n, g.m) == (q * q + q + 1, edges)
        assert contains(g, parse_pattern("cycle:4")).status == "absent"

    @pytest.mark.parametrize("n,pattern,value,nodes", [
        pytest.param(6, "cycle:4", 7, 4192, id="cycle:4-4192"),
        pytest.param(6, "cycle:5", 9, 1538, id="cycle:5-1538"),
        pytest.param(6, "cycle:6", 11, 1660, id="cycle:6-1660"),
        pytest.param(6, "kst:2,3", 10, 291, id="kst:2,3-291"),
        # where the answer memo settles the most queries
        pytest.param(7, "cycle:6", 13, 40022, id="n7-cycle:6-40022"),
        pytest.param(7, "kst:2,3", 12, 70458, id="n7-kst:2,3-70458"),
    ])
    def test_frozen_node_counts(self, n, pattern, value, nodes):
        # what --node-limit counts: one tick per node of the search, which
        # moves only when the search order or its cuts do; the counts
        # include the sub-searches for ex(j) with j < n
        budget = SearchBudget()
        res = extremal_number(n, parse_pattern(pattern), budget)
        assert res.exhaustive and (res.value, budget.nodes) == (value, nodes)

    @pytest.mark.parametrize("pattern", ["cycle:4", "kst:2,3"])
    def test_node_limit_inside_sub_searches_falls_back(self, pattern):
        # the sub-searches for ex(j), j < 6, are the whole search for n = 5,
        # so half its count runs out before the search for n = 6 starts
        desc = parse_pattern(pattern)
        sub = SearchBudget()
        extremal_number(5, desc, sub)
        budget = SearchBudget(sub.nodes // 2)
        res = extremal_number(6, desc, budget)
        assert budget.nodes == sub.nodes // 2 + 1
        assert not res.exhaustive
        assert res.value == res.witness_graph.m
        assert is_pattern_free(res.witness_graph, desc)

    def test_small_node_limit_falls_back(self):
        desc = parse_pattern("cycle:4")
        res = extremal_number(6, desc, SearchBudget(10))
        assert not res.exhaustive
        assert res.value == res.witness_graph.m
        assert is_pattern_free(res.witness_graph, desc)


def polarity_graph(q):
    """The Erdős–Rényi polarity graph ER_q (Brown, 1966) for a prime q:
    the points of PG(2, q), each joined to the other points of its polar
    line x·y = 0 (mod q).  q² + q + 1 vertices, q(q + 1)²/2 edges, C4-free.
    """
    points = [
        p for p in product(range(q), repeat=3)
        if any(p) and next(c for c in p if c) == 1
    ]
    return Graph.from_edges(len(points), [
        (i, j) for (i, x), (j, y) in combinations(enumerate(points), 2)
        if sum(a * b for a, b in zip(x, y)) % q == 0
    ])


class TestHillClimb:
    def test_n7_c8_is_complete(self):
        g = hill_climb_free(7, parse_pattern("cycle:8"), 50, seed=0).graph
        assert g.m == 21

    def test_n8_c8_range(self):
        g = hill_climb_free(8, parse_pattern("cycle:8"), 400, seed=1).graph
        assert 21 <= g.m < 28
        assert is_pattern_free(g, parse_pattern("cycle:8"))

    def test_pattern_larger_than_host_gives_complete_graph(self):
        # kst:2,3^2 has 11 vertices, so no containment check on 10 vertices
        # searches: each answers 'absent' from the sizes alone
        g = hill_climb_free(10, parse_pattern("kst:2,3^2"), 50, seed=0).graph
        assert g == complete_graph(10)

    def test_deterministic(self):
        a = hill_climb_free(10, parse_pattern("cycle:6"), 200, seed=4)
        b = hill_climb_free(10, parse_pattern("cycle:6"), 200, seed=4)
        assert a == b

    def test_edge_maximal(self):
        desc = parse_pattern("cycle:6")
        g = hill_climb_free(9, desc, 100, seed=2).graph
        for u in range(9):
            for v in range(u + 1, 9):
                if not g.has_edge(u, v):
                    assert creates_by_containment(g, u, v, desc)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_loose_pattern_vertex_matches_bruteforce(self, n):
        # the edge check pins the edge's ends, so only the size gate keeps
        # the loose vertex out of a 2-vertex host
        desc = parse_pattern("arbitrary:3:0-1")
        H = instantiate(desc)
        g = hill_climb_free(n, desc, 50, seed=0).graph
        assert not brute_contains(g, H)
        for u, v in combinations(range(n), 2):
            if not g.has_edge(u, v):
                assert brute_contains(Graph(n, g.edges | {(u, v)}), H)

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
        g = hill_climb_free(n, parse_pattern(pattern), iters, seed).graph
        assert g.m == m
        assert hashlib.sha256(g.dump().encode()).hexdigest() == digest

    # (pattern, n, seed, iterations, edges, SHA-256 of Graph.dump(),
    # SHA-256 of the copies' terminals and paths): patterns with length-2
    # paths, whose copies carry the middles the matching chose on the edge
    # check's insertion-ordered adjacency
    FROZEN_CERTIFICATES = [
        ("kst:2,3^2", 16, 0, 300, 40,
         "83f0d2671b3483d067a8c933706475bc820454ec18b2c8cd71ee03dec8cc2845",
         "4f4836350e3a52dd8b2ad998c57f33c7fa46a9c2225aee3c94e65f137f478dc7"),
        ("spider:2,2,2", 12, 0, 300, 20,
         "527657b093fd11c2ce399156971d40716ca91efbf91376c55a49d46abeaa8a80",
         "137b729bf4c1fdc3f2a276a5622e89628fd698aa0eb330f073ad65952332269b"),
    ]

    @pytest.mark.parametrize(
        "pattern,n,seed,iters,m,digest,copies", FROZEN_CERTIFICATES
    )
    def test_frozen_certificates(self, pattern, n, seed, iters, m, digest,
                                 copies):
        res = hill_climb_free(n, parse_pattern(pattern), iters, seed)
        assert res.graph.m == m
        assert hashlib.sha256(res.graph.dump().encode()).hexdigest() == digest
        kept = [None if c is None else (c.terminals, c.paths)
                for c in res.copies]
        assert hashlib.sha256(repr(kept).encode()).hexdigest() == copies


def creates_by_containment(g, u, v, desc):
    """Whether g + (u, v) contains the pattern, by a fresh `contains`: no
    distance table or other state is shared with `first_addable_edge`."""
    return contains(Graph(g.n, g.edges | {(u, v)}), desc).status == "found"


def copy_witness(desc, copy):
    """The witness of a copy that `_EdgeCheck.copy_through` returned: a
    cycle's path, closed by the queried edge, laid along `cycle_order`;
    otherwise the copy is the witness."""
    if as_cycle_length(desc) is None:
        return copy
    tmpl = compile_template(desc)
    img = dict(zip(cycle_order(instantiate(desc)), copy))
    paths = [tuple(img[x] for x in c) for c in requirement_chains(tmpl)]
    return _witness(desc, tmpl, img, paths)


def first_addable_per_pair(g, desc):
    """The reference for `first_addable_edge`, judged pair by pair: the
    first non-edge (u, v) such that g + (u, v) is pattern-free."""
    for u, v in combinations(g.vertices(), 2):
        if not g.has_edge(u, v) and not creates_by_containment(g, u, v, desc):
            return (u, v)
    return None


class TestEdgeCheck:
    # the patterns whose answers the check must track as the graph changes;
    # spider:2,2,2 and kst:2,3^2 have length-2 paths, so their answers
    # also run the matching on an adjacency that changes between searches
    TRACKED = ["cycle:4", "cycle:6", "kst:2,2^2", "kst:2,3", "spider:2,2,2",
               "kst:2,3^2"]

    @pytest.mark.parametrize("pattern", TRACKED)
    def test_answers_track_added_edges(self, pattern):
        # one check follows each graph as it grows, as in hill climbing, so
        # a distance table that an added edge shortened must be repaired;
        # the references build everything afresh for every pair.  A copy
        # the check returns must be a copy in g + e that uses e
        desc = parse_pattern(pattern)
        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(8, 14)
            g = Graph(n, frozenset())
            check = _EdgeCheck(desc).start(g)
            pairs = list(combinations(range(n), 2))
            rng.shuffle(pairs)
            for e in pairs:
                want = creates_by_containment(g, *e, desc)
                u, v = e if rng.random() < 0.5 else e[::-1]
                assert check.creates(u, v) is want, (pattern, seed, g, e)
                assert adding_edge_creates(g, u, v, desc) == want
                copy = check.copy_through(u, v)
                assert (copy is not None) == want
                if copy is not None:
                    w = copy_witness(desc, copy)
                    assert verify_embedding(Graph(n, g.edges | {e}), w)
                    assert any({a, b} == {u, v}
                               for p in w.paths for a, b in zip(p, p[1:]))
                if not want:
                    check.add(u, v)
                    g = Graph(n, g.edges | {e})
            assert [d.keys() for d in check.adj] == \
                [set(g.neighbors(v)) for v in g.vertices()]

    @pytest.mark.parametrize("pattern,anchors", [
        ("arbitrary:6:0-1;1-2;2-3;3-4;1-5;2-5", 6),  # no two twins
        ("spider:1,2,2*2", 3),  # unequal legs
        ("kst:3,3", 1),
        ("kst:2,3^2", 2),
        ("kst:1,1", 1),  # the anchor is the whole pattern
        ("arbitrary:5:0-1;2-3", 2),  # an isolated terminal beside the pins
    ])
    def test_anchored_route_in_both_orientations(self, pattern, anchors):
        # the anchored check sees only copies through (u, v), which on a
        # pattern-free graph are all the copies that adding (u, v) makes.
        # Hosts: the pattern graph, relabelled, less one edge, on two more
        # vertices with one more edge where that keeps them pattern-free
        desc = parse_pattern(pattern)
        check = _EdgeCheck(desc)
        assert check.M is None and len(check.anchors) == anchors
        H = instantiate(desc)
        n = H.n + 2
        rng = random.Random(11)
        verdicts = set()
        for e in H.sorted_edges():
            label = rng.sample(range(n), n)
            g = Graph.from_edges(
                n, [(label[a], label[b]) for a, b in H.edges - {e}]
            )
            extra = rng.choice([p for p in combinations(range(n), 2)
                                if not g.has_edge(*p)])
            if not creates_by_containment(g, *extra, desc):
                g = Graph(n, g.edges | {extra})
            check.start(g)
            for u, v in combinations(range(n), 2):
                if g.has_edge(u, v):
                    continue
                want = creates_by_containment(g, u, v, desc)
                assert check.creates(u, v) == want, (pattern, g, u, v)
                assert check.creates(v, u) == want, (pattern, g, v, u)
                verdicts.add(want)
        assert verdicts == ({True} if pattern == "kst:1,1" else {True, False})

    def test_spliced_copy_that_fails_verification_raises(self, monkeypatch):
        # the anchored route verifies each copy it splices together; a copy
        # the verifier rejects stops the check instead of answering
        g = Graph(5, complete_bipartite(2, 3).edges - {(0, 2)})
        check = _EdgeCheck(parse_pattern("kst:2,3")).start(g)
        assert check.creates(0, 2)
        monkeypatch.setattr(oracle, "_embedding_error", lambda *a: "forged")
        with pytest.raises(RuntimeError,
                           match="^anchored witness failed verification$"):
            check.creates(0, 2)

    @pytest.mark.parametrize("pattern,classes,anchors", [
        ("kst:2,3^2", [0, 0, 2, 2, 2], [(0, 2, 5), (0, 5, 0)]),
        ("kst:3,3", [0, 0, 0, 3, 3, 3], [(0, 3, 0)]),
        ("spider:1,2*2", [0, 1, 2, 2], [(0, 2, 0), (1, 2, 4), (1, 4, 1)]),
        ("arbitrary:5:0-1;0-2;1-3;2-3;3-4", [0, 1, 1, 3, 4],  # 1, 2 twins
         [(0, 0, 1), (2, 1, 3), (4, 3, 4)]),
        ("arbitrary:6:0-1;1-2;2-3;3-4;1-5;2-5", [0, 1, 2, 3, 4, 5],  # none
         [(0, 0, 1), (1, 1, 2), (2, 1, 5), (3, 2, 3), (4, 2, 5), (5, 3, 4)]),
        # the loose terminals 0, 2 and 4 are twins of each other
        ("arbitrary:5:1-3", [0, 1, 0, 1, 0], [(0, 1, 3)]),
    ])
    def test_twin_classes_and_anchors(self, pattern, classes, anchors):
        # each terminal's class by its first member, and the (r, x, y) of
        # every anchor, one per edge orbit under the twin swaps
        tmpl = compile_template(parse_pattern(pattern))
        assert _twin_classes(tmpl) == classes
        assert [anchor[1:] for anchor in _anchors(tmpl)] == anchors

    @pytest.mark.parametrize("pattern", ["cycle:6", "cycle:8", "kst:2,2^2"])
    def test_added_edges_repair_every_table(self, pattern):
        # seeded hosts grown as in hill climbing, large enough for an added
        # edge to shorten distances several levels deep: after every add,
        # the check still holds every table it had, each equal to a fresh
        # one, and somewhere a repair reached two or more levels past the
        # far end of the added edge
        desc = parse_pattern(pattern)
        deep = 0
        for seed in range(3):
            rng = random.Random(seed)
            n = rng.randint(30, 60)
            check = _EdgeCheck(desc).start(Graph(n, frozenset()))
            pairs = list(combinations(range(n), 2))
            rng.shuffle(pairs)
            for u, v in pairs:
                if rng.random() < 0.5:
                    u, v = v, u
                if check.creates(u, v):
                    continue
                before = {t: list(d) for t, d in check.tables.items()}
                check.add(u, v)
                assert check.tables.keys() == before.keys()
                for t, dist in check.tables.items():
                    fresh = _distances_to(check.adj, t, check.M - 1, set())
                    assert dist == fresh, (pattern, seed, t, (u, v))
                    old = before[t]
                    far = u if old[u] > old[v] else v
                    deep += any(d < o and d >= dist[far] + 2
                                for d, o in zip(dist, old))
        assert deep > 0

    @pytest.mark.parametrize("pattern", TRACKED)
    def test_answers_track_removed_edges(self, pattern):
        # a seeded walk of additions and removals, as in the exhaustive
        # extremal search; every answer is judged afresh, and every distance
        # table the check keeps must equal a fresh one (a table a removal
        # lengthened still bounds from below, so answers alone miss it)
        desc = parse_pattern(pattern)

        def assert_tables_fresh():
            for t, dist in check.tables.items():
                fresh = _distances_to(check.adj, t, check.M - 1, set())
                assert dist == fresh, (pattern, seed, g, t)

        for seed in range(4):
            rng = random.Random(seed)
            n = rng.randint(7, 11)
            g = Graph(n, frozenset())
            check = _EdgeCheck(desc).start(g)
            for _ in range(120):
                assert_tables_fresh()
                free = [p for p in combinations(range(n), 2)
                        if p not in g.edges]
                if not free or (g.edges and rng.random() < 0.3):
                    e = rng.choice(g.sorted_edges())
                    check.remove(*(e if rng.random() < 0.5 else e[::-1]))
                    g = Graph(n, g.edges - {e})
                    continue
                e = rng.choice(free)
                u, v = e if rng.random() < 0.5 else e[::-1]
                want = creates_by_containment(g, *e, desc)
                assert check.creates(u, v) == want, (pattern, seed, g, e)
                if not want:
                    check.add(u, v)
                    g = Graph(n, g.edges | {e})
            assert [d.keys() for d in check.adj] == \
                [set(g.neighbors(v)) for v in g.vertices()]
            # then the order `contains` uses: the edges removed in
            # ascending order, each followed by a walk from u to v
            for u, v in g.sorted_edges():
                check.remove(u, v)
                g = Graph(n, g.edges - {(u, v)})
                assert_tables_fresh()
                if check.M is not None:
                    check.path(u, v, SearchBudget())
            assert check.adj == [{} for _ in range(n)]


class TestFirstAddableEdge:
    PATTERNS = ("cycle:4", "cycle:5", "kst:2,2^2", "kst:2,3")

    def test_random_hosts(self):
        for g in random_small_graphs(40, 10, seed=23, density=2.0):
            for text in self.PATTERNS:
                desc = parse_pattern(text)
                assert first_addable_edge(g, desc) == \
                    first_addable_per_pair(g, desc), (g, text)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_hosts_that_contain_the_pattern(self, pattern):
        # nothing is addable to a host that already contains the pattern,
        # on the cycle route as on the template route; C4 plus two
        # isolated vertices has no 3-edge path from 4 to 5
        desc = parse_pattern(pattern)
        hosts = [
            g for g in [Graph(6, cycle_graph(4).edges),
                        *random_small_graphs(40, 10, seed=23, density=2.0)]
            if contains(g, desc).status == "found"
        ]
        assert hosts
        for g in hosts[:10]:
            assert first_addable_edge(g, desc) is None, (g, pattern)
            for u, v in combinations(g.vertices(), 2):
                if not g.has_edge(u, v):
                    assert adding_edge_creates(g, u, v, desc), (g, u, v)

    @pytest.mark.parametrize("pattern,n,seed", [
        ("cycle:4", 14, 3), ("kst:2,2^2", 18, 4), ("kst:2,2^2", 26, 9),
    ])
    def test_hill_climbed_hosts_and_their_edge_deletions(
        self, pattern, n, seed
    ):
        desc = parse_pattern(pattern)
        g = hill_climb_free(n, desc, 200, seed).graph
        assert first_addable_edge(g, desc) is None
        for e in g.sorted_edges()[::3]:
            h = Graph(g.n, g.edges - {e})
            got = first_addable_edge(h, desc)
            assert got is not None and got <= e
            assert got == first_addable_per_pair(h, desc)


class TestFirstUnblockedPair:
    """The sweep's edge-maximality check: the climb's blocking copies
    checked without a search, against the search it replaced."""

    @pytest.mark.parametrize("pattern,n,seed", [
        ("cycle:4", 14, 3), ("cycle:5", 12, 1), ("kst:2,2^2", 18, 4),
        ("kst:2,3", 10, 2), ("spider:1,2,2", 10, 0),
        ("arbitrary:3:0-1", 4, 0),  # a pattern vertex on no path
        ("kst:2,2^2", 1, 0), ("kst:2,3", 1, 0),  # no pair, no copy
    ])
    def test_agrees_with_first_addable_edge(self, pattern, n, seed):
        # every copy the climb returns holds, so both find nothing on the
        # climbed graph.  With an edge deleted, a pair before the first
        # one whose copy fails keeps its copy, so it is still blocked
        desc = parse_pattern(pattern)
        climb = hill_climb_free(n, desc, 200, seed)
        g = climb.graph
        assert len(climb.copies) == n * (n - 1) // 2
        assert [c is None for c in climb.copies] == \
            [g.has_edge(u, v) for u, v in combinations(range(n), 2)]
        assert first_unblocked_pair(g, desc, climb.copies) is None
        assert first_addable_edge(g, desc) is None
        for e in g.sorted_edges()[::3]:
            h = Graph(n, g.edges - {e})
            got = first_unblocked_pair(h, desc, climb.copies)
            want = first_addable_edge(h, desc)
            assert got is not None and got <= e and got <= want, (pattern, e)


class TestBudgetValidation:
    def test_positive_limits(self):
        with pytest.raises(ValueError):
            SearchBudget(node_limit=0)
