import hashlib
import json
import random
from collections import Counter

import pytest

from bruteforce import all_spiders, brute_refine, unflatten
from conftest import criterion5_hosts
from spidersearch import finder
from spidersearch.finder import (
    ConstructionFailure,
    SpiderFamily,
    _gamma_schedule,
    assemble_blowup,
    build_paths,
    connect_paths,
    family_condition_violations,
    find_kstk,
    refine_family,
)
from spidersearch.goodness import Thresholds, classify_paths, classify_spiders
from spidersearch.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    random_gnm,
    subdivide,
)
from spidersearch.oracle import SearchBudget, contains, verify_embedding
from spidersearch.patterns import kst_pattern, parse_pattern
from spidersearch.spiders import enumerate_spiders, spider_layout


def leaf_vector(sp, lv):
    return unflatten(sp, lv).leaf_vector


_K66_CACHE = {}


def k66_family(const=240, delta=6, L=2.0):
    key = (const, delta, L)
    if key not in _K66_CACHE:
        g = complete_bipartite(6, 6)
        thr = Thresholds.constant(const)
        fam = refine_family(
            enumerate_spiders(g, (2, 2)), (2, 2), thr, delta=delta, L=L
        )
        _K66_CACHE[key] = (g, fam)
    return _K66_CACHE[key]


def k24_host_family():
    g = subdivide(complete_bipartite(2, 4), 2)
    thr = Thresholds.constant(1)
    paths = classify_paths(g, 2, thr)
    cls = classify_spiders(g, (2, 2), thr, paths)
    fam = refine_family(
        cls.not_good_admissible((2, 2)), (2, 2), thr, delta=g.min_degree(),
        L=4.0,
    )
    return g, fam


class TestRefine:
    def test_empty_in_empty_out(self):
        fam = refine_family([], (1, 1), Thresholds.paper_recursion(1),
                            delta=2, L=1)
        assert fam.members == ()

    def test_single_spider_dropped(self):
        # f(2,2) is huge, so a lone spider cannot meet the leaf-count bound
        S = next(iter(enumerate_spiders(complete_bipartite(2, 2), (1, 1))))
        fam = refine_family([S], (1, 1), Thresholds.paper_recursion(2),
                            delta=1, L=1)
        assert fam.members == ()

    def test_disjoint_identical_leaf_family_survives(self):
        # q internally disjoint spiders on one leaf vector, delta = 1
        g = complete_bipartite(2, 5)
        t0 = [sp for sp in enumerate_spiders(g, (1, 1))
              if leaf_vector(sp, (1, 1)) == (0, 1)]
        assert len(t0) == 5
        fam = refine_family(t0, (1, 1), Thresholds.constant(5), delta=1,
                            L=1)
        assert len(fam.members) == 5

    def test_rare_leaf_vectors_discarded(self):
        # hub leaf vectors have count 5, leaf-pair vectors only 2;
        # threshold 6 keeps exactly the hub-leaf members
        g = complete_bipartite(2, 5)
        fam = refine_family(
            enumerate_spiders(g, (1, 1)), (1, 1), Thresholds.constant(6),
            delta=2, L=2,
        )
        assert len(fam.members) == 10
        assert {leaf_vector(sp, (1, 1)) for sp in fam.members} == \
            {(0, 1), (1, 0)}

    def test_conditions_verified_independently(self):
        _, fam = k66_family()
        assert fam.members
        assert family_condition_violations(fam) == []

    def test_violations_listed_in_member_order(self):
        # delta = 2, L = 1: every gamma class needs 2^|gamma| members;
        # three members break (ii), at one gamma or at all three, and f = 3
        # needs two members per leaf vector for (i)
        members = (
            (0, 1, 2, 3, 4), (0, 1, 2, 3, 6), (0, 1, 2, 3, 12),
            (0, 1, 5, 3, 4), (0, 1, 5, 3, 6), (0, 14, 2, 15, 4),
            (7, 8, 9, 10, 11),
        )
        fam = SpiderFamily((2, 2), members, 2, 1.0, Thresholds.constant(3))
        assert family_condition_violations(fam) == [
            "(i) violated at (0, 1, 2, 3, 6)",
            "(i) violated at (0, 1, 2, 3, 12)",
            "(i) violated at (0, 1, 5, 3, 4)",
            "(i) violated at (0, 1, 5, 3, 6)",
            "(i) violated at (7, 8, 9, 10, 11)",
            "(ii) violated at (0, 14, 2, 15, 4) for gamma=(0, 1)",
            "(ii) violated at (7, 8, 9, 10, 11) for gamma=(0, 1)",
            "(ii) violated at (0, 1, 2, 3, 12) for gamma=(1, 0)",
            "(ii) violated at (0, 14, 2, 15, 4) for gamma=(1, 0)",
            "(ii) violated at (7, 8, 9, 10, 11) for gamma=(1, 0)",
            "(ii) violated at (0, 14, 2, 15, 4) for gamma=(1, 1)",
            "(ii) violated at (7, 8, 9, 10, 11) for gamma=(1, 1)",
        ]

    def test_deterministic(self):
        _, a = k66_family()
        _, b = k66_family()
        assert a.members == b.members

    def test_mixed_length_vectors_rejected(self):
        g = complete_bipartite(2, 5)
        mix = list(enumerate_spiders(g, (1, 1)))[:1] + list(
            enumerate_spiders(g, (1, 2)))[:1]
        with pytest.raises(ValueError):
            refine_family(mix, (1, 1), Thresholds.constant(0), delta=1, L=1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            refine_family([], (1, 1), Thresholds.constant(0), delta=0, L=1)
        with pytest.raises(ValueError):
            refine_family([], (1, 1), Thresholds.constant(0), delta=1,
                          L=0.5)


def _random_refine_case(rng):
    """A random family of at most 80 spiders on a host with n <= 11, with
    random constant threshold, delta and L: most draws discard something,
    many empty the family."""
    n = rng.randint(5, 11)
    m = rng.randint(n, min(n * (n - 1) // 2, 3 * n))
    g = random_gnm(n, m, seed=rng.randrange(10**6))
    lv = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1)])
    t0 = list(enumerate_spiders(g, lv))
    if len(t0) > 80:
        t0 = rng.sample(t0, 80)
    thr = Thresholds.constant(rng.randint(1, 10))
    return t0, lv, thr, rng.randint(1, 4), rng.choice([1, 1.5, 2, 3, 4])


class TestRefineRounds:
    def test_matches_one_discard_at_a_time(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(100):
            t0, lv, thr, delta, L = _random_refine_case(rng)
            got = refine_family(t0, lv, thr, delta, L).members
            # sorted flat spiders are the sorted nested ones, flattened
            assert tuple(unflatten(sp, lv) for sp in got) == brute_refine(
                [unflatten(sp, lv) for sp in t0], thr.f, delta, L)
            outcomes.add("emptied" if not got else
                         "untouched" if len(got) == len(t0) else "partial")
        assert outcomes == {"emptied", "untouched", "partial"}

    def test_order_of_t0_does_not_matter(self):
        g = random_gnm(10, 22, seed=0)
        t0 = list(enumerate_spiders(g, (1, 2)))
        thr, delta, L = Thresholds.constant(6), 3, 1.0
        # condition (i) alone, peeled to its fixpoint, leaves a family that
        # condition (ii) still cuts: both kinds of discard happen here
        after_i = set(t0)
        while True:
            counts = Counter(leaf_vector(sp, (1, 2)) for sp in after_i)
            kept = {sp for sp in after_i
                    if 2 * counts[leaf_vector(sp, (1, 2))] >= 6}
            if kept == after_i:
                break
            after_i = kept
        want = refine_family(set(t0), (1, 2), thr, delta, L).members
        assert len(t0) > len(after_i) > len(want) > 0
        shuffled = t0[:]
        random.Random(5).shuffle(shuffled)
        assert refine_family(shuffled, (1, 2), thr, delta, L).members == want
        assert refine_family(sorted(t0, reverse=True), (1, 2), thr, delta,
                             L).members == want


class TestGammaSchedule:
    def test_identity(self):
        assert _gamma_schedule((2, 2), (2, 2)) == [(0, 0)]

    def test_parity_then_earliest_ones(self):
        cols = _gamma_schedule((2, 2), (5, 8))
        assert cols[0] == (1, 0)
        # remaining extensions: (5-2-1)/2 = 1 column for leg 1, 3 for leg 2
        assert cols[1:] == [(1, 1), (0, 1), (0, 1)]
        for i, (l, t) in enumerate(zip((2, 2), (5, 8))):
            assert l + cols[0][i] + 2 * sum(c[i] for c in cols[1:]) == t


class TestBuildPaths:
    def test_identity_targets(self):
        _, fam = k66_family()
        r0 = fam.members[0]
        res = build_paths(fam, r0, set(), (2, 2))
        leaf = leaf_vector(r0, (2, 2))
        assert res == tuple((v,) for v in leaf)
        assert tuple(p[-1] for p in res) == leaf

    def test_two_unit_legs_rejected(self):
        g = complete_bipartite(2, 5)
        t0 = [sp for sp in enumerate_spiders(g, (1, 1))
              if leaf_vector(sp, (1, 1)) == (0, 1)]
        fam = SpiderFamily((1, 1), tuple(sorted(t0)), 1, 1,
                           Thresholds.constant(0))
        with pytest.raises(ValueError, match="one leg"):
            build_paths(fam, fam.members[0], set(), (3, 3))

    def test_targets_below_lv_rejected(self):
        _, fam = k66_family()
        with pytest.raises(ValueError, match="dominate"):
            build_paths(fam, fam.members[0], set(), (1, 2))
        with pytest.raises(ValueError, match="^targets must match the "
                                             "family's leg count$"):
            build_paths(fam, fam.members[0], set(), (2, 2, 2))

    def test_wrong_r0_rejected(self):
        _, fam = k66_family()
        bad = spider_layout((2, 2)).truncation((1, 1))(fam.members[0])
        with pytest.raises(ValueError, match="length vector"):
            build_paths(fam, bad, set(), (2, 2))
        # the right size, but on vertices K_{6,6} does not have
        with pytest.raises(ValueError, match="^r0 is not a truncation of "
                                             "any family member$"):
            build_paths(fam, tuple(range(12, 17)), set(), (2, 2))

    def test_z_hits_leaves_rejected(self):
        _, fam = k66_family()
        r0 = fam.members[0]
        with pytest.raises(ValueError, match="Z intersects"):
            build_paths(fam, r0, set(leaf_vector(r0, (2, 2))), (2, 2))

    def test_even_extension_chain(self):
        g, fam = k66_family()
        r0 = fam.members[0]
        res = build_paths(fam, r0, set(), (2, 4))
        assert [len(p) - 1 for p in res] == [0, 2]
        assert (res[0][0], res[1][0]) == leaf_vector(r0, (2, 2))
        assert not set(res[0]) & set(res[1])
        assert tuple(p[-1] for p in res) in {leaf_vector(sp, (2, 2))
                                             for sp in fam.members}
        for u, v in zip(res[1], res[1][1:]):
            assert g.has_edge(u, v)

    def test_odd_extension_chain(self):
        g, fam = k66_family()
        r0 = spider_layout((2, 2)).truncation((1, 1))(fam.members[0])
        res = build_paths(fam, r0, set(), (3, 3))
        assert [len(p) - 1 for p in res] == [1, 1]
        for p in res:
            assert g.has_edge(p[0], p[1])

    def test_avoids_z(self):
        g, fam = k66_family()
        r0 = fam.members[0]
        z = {v for v in range(g.n) if v not in r0} & {2, 8}
        res = build_paths(fam, r0, z, (2, 4))
        for p in res:
            assert not set(p) & z

    @pytest.mark.parametrize("k, chains", [(2, (187, 167)),
                                           (3, (280, 236))])
    def test_chain_invariants_on_criterion5_hosts(self, monkeypatch, k,
                                                  chains):
        """Every chain that find_kstk builds for kst:2,2^k on criterion 5's
        hosts: path i has targets[i] - lv[i] edges of the host, the paths
        are simple, disjoint and off Z, they start at r0's leaves, and
        connect_paths' spider ends at those leaves.  The counts of built
        and connected chains are pinned, so a selection rule that stops
        every chain fails too."""
        built = []
        connected = []

        # g is the host of the find_kstk call in progress (loop below)
        def checked_build(fam, r0, Z, targets):
            paths = build_paths(fam, r0, Z, targets)
            want = tuple(l - g for l, g in
                         zip(fam.lv, _gamma_schedule(fam.lv, targets)[0]))
            assert tuple(p[0] for p in paths) == spider_layout(want).leaf(r0)
            seen = set()
            for p, t, l in zip(paths, targets, fam.lv):
                assert len(p) - 1 == t - l
                assert len(set(p)) == len(p)
                assert all(g.has_edge(u, v) for u, v in zip(p, p[1:]))
                assert not set(p) & set(Z)
                assert not set(p) & seen
                seen |= set(p)
            built.append(paths)
            return paths

        def checked_connect(fam, paths, Z):
            sp = connect_paths(fam, paths, Z)
            targets = tuple(len(p) - 1 + l for p, l in zip(paths, fam.lv))
            assert spider_layout(targets).leaf(sp) == tuple(p[0] for p in paths)
            connected.append(sp)
            return sp

        monkeypatch.setattr(finder, "build_paths", checked_build)
        monkeypatch.setattr(finder, "connect_paths", checked_connect)
        for g, thr, L in criterion5_hosts():
            find_kstk(g, 2, 2, k, thr, L, SearchBudget(node_limit=1))
        assert (len(built), len(connected)) == chains


class TestConnect:
    def test_closes_into_spider(self):
        g, fam = k66_family()
        res = build_paths(fam, fam.members[0], set(), (2, 4))
        sp = connect_paths(fam, res, set())
        assert leaf_vector(sp, (2, 4)) == leaf_vector(fam.members[0], (2, 2))
        assert unflatten(sp, (2, 4)) in all_spiders(g, (2, 4))

    def test_blocked_by_z(self):
        _, fam = k66_family()
        res = build_paths(fam, fam.members[0], set(), (2, 2))
        ends = tuple(p[-1] for p in res)
        centres = {unflatten(sp, (2, 2)).centre for sp in fam.with_leaf(ends)}
        # every member with leaf vector `ends` holds ends[0], so a Z that
        # holds it refuses them all: the far ends may meet the paths, not Z
        for z in (centres, {ends[0]}):
            with pytest.raises(ConstructionFailure, match="connect"):
                connect_paths(fam, res, z)


class TestAssemble:
    def test_t1_single_spider_witness(self):
        g, fam = k66_family()
        w = assemble_blowup(g, fam, (2, 2), 1,
                            parse_pattern("spider:2,2*1"))
        assert w.route == "constructive"
        assert len(w.paths) == 2
        assert verify_embedding(g, w)
        with pytest.raises(ValueError, match="^t must be >= 1$"):
            assemble_blowup(g, fam, (2, 2), 0,
                            parse_pattern("spider:2,2*1"))

    def test_k24_host_t2(self):
        g, fam = k24_host_family()
        w = assemble_blowup(g, fam, (2, 2), 2,
                            parse_pattern("spider:2,2*2"))
        assert verify_embedding(g, w)
        assert str(w.pattern) == "spider:2,2*2"

    def test_k24_host_t3_fails_after_two_rounds(self):
        g, fam = k24_host_family()
        with pytest.raises(ConstructionFailure) as exc:
            assemble_blowup(g, fam, (2, 2), 3,
                            parse_pattern("spider:2,2*3"))
        assert exc.value.rounds_completed == 2

    def test_empty_family(self):
        fam = SpiderFamily((), (), 1, 1, Thresholds.constant(0))
        with pytest.raises(ConstructionFailure):
            assemble_blowup(cycle_graph(4), fam, (2, 2), 1,
                            parse_pattern("spider:2,2*1"))

    def test_two_unit_legs_rejected(self):
        # build_paths rejects the family in round 0, before any state
        g = complete_graph(6)
        fam = SpiderFamily((1, 1), tuple(sorted(enumerate_spiders(g, (1, 1)))),
                           1, 1, Thresholds.constant(0))
        with pytest.raises(ValueError,
                           match="at most one leg of length 1 is supported"):
            assemble_blowup(g, fam, (2, 2), 1,
                            parse_pattern("spider:2,2*1"))


class TestFindKstk:
    def test_constructive_on_k24_host(self):
        g = subdivide(complete_bipartite(2, 4), 2)
        rep = find_kstk(g, 2, 2, 2, Thresholds.constant(1), L=4.0)
        assert rep.status == "constructive"
        assert verify_embedding(g, rep.witness)

    def test_c8_oracle_fallback(self):
        rep = find_kstk(cycle_graph(8), 2, 2, 2,
                        Thresholds.paper_recursion(2), L=2.0)
        assert rep.status == "oracle"
        assert verify_embedding(cycle_graph(8), rep.witness)

    def test_k23_host_oracle(self):
        g = subdivide(complete_bipartite(2, 3), 2)
        rep = find_kstk(g, 2, 2, 2, Thresholds.paper_recursion(2), L=2.0)
        assert rep.status in ("constructive", "oracle")
        assert verify_embedding(g, rep.witness)

    def test_not_found(self):
        rep = find_kstk(cycle_graph(7), 2, 2, 2,
                        Thresholds.paper_recursion(2), L=2.0)
        assert rep.status == "not-found" and rep.witness is None

    def test_random_host_sound(self):
        g = random_gnm(60, 150, seed=12)
        rep = find_kstk(g, 2, 2, 2, Thresholds.constant(2), L=2.0)
        assert rep.witness is not None
        assert verify_embedding(g, rep.witness)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            find_kstk(cycle_graph(8), 1, 2, 2, Thresholds.constant(1), 1.0)


class TestMinDegreeZero:
    """Condition (ii) needs min degree > 0, so a host with an isolated
    vertex goes straight to the oracle without classifying anything."""

    @pytest.fixture(autouse=True)
    def no_classification(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classified a host with min degree 0")

        monkeypatch.setattr(finder, "classify_paths", refuse)
        monkeypatch.setattr(finder, "classify_spiders", refuse)

    @pytest.mark.parametrize("g, budget, status", [
        (Graph(9, cycle_graph(8).edges), None, "oracle"),
        (Graph(8, cycle_graph(7).edges), None, "not-found"),
        (Graph(9, cycle_graph(8).edges), SearchBudget(1), "budget"),
    ])
    def test_straight_to_oracle(self, g, budget, status):
        rep = find_kstk(g, 2, 2, 2, Thresholds.constant(1), 2.0, budget)
        assert (rep.status, rep.tried, rep.notes) == (
            status, (), ("min degree 0, refinement impossible",))
        assert (rep.witness is not None) == (status == "oracle")

    def test_criterion5_hosts_match_the_oracle(self):
        desc = kst_pattern(2, 2, 2)
        status = {"found": "oracle", "absent": "not-found", "budget": "budget"}
        hosts = [h for h in criterion5_hosts() if h[0].min_degree() == 0]
        assert len(hosts) == 100
        for g, thr, L in hosts:
            rep = find_kstk(g, 2, 2, 2, thr, L, SearchBudget(500_000))
            res = contains(g, desc, SearchBudget(500_000))
            assert (rep.status, rep.witness) == (status[res.status],
                                                 res.witness)


def _witness_json(roots, paths):
    doc = {"pattern": "kst:2,2^2", "roots": roots, "paths": paths,
           "route": "constructive"}
    return json.dumps(doc, indent=2) + "\n"


class TestPinnedConstructiveWitnesses:
    """The exact witnesses the constructive route prints, one per kind of
    answering vector: (2,2); (1,2), where r0 is a generalised spider with
    an empty leg; and (2,1), after (1,2) failed.  The two fuzz hosts are
    hosts #12 and #89 of criterion 5's stream (seed 5055)."""

    def test_k24_subdivision_from_22(self):
        g = subdivide(complete_bipartite(2, 4), 2)
        rep = find_kstk(g, 2, 2, 2, Thresholds.constant(1), L=4.0)
        assert (rep.status, rep.tried, rep.notes) == (
            "constructive", ((2, 2),), ())
        assert rep.witness.to_json() == _witness_json(
            [2, 3, 0, 1],
            [[0, 6, 2], [0, 7, 3], [1, 10, 2], [1, 11, 3]])

    def test_fuzz_host_12_from_12(self):
        g = Graph.from_edges(12, [
            (0, 4), (0, 6), (0, 10), (1, 8), (1, 10), (2, 4), (2, 5),
            (2, 9), (2, 10), (3, 7), (3, 11), (4, 5), (5, 7), (5, 10),
            (6, 7), (6, 10), (8, 9), (9, 10), (10, 11)])
        rep = find_kstk(g, 2, 2, 2, Thresholds.constant(1), L=4.0)
        assert (rep.status, rep.tried, rep.notes) == (
            "constructive", ((1, 2),), ("(1, 1): skipped (two unit legs)",))
        assert rep.witness.to_json() == _witness_json(
            [0, 7, 2, 11],
            [[2, 4, 0], [2, 5, 7], [11, 10, 0], [11, 3, 7]])

    def test_fuzz_host_89_from_21(self):
        g = Graph.from_edges(11, [
            (0, 5), (0, 6), (0, 7), (0, 10), (1, 5), (1, 8), (1, 9),
            (1, 10), (2, 3), (2, 5), (2, 8), (3, 5), (3, 6), (3, 9), (4, 7),
            (4, 10), (5, 8), (6, 10), (9, 10)])
        rep = find_kstk(g, 2, 2, 2, Thresholds.constant(2), L=4.0)
        assert (rep.status, rep.tried, rep.notes) == (
            "constructive", ((1, 2), (2, 1)),
            ("(1, 2): chain failed at connect after 1 rounds",))
        assert rep.witness.to_json() == _witness_json(
            [1, 0, 3, 4],
            [[3, 5, 1], [3, 6, 0], [4, 10, 1], [4, 7, 0]])


class TestPinnedChainOutput:
    """Which family members the chain picks, pinned by a SHA-256 over each
    constructive answer's host index and witness JSON on criterion 5's
    hosts (seed 5055).  With k = 2 no vector needs a T step; with k = 3
    the answers from (1,3) and (2,1) each chain S_1, T_1, S_2."""

    @pytest.mark.parametrize("k, answering, digest", [
        (2, {(2, 2): 44, (1, 2): 6, (2, 1): 3},
         "506cb71f7502f525ccad9ab65082c45404c251c1c6e62e9ab0541b7c4207488c"),
        (3, {(3, 3): 25, (2, 2): 2, (1, 3): 1, (2, 1): 1},
         "13291f8f0e796edc8418e43765d4cd209feb4e31adc8a7a108ffa8aed8962061"),
    ])
    def test_criterion5_constructive_answers(self, k, answering, digest):
        h = hashlib.sha256()
        vectors = Counter()
        for i, (g, thr, L) in enumerate(criterion5_hosts()):
            rep = find_kstk(g, 2, 2, k, thr, L)
            if rep.status == "constructive":
                vectors[rep.tried[-1]] += 1
                h.update(f"{i}\n{rep.witness.to_json()}".encode())
        assert vectors == answering
        assert h.hexdigest() == digest
