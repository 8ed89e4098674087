"""Independent brute-force re-implementations used as ground truth.

Everything here follows the raw definitions with no shortcuts, so the
production code's optimizations (window checks, one-step truncations,
cycle fast paths) are tested against a structurally different computation.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Sequence
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from spidersearch.graph import Graph
from spidersearch.oracle import (
    ExtremalResult,
    SearchBudget,
    _EdgeCheck,
    _distances_to,
    _requirement_order,
    _walk_paths,
    adding_edge_creates,
    canonical_form,
    contains,
)
from spidersearch.patterns import PatternDescriptor, Template


def brute_f(ell: int, L: float) -> int:
    """Threshold recursion straight off the definition, no table reuse."""
    if ell == 1:
        return math.ceil(L)
    return 1 + brute_f(ell - 1, L) ** 16 * (ell - 1) ** 2 * max(
        brute_f(i, L) * brute_f(ell - i, L) for i in range(1, ell)
    )


def _canon(path: tuple[int, ...]) -> tuple[int, ...]:
    return path if path[0] < path[-1] else path[::-1]


def all_paths(G: Graph, length: int) -> list[tuple[int, ...]]:
    """Every undirected simple path with `length` edges, canonical form."""
    out = set()

    def walk(path: list[int]) -> None:
        if len(path) - 1 == length:
            out.add(_canon(tuple(path)))
            return
        for w in G.neighbors(path[-1]):
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    for u in G.vertices():
        walk([u])
    return sorted(out)


def brute_classify_paths(G: Graph, k: int, f) -> dict[int, dict]:
    """Level tables {ell: {'admissible', 'good', 'counts'}} recomputed per
    the definition: admissible iff EVERY contiguous strict subpath (every
    offset, every shorter length) is good.
    """
    levels: dict[int, dict] = {}
    for ell in range(1, k + 1):
        paths = all_paths(G, ell)
        admissible = set()
        counts: dict[tuple[int, int], int] = {}
        for p in paths:
            if ell == 1:
                ok = True
            else:
                ok = all(
                    _canon(p[a:a + j + 1]) in levels[j]["good"]
                    for j in range(1, ell)
                    for a in range(ell - j + 1)
                )
            if ok:
                admissible.add(p)
                key = (p[0], p[-1])
                counts[key] = counts.get(key, 0) + 1
        bound = f(ell)
        good = {p for p in admissible if counts[(p[0], p[-1])] <= bound}
        levels[ell] = {"admissible": admissible, "good": good, "counts": counts}
    return levels


class NestedSpider(NamedTuple):
    """A spider as `(centre, legs)`, the shape `all_spiders` yields; equal
    to the plain tuple.  Legs exclude the centre and may be empty."""

    centre: int
    legs: tuple[tuple[int, ...], ...]

    @property
    def leaf_vector(self) -> tuple[int, ...]:
        return tuple(leg[-1] if leg else self.centre for leg in self.legs)


def unflatten(sp: tuple[int, ...], lv: tuple[int, ...]) -> NestedSpider:
    """Split the library's flat spider `(centre, leg 1 ..., leg 2 ...)`
    into legs of lengths lv, by position alone."""
    if len(sp) != 1 + sum(lv):
        raise ValueError(f"{sp} does not have length vector {lv}")
    legs, pos = [], 1
    for x in lv:
        legs.append(tuple(sp[pos:pos + x]))
        pos += x
    return NestedSpider(sp[0], tuple(legs))


def all_spiders(G: Graph, lv: tuple[int, ...]) -> list:
    """Every spider (centre, ordered legs) with the given length vector.
    Legs are stored without the centre, matching the package convention.
    """
    out = []

    def grow(centre: int, legs: list, used: set) -> None:
        i = len(legs)
        if i == len(lv):
            out.append((centre, tuple(legs)))
            return
        def leg_walk(leg: list) -> None:
            if len(leg) == lv[i]:
                legs.append(tuple(leg))
                grow(centre, legs, used | set(leg))
                legs.pop()
                return
            at = leg[-1] if leg else centre
            for w in G.neighbors(at):
                if w != centre and w not in used and w not in leg:
                    leg.append(w)
                    leg_walk(leg)
                    leg.pop()
        leg_walk([])

    for u in G.vertices():
        grow(u, [], set())
    return out


def brute_classify_spiders(
    G: Graph, lv: tuple[int, ...], f, path_levels: dict[int, dict]
) -> dict[tuple[int, ...], dict]:
    """Spider tables recomputed per the definition: admissible iff every
    full leg is a good path and EVERY single-leg prefix truncation (to every
    shorter positive length) is a good spider.
    """
    vecs = sorted(
        product(*(range(1, x + 1) for x in lv)), key=lambda v: (sum(v), v)
    )
    levels: dict[tuple[int, ...], dict] = {}
    for vec in vecs:
        admissible = set()
        counts: dict[tuple[int, ...], int] = {}
        for centre, legs in all_spiders(G, vec):
            if all(x == 1 for x in vec):
                ok = True
            else:
                ok = all(
                    _canon((centre,) + legs[i]) in path_levels[vec[i]]["good"]
                    for i in range(len(vec))
                )
                if ok:
                    for i, li in enumerate(vec):
                        for j in range(1, li):
                            shorter = vec[:i] + (j,) + vec[i + 1:]
                            trunc = (
                                centre,
                                legs[:i] + (legs[i][:j],) + legs[i + 1:],
                            )
                            if trunc not in levels[shorter]["good"]:
                                ok = False
                                break
                        if not ok:
                            break
            if ok:
                admissible.add((centre, legs))
                leaf = tuple(leg[-1] for leg in legs)
                counts[leaf] = counts.get(leaf, 0) + 1
        bound = f(sum(vec))
        good = {
            s for s in admissible
            if counts[tuple(leg[-1] for leg in s[1])] <= bound
        }
        levels[vec] = {"admissible": admissible, "good": good, "counts": counts}
    return levels


def brute_refine(t0, f, delta: float, L: float) -> tuple:
    """Refinement by discarding one spider at a time: the canonically
    smallest violator of the leaf-count condition (i), 2*count(leaf) >= f;
    only when (i) holds everywhere, the smallest violator of the support
    condition (ii), count_gamma(truncation) >= delta^|gamma| / L^2 for every
    gamma in {0,1}^s.  `f` is the threshold function f(ell).  Returns the
    surviving spiders, sorted.
    """
    def leaf(S):
        centre, legs = S
        return tuple(leg[-1] if leg else centre for leg in legs)

    def trunc(S, gamma):
        centre, legs = S
        return (centre, tuple(leg[:len(leg) - g] for leg, g in zip(legs, gamma)))

    members = set(t0)
    if not members:
        return ()
    lv = tuple(len(leg) for leg in next(iter(members))[1])
    bound = f(sum(lv))
    gammas = list(product((0, 1), repeat=len(lv)))
    while members:
        counts = Counter(leaf(S) for S in members)
        viol = [S for S in members if 2 * counts[leaf(S)] < bound]
        if viol:
            members.remove(min(viol))
            continue
        tcs = {g: Counter(trunc(S, g) for S in members) for g in gammas}
        viol = [
            S for S in members
            if any(
                tcs[g][trunc(S, g)] < Fraction(delta) ** sum(g) / Fraction(L) ** 2
                for g in gammas
            )
        ]
        if viol:
            members.remove(min(viol))
            continue
        break
    return tuple(sorted(members))


def brute_contains(G: Graph, H: Graph) -> bool:
    """Naive subgraph containment: try every injective vertex map."""
    if H.n > G.n:
        return False
    hedges = H.sorted_edges()
    degs = sorted(G.degrees(), reverse=True)
    hdegs = sorted(H.degrees(), reverse=True)
    if any(hd > gd for hd, gd in zip(hdegs, degs)):
        return False
    for sub in combinations(range(G.n), H.n):
        for perm in permutations(sub):
            if all(G.has_edge(perm[u], perm[v]) for u, v in hedges):
                return True
    return False


def _iter_exact_paths(
    adj: Sequence[Collection[int]],
    u: int,
    v: int,
    length: int,
    forbidden: Collection[int],
    budget: SearchBudget | None = None,
):
    """Iterator over all simple u-v paths of exact length avoiding
    `forbidden` internally, in lexicographic order when `adj` lists each
    vertex's neighbours in ascending order.
    """
    if u == v or u in forbidden or v in forbidden:
        return iter(())
    if length == 1:
        return iter(((u, v),) if v in adj[u] else ())
    dist = _distances_to(adj, v, length, forbidden)
    return _walk_paths(adj, u, v, length, dist, budget or SearchBudget())


def reference_template_search(
    G: Graph, tmpl: Template, node_limit: int | None = None
) -> tuple[dict[int, int] | None, dict[int, tuple[int, ...]] | None, int]:
    """The template search without twin ordering or shared distance
    tables: every relabelling of a symmetric pattern is searched again and
    every candidate pair builds its own table.  Returns the image map and
    the paths of the first embedding (both None when there is none) and
    the budget ticks spent; raises `BudgetExhausted` past `node_limit`.
    Terminals that no requirement touches get no image.
    """
    budget = SearchBudget(node_limit)
    adj = [G.neighbors(v) for v in G.vertices()]  # ascending
    incident: dict[int, int] = {}
    for a, b, _ in tmpl.requirements:
        incident[a] = incident.get(a, 0) + 1
        incident[b] = incident.get(b, 0) + 1
    order = _requirement_order(tmpl, incident)

    img: dict[int, int] = {}
    used: set[int] = set()  # terminal images + path interiors
    paths: dict[int, tuple[int, ...]] = {}

    def candidates(term: int) -> list[int]:
        if term in img:
            return [img[term]]
        need = incident.get(term, 0)
        return [
            x for x in G.vertices() if x not in used and len(adj[x]) >= need
        ]

    def place(pos: int) -> bool:
        if budget is not None:
            budget.tick()
        if pos == len(order):
            return True
        ridx = order[pos]
        a, b, length = tmpl.requirements[ridx]
        for xa in candidates(a):
            new_a = a not in img
            if new_a:
                img[a] = xa
                used.add(xa)
            for xb in candidates(b):
                if xb == xa:
                    continue
                new_b = b not in img
                if new_b:
                    img[b] = xb
                    used.add(xb)
                forb = used - {xa, xb}
                for path in _iter_exact_paths(adj, xa, xb, length, forb, budget):
                    interior = set(path[1:-1])
                    used.update(interior)
                    paths[ridx] = path
                    if place(pos + 1):
                        return True
                    del paths[ridx]
                    used.difference_update(interior)
                if new_b:
                    del img[b]
                    used.discard(xb)
            if new_a:
                del img[a]
                used.discard(xa)
        return False

    if place(0):
        return img, paths, budget.nodes
    return None, None, budget.nodes


def reference_extremal(n: int, desc: PatternDescriptor) -> ExtremalResult:
    """The subset enumeration that `extremal_number`'s branch-and-bound
    replaced: edge counts m descending, the m-edge subsets of the pairs in
    lexicographic order, one `contains` per isomorphism class (keyed by
    `canonical_form`).  The first pattern-free subset settles the value;
    the edgeless graph is pattern-free, as every pattern has an edge.
    """
    pairs = list(combinations(range(n), 2))
    for m in range(len(pairs), -1, -1):
        seen: set = set()
        for combo in combinations(pairs, m):
            g = Graph(n, frozenset(combo))
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
            if contains(g, desc).status == "absent":
                return ExtremalResult(n, desc, m, g, exhaustive=True)
    raise ValueError("the pattern has no edge")


def reference_branch_and_bound(
    n: int, desc: PatternDescriptor
) -> ExtremalResult:
    """The search `extremal_number` ran before the hereditary bounds: the
    pairs in lexicographic order, include first, one `_EdgeCheck`
    following the search and asked every time (no answer memo), and no
    cut but the count of undecided pairs.
    Its witness is the lexicographically first largest pattern-free set.
    """
    pairs = list(combinations(range(n), 2))
    check = _EdgeCheck(desc).start(Graph(n, frozenset()))
    chosen: list[tuple[int, int]] = []
    best: list[tuple[int, int]] = []

    def search(i: int) -> None:
        if len(chosen) > len(best):
            best[:] = chosen
        if len(chosen) + len(pairs) - i <= len(best):
            return
        u, v = pairs[i]
        if not check.creates(u, v):
            check.add(u, v)
            chosen.append((u, v))
            search(i + 1)
            chosen.pop()
            check.remove(u, v)
        search(i + 1)

    search(0)
    g = Graph(n, frozenset(best))
    return ExtremalResult(n, desc, g.m, g, exhaustive=True)


def first_addable_edge(
    G: Graph, desc: PatternDescriptor
) -> tuple[int, int] | None:
    """The first non-edge (u, v), u < v in lexicographic order, such that
    G + (u, v) is pattern-free; None when there is none, that is when G is
    edge-maximal or already contains the pattern.  The reference for
    `oracle.first_unblocked_pair`, which checks the climb's blocking copies
    without a search.  One `_EdgeCheck` scans the pairs, so for
    cycle-shaped patterns one distance table per target vertex serves all
    pairs.  The scan assumes a pattern-free G, so the one pair it would
    return is confirmed by `adding_edge_creates`.
    """
    check = _EdgeCheck(desc).start(G)
    for u, v in combinations(G.vertices(), 2):
        if not G.has_edge(u, v) and not check.creates(u, v):
            return None if adding_edge_creates(G, u, v, desc) else (u, v)
    return None


def reference_find_cycle(
    G: Graph, length: int, budget: SearchBudget | None = None
) -> tuple[int, ...] | None:
    """The cycle search `contains` ran before it went through `_EdgeCheck`:
    its own neighbour dicts, ascending like `G.neighbors`, and a fresh
    distance table after every deletion.
    A simple cycle with exactly `length` edges, or None (exhaustive).

    Scans edges in ascending order; after an edge is processed it is deleted,
    so every cycle is searched exactly once, at its smallest edge.
    """
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    adj = [dict.fromkeys(G.neighbors(v)) for v in G.vertices()]
    for u, v in G.sorted_edges():
        del adj[u][v], adj[v][u]
        dist = _distances_to(adj, v, length - 1, set())
        p = next(
            _walk_paths(adj, u, v, length - 1, dist, budget or SearchBudget()),
            None,
        )
        if p is not None:
            return p
    return None


def reference_peel(G: Graph) -> list[int]:
    """The peel `regularize._peel` ran before it removed in rounds:
    iteratively drop the smallest-id vertex whose degree is below half
    the current average degree; return the surviving original ids.
    """
    alive = set(G.vertices())
    deg = {v: G.degree(v) for v in alive}
    edges = G.m
    while len(alive) > 1 and edges > 0:
        avg = 2 * edges / len(alive)
        victim = None
        for v in sorted(alive):
            if deg[v] < avg / 2:
                victim = v
                break
        if victim is None:
            break
        alive.remove(victim)
        for u in G.neighbors(victim):
            if u in alive:
                deg[u] -= 1
                edges -= 1
        del deg[victim]
    return sorted(alive)
