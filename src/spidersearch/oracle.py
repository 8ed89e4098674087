"""Ground truth: backtracking pattern containment, embedding verification,
exact extremal numbers for tiny n, and maximal pattern-free hill climbing.

Containment distinguishes three outcomes: found (with a verified witness),
absent (search space exhausted), and budget-exhausted.  The two negative
outcomes are never conflated.
"""

from __future__ import annotations

import json
import random
import time
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .graph import Graph
from .patterns import (
    PatternDescriptor,
    Template,
    as_cycle_length,
    compile_template,
    instantiate,
    parse_pattern,
)


class BudgetExhausted(Exception):
    pass


@dataclass
class SearchBudget:
    node_limit: int | None = None
    time_limit: float | None = None
    nodes: int = field(default=0, init=False)
    _deadline: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node limit must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time limit must be positive")

    def start(self) -> "SearchBudget":
        self.nodes = 0
        if self.time_limit is not None:
            self._deadline = time.monotonic() + self.time_limit
        return self

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExhausted("node limit reached")
        if (
            self._deadline is not None
            and self.nodes % 1024 == 0
            and time.monotonic() > self._deadline
        ):
            raise BudgetExhausted("time limit reached")


# -- witnesses ---------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Embedding certificate: terminal images in template order plus one
    host path per template requirement (endpoints included).
    """

    pattern: PatternDescriptor
    terminals: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]
    route: str = "oracle"

    def to_json(self) -> str:
        doc = {
            "pattern": str(self.pattern),
            "roots": list(self.terminals),
            "paths": [list(p) for p in self.paths],
            "route": self.route,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Witness":
        doc = json.loads(text)
        return cls(
            pattern=parse_pattern(doc["pattern"]),
            terminals=tuple(doc["roots"]),
            paths=tuple(tuple(p) for p in doc["paths"]),
            route=doc["route"],
        )


def embedding_error(G: Graph, w: Witness) -> str | None:
    """None if the witness is a valid embedding, else the first defect."""
    tmpl = compile_template(w.pattern)
    if len(w.terminals) != tmpl.num_terminals:
        return (
            f"expected {tmpl.num_terminals} terminals, got {len(w.terminals)}"
        )
    if len(set(w.terminals)) != len(w.terminals):
        return "terminal images are not distinct"
    if any(not (0 <= v < G.n) for v in w.terminals):
        return "terminal image out of range"
    if len(w.paths) != len(tmpl.requirements):
        return (
            f"expected {len(tmpl.requirements)} paths, got {len(w.paths)}"
        )
    term_set = set(w.terminals)
    seen_internal: set[int] = set()
    for idx, ((a, b, length), path) in enumerate(
        zip(tmpl.requirements, w.paths)
    ):
        if len(path) != length + 1:
            return f"path {idx}: length {len(path) - 1}, required {length}"
        if path[0] != w.terminals[a] or path[-1] != w.terminals[b]:
            return f"path {idx}: endpoints do not match terminal images"
        if len(set(path)) != len(path):
            return f"path {idx}: repeated vertex"
        for x, y in zip(path, path[1:]):
            if not G.has_edge(x, y):
                return f"path {idx}: missing edge ({x},{y})"
        interior = set(path[1:-1])
        if interior & term_set:
            return f"path {idx}: interior touches a terminal image"
        if interior & seen_internal:
            return f"path {idx}: interior shared with another path"
        seen_internal |= interior
    return None


def verify_embedding(G: Graph, w: Witness) -> bool:
    return embedding_error(G, w) is None


# -- exact-length simple paths ----------------------------------------------


_NO_VERTICES: frozenset[int] = frozenset()


def _distances_to(
    adj: Sequence[Collection[int]],
    v: int,
    length: int,
    forbidden: Collection[int],
) -> list[int]:
    """BFS distances to `v` avoiding `forbidden` vertices, indexed by
    vertex, with `length + 1` for every vertex farther than `length`: the
    admissible pruning bound of the exact-path search.  A table stays valid
    for every source while `adj` is unchanged.
    """
    far = length + 1
    dist = [far] * len(adj)
    dist[v] = 0
    frontier = [v]
    for d in range(1, far):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] == far and y not in forbidden:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
        if not frontier:
            break
    return dist


def _walk_paths(
    adj: Sequence[Collection[int]],
    u: int,
    v: int,
    length: int,
    dist: list[int],
    budget: SearchBudget | None = None,
):
    """Generator over the simple u-v paths with exactly `length` edges, in
    depth-first order: each vertex's neighbours in the order `adj` lists
    them.  `dist` is `_distances_to(adj, v, length, forbidden)`; it puts
    every forbidden vertex out of range, so no path passes through one.
    Iterative, so the path length is not bounded by the recursion limit;
    one budget tick per node of the search tree.
    """
    if dist[u] > length:
        return
    if budget is not None:
        budget.tick()
    path = [u]
    on_path = {u}
    stack = [iter(adj[u])]
    while stack:
        rem = length - len(stack)  # edges still needed after the next step
        for y in stack[-1]:
            if y in on_path:
                continue
            if y == v:
                if rem:
                    continue
            elif dist[y] > rem:
                continue
            if budget is not None:
                budget.tick()
            if not rem:
                yield (*path, v)
                continue
            path.append(y)
            on_path.add(y)
            stack.append(iter(adj[y]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())


def _exact_path(
    adj: list[set[int]],
    u: int,
    v: int,
    length: int,
    forbidden: Collection[int],
    budget: SearchBudget | None = None,
) -> tuple[int, ...] | None:
    """One simple u-v path with exactly `length` edges whose vertices avoid
    `forbidden` (endpoints exempt), or None.  DFS with distance pruning.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if u == v or u in forbidden or v in forbidden:
        return None
    dist = _distances_to(adj, v, length, forbidden)
    return next(_walk_paths(adj, u, v, length, dist, budget), None)


def _iter_exact_paths(
    adj: Sequence[Sequence[int]],
    u: int,
    v: int,
    length: int,
    forbidden: set[int],
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
    return _walk_paths(adj, u, v, length, dist, budget)


def _adj_sets(G: Graph) -> list[set[int]]:
    return [set(G.neighbors(v)) for v in G.vertices()]


def find_cycle(
    G: Graph, length: int, budget: SearchBudget | None = None
) -> tuple[int, ...] | None:
    """A simple cycle with exactly `length` edges, or None (exhaustive).

    Scans edges in ascending order; after an edge is processed it is deleted,
    so every cycle is searched exactly once, at its smallest edge.
    """
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    adj = _adj_sets(G)
    for u, v in G.sorted_edges():
        adj[u].discard(v)
        adj[v].discard(u)
        p = _exact_path(adj, u, v, length - 1, _NO_VERTICES, budget)
        if p is not None:
            return p
    return None


def adding_edge_creates(
    G: Graph, u: int, v: int, desc: PatternDescriptor,
    budget: SearchBudget | None = None,
) -> bool:
    """Would adding the non-edge (u,v) to a pattern-free G create the
    pattern?  Incremental for cycle-shaped patterns.
    """
    M = as_cycle_length(desc)
    if M is not None:
        path = _exact_path(_adj_sets(G), u, v, M - 1, _NO_VERTICES, budget)
        return path is not None
    G2 = Graph(G.n, G.edges | {(min(u, v), max(u, v))})
    res = contains(G2, desc, budget)
    if res.status == "budget":
        raise BudgetExhausted("incremental containment check ran out of budget")
    return res.status == "found"


def first_addable_edge(
    G: Graph, desc: PatternDescriptor
) -> tuple[int, int] | None:
    """The first non-edge (u, v), u < v in lexicographic order, whose
    addition keeps the pattern-free G pattern-free; None when G is
    edge-maximal.  Agrees with `adding_edge_creates` pair by pair.  For
    cycle-shaped patterns the adjacency is built once and one distance
    table serves every pair with the same smaller endpoint.
    """
    M = as_cycle_length(desc)
    if M is None:
        for u, v in combinations(G.vertices(), 2):
            if not G.has_edge(u, v) and not adding_edge_creates(G, u, v, desc):
                return (u, v)
        return None
    adj = _adj_sets(G)
    for u in G.vertices():
        dist = _distances_to(adj, u, M - 1, _NO_VERTICES)
        for v in range(u + 1, G.n):
            if v in adj[u]:
                continue
            path = next(_walk_paths(adj, v, u, M - 1, dist), None)
            if path is None:
                return (u, v)
    return None


# -- containment -------------------------------------------------------------


@dataclass(frozen=True)
class ContainmentResult:
    status: str  # 'found' | 'absent' | 'budget'
    witness: Witness | None = None
    nodes: int = 0


def _instantiate_chains(tmpl: Template) -> list[list[int]]:
    """Pattern-graph vertex chains per requirement, matching instantiate()."""
    chains = []
    nxt = tmpl.num_terminals
    for a, b, length in tmpl.requirements:
        chains.append([a] + list(range(nxt, nxt + length - 1)) + [b])
        nxt += length - 1
    return chains


def _cycle_order(H: Graph) -> list[int]:
    """Vertex order around a graph known to be a single cycle."""
    order = [0]
    prev, cur = None, 0
    while True:
        a, b = H.neighbors(cur)
        nxt = b if a == prev else a
        if nxt == 0:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def _cycle_containment(
    G: Graph, desc: PatternDescriptor, M: int, budget: SearchBudget | None
) -> ContainmentResult:
    try:
        cyc = find_cycle(G, M, budget)
    except BudgetExhausted:
        return ContainmentResult("budget", nodes=budget.nodes if budget else 0)
    if cyc is None:
        return ContainmentResult("absent", nodes=budget.nodes if budget else 0)
    tmpl = compile_template(desc)
    H = instantiate(desc)
    vmap = dict(zip(_cycle_order(H), cyc))
    chains = _instantiate_chains(tmpl)
    w = Witness(
        pattern=desc,
        terminals=tuple(vmap[i] for i in range(tmpl.num_terminals)),
        paths=tuple(tuple(vmap[x] for x in chain) for chain in chains),
        route="oracle",
    )
    if not verify_embedding(G, w):
        raise RuntimeError("cycle witness failed verification")
    return ContainmentResult("found", w, nodes=budget.nodes if budget else 0)


def _requirement_order(tmpl: Template) -> list[int]:
    """Process requirements so each one touches already-assigned terminals
    where possible; most-constrained terminals enter first, shorter paths
    first on ties.
    """
    incident: dict[int, int] = {}
    for a, b, _ in tmpl.requirements:
        incident[a] = incident.get(a, 0) + 1
        incident[b] = incident.get(b, 0) + 1
    remaining = list(range(len(tmpl.requirements)))
    assigned: set[int] = set()
    order = []
    while remaining:
        def rank(i: int):
            a, b, ln = tmpl.requirements[i]
            known = (a in assigned) + (b in assigned)
            constraint = max(incident.get(a, 0), incident.get(b, 0))
            return (-known, ln, -constraint, i)

        best = min(remaining, key=rank)
        remaining.remove(best)
        order.append(best)
        a, b, _ = tmpl.requirements[best]
        assigned.update((a, b))
    return order


def _template_search(
    G: Graph, tmpl: Template, budget: SearchBudget | None
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]] | None:
    adj = [G.neighbors(v) for v in G.vertices()]  # ascending
    order = _requirement_order(tmpl)
    incident: dict[int, int] = {}
    for a, b, _ in tmpl.requirements:
        incident[a] = incident.get(a, 0) + 1
        incident[b] = incident.get(b, 0) + 1

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

    return (img, paths) if place(0) else None


def contains(
    G: Graph, desc: PatternDescriptor, budget: SearchBudget | None = None
) -> ContainmentResult:
    """Backtracking containment: branch-vertex assignment plus internally
    disjoint path routing.  'absent' means the search space was exhausted.
    """
    if budget is not None:
        budget.start()
    M = as_cycle_length(desc)
    if M is not None:
        return _cycle_containment(G, desc, M, budget)
    tmpl = compile_template(desc)
    try:
        sol = _template_search(G, tmpl, budget)
    except BudgetExhausted:
        return ContainmentResult("budget", nodes=budget.nodes if budget else 0)
    if sol is None:
        return ContainmentResult("absent", nodes=budget.nodes if budget else 0)
    img, paths = sol
    w = Witness(
        pattern=desc,
        terminals=tuple(img[i] for i in range(tmpl.num_terminals)),
        paths=tuple(paths[i] for i in range(len(tmpl.requirements))),
        route="oracle",
    )
    if not verify_embedding(G, w):
        raise RuntimeError("search witness failed verification")
    return ContainmentResult("found", w, nodes=budget.nodes if budget else 0)


def is_pattern_free(G: Graph, desc: PatternDescriptor) -> bool:
    """Exhaustive freeness check (no budget)."""
    return contains(G, desc).status == "absent"


# -- canonical forms and isomorphism -----------------------------------------


def _wl_colors(G: Graph) -> list[int]:
    colors = G.degrees()
    ncolors = len(set(colors))
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[u] for u in G.neighbors(v))))
            for v in G.vertices()
        ]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if len(set(new)) == ncolors:
            return new
        colors, ncolors = new, len(set(new))


_CANON_PERM_CAP = 2_000_000


def canonical_form(G: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """Isomorphism-invariant canonical form: minimal edge set over all
    vertex orders consistent with the stable degree-refinement partition.
    """
    colors = _wl_colors(G)
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    blocks = [groups[c] for c in sorted(groups)]
    count = 1
    for b in blocks:
        for i in range(2, len(b) + 1):
            count *= i
        if count > _CANON_PERM_CAP:
            raise RuntimeError("canonical form too expensive at this size")

    edges = G.sorted_edges()
    best: frozenset[tuple[int, int]] | None = None

    def rec(bi: int, relabel: dict[int, int], nxt: int) -> None:
        nonlocal best
        if bi == len(blocks):
            mapped = frozenset(
                (min(relabel[u], relabel[v]), max(relabel[u], relabel[v]))
                for u, v in edges
            )
            if best is None or sorted(mapped) < sorted(best):
                best = mapped
            return
        for perm in permutations(blocks[bi]):
            for i, v in enumerate(perm):
                relabel[v] = nxt + i
            rec(bi + 1, relabel, nxt + len(perm))

    rec(0, {}, 0)
    assert best is not None
    return (G.n, best)


def are_isomorphic(G: Graph, H: Graph) -> bool:
    """Backtracking isomorphism with degree-profile pruning."""
    if G.n != H.n or G.m != H.m:
        return False
    if sorted(G.degrees()) != sorted(H.degrees()):
        return False
    if G.n == 0:
        return True

    # order H's vertices: most mapped neighbors first, then degree
    order: list[int] = []
    placed: set[int] = set()
    while len(order) < H.n:
        best = max(
            (v for v in H.vertices() if v not in placed),
            key=lambda v: (
                sum(1 for u in H.neighbors(v) if u in placed),
                H.degree(v),
                -v,
            ),
        )
        order.append(best)
        placed.add(best)

    gadj = _adj_sets(G)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == H.n:
            return True
        v = order[i]
        for x in G.vertices():
            if x in used or G.degree(x) != H.degree(v):
                continue
            ok = True
            for u in H.neighbors(v):
                if u in mapping and mapping[u] not in gadj[x]:
                    ok = False
                    break
            if ok:
                for u, y in mapping.items():
                    if y in gadj[x] and not H.has_edge(u, v):
                        ok = False
                        break
            if ok:
                mapping[v] = x
                used.add(x)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(x)
        return False

    return extend(0)


# -- extremal numbers ---------------------------------------------------------


@dataclass(frozen=True)
class ExtremalResult:
    n: int
    pattern: PatternDescriptor
    value: int
    witness_graph: Graph
    exhaustive: bool


EXHAUSTIVE_N_LIMIT = 10


def extremal_number(
    n: int, desc: PatternDescriptor, budget: SearchBudget | None = None
) -> ExtremalResult:
    """Maximum edge count of a pattern-free graph on n vertices.

    Exhaustive for n <= 10: enumerate graphs by edge count descending with
    canonical-form isomorph rejection; the first pattern-free graph found
    settles the value.  Larger n, or budget exhaustion, falls back to the
    hill-climbing heuristic (exhaustive flag False).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > EXHAUSTIVE_N_LIMIT:
        g = hill_climb_free(n, desc, iterations=20 * n * n, seed=0)
        return ExtremalResult(n, desc, g.m, g, exhaustive=False)
    pairs = list(combinations(range(n), 2))
    if budget is not None:
        budget.start()
    try:
        for m in range(len(pairs), -1, -1):
            seen: set[tuple[int, frozenset[tuple[int, int]]]] = set()
            for combo in combinations(pairs, m):
                if budget is not None:
                    budget.tick()
                g = Graph(n, frozenset(combo))
                key = canonical_form(g)
                if key in seen:
                    continue
                seen.add(key)
                res = contains(g, desc)
                if res.status == "absent":
                    return ExtremalResult(n, desc, m, g, exhaustive=True)
    except BudgetExhausted:
        pass
    g = hill_climb_free(n, desc, iterations=20 * n * n, seed=0)
    return ExtremalResult(n, desc, g.m, g, exhaustive=False)


# -- hill climbing -------------------------------------------------------------


def hill_climb_free(
    n: int, desc: PatternDescriptor, iterations: int, seed: int
) -> Graph:
    """Randomized maximal pattern-free graph: add random edges, keeping an
    addition only when the graph stays pattern-free; restart when a run
    saturates and the test budget remains.  Every returned graph is
    edge-maximal: a run only ends once no candidate edge is addable.

    For cycle-shaped patterns a candidate is blocked iff an (M-1)-edge path
    joins its endpoints.  Distance tables, one per target vertex, are shared
    between candidate tests and dropped when an accepted edge changes them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = random.Random(seed)
    M = as_cycle_length(desc)
    best: Graph | None = None
    tests = 0
    while best is None or tests < iterations:
        edges: set[tuple[int, int]] = set()
        adj: list[set[int]] = [set() for _ in range(n)]
        tables: dict[int, list[int]] = {}
        candidates = list(combinations(range(n), 2))
        while candidates:
            i = rng.randrange(len(candidates))
            candidates[i], candidates[-1] = candidates[-1], candidates[i]
            u, v = candidates.pop()
            tests += 1
            if M is not None:
                # search towards an endpoint that already has a table
                a, b = (v, u) if u in tables and v not in tables else (u, v)
                dist = tables.get(b)
                if dist is None:
                    dist = tables[b] = _distances_to(adj, b, M - 1, _NO_VERTICES)
                path = next(_walk_paths(adj, a, b, M - 1, dist), None)
                blocked = path is not None
            else:
                blocked = adding_edge_creates(
                    Graph(n, frozenset(edges)), u, v, desc
                )
            if not blocked:
                edges.add((u, v))
                adj[u].add(v)
                adj[v].add(u)
                # the edge shortens no distance in a table where its ends
                # lie at most one level apart (M standing for "out of range")
                tables = {
                    t: d for t, d in tables.items()
                    if abs(d[u] - d[v]) <= 1
                }
        g = Graph(n, frozenset(edges))
        if best is None or g.m > best.m:
            best = g
    return best
