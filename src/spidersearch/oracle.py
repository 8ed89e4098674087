"""Ground truth: backtracking pattern containment, embedding verification,
exact extremal numbers for tiny n, and maximal pattern-free hill climbing.

Containment distinguishes three outcomes: found (with a verified witness),
absent (search space exhausted), and budget-exhausted.  The two negative
outcomes are never conflated.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Callable, Collection, Sequence
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .graph import Graph
from .patterns import (
    PatternDescriptor,
    Template,
    as_cycle_length,
    compile_template,
    cycle_order,
    instantiate,
    parse_pattern,
    requirement_chains,
)


class BudgetExhausted(Exception):
    pass


class SearchBudget:
    __slots__ = ("node_limit", "nodes")

    def __init__(self, node_limit: int | None = None) -> None:
        if node_limit is not None and node_limit <= 0:
            raise ValueError("node limit must be positive")
        self.node_limit, self.nodes = node_limit, 0

    def start(self) -> "SearchBudget":
        self.nodes = 0
        return self

    def tick(self) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise BudgetExhausted("node limit reached")


# -- witnesses ---------------------------------------------------------------


class Witness(NamedTuple):
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
    return _embedding_error(w, G.n, G.has_edge)


def _embedding_error(
    w: Witness, n: int, linked: Callable[[int, int], bool]
) -> str | None:
    """`embedding_error` on the host 0..n-1 whose edges `linked` tells."""
    tmpl = compile_template(w.pattern)
    if len(w.terminals) != tmpl.num_terminals:
        return (
            f"expected {tmpl.num_terminals} terminals, got {len(w.terminals)}"
        )
    if len(set(w.terminals)) != len(w.terminals):
        return "terminal images are not distinct"
    if any(not (0 <= v < n) for v in w.terminals):
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
            if not linked(x, y):
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


def _witness(desc: PatternDescriptor, tmpl: Template, img: dict[int, int],
             paths: Sequence | dict[int, tuple[int, ...]]) -> Witness:
    """The witness of terminal images and host paths in template order."""
    return Witness(desc, tuple(img[t] for t in range(tmpl.num_terminals)),
                   tuple(paths[i] for i in range(len(tmpl.requirements))))


# -- exact-length simple paths ----------------------------------------------


_NO_VERTICES: frozenset[int] = frozenset()


def _adjacency(G: Graph) -> list[dict[int, None]]:
    """Ascending neighbour dicts: the adjacency every oracle search walks."""
    return [dict.fromkeys(G.neighbors(v)) for v in G.vertices()]


def _distances_to(
    adj: Sequence[Collection[int]],
    v: int,
    length: int,
    forbidden: Collection[int],
) -> list[int]:
    """BFS distances to `v` avoiding `forbidden` vertices, indexed by
    vertex, with `length + 1` for every vertex farther than `length`: the
    admissible pruning bound of the exact-path search.  A table stays valid
    for every source while `adj` is unchanged; `_EdgeCheck.add` repairs
    its tables in place when an edge is added.
    """
    far = length + 1
    dist = [far] * len(adj)
    dist[v] = 0
    _lower(adj, dist, [v], 1, far, forbidden)
    return dist


def _lower(
    adj: Sequence[Collection[int]],
    dist: list[int],
    frontier: list[int],
    d: int,
    far: int,
    forbidden: Collection[int],
) -> None:
    """Lower `dist` level by level outward from `frontier`, whose vertices
    lie at level d - 1: each of their neighbours outside `forbidden` that
    lies above level d drops to d and joins the next frontier, up to level
    far - 1.  A level that lowers nothing ends the loop.
    """
    for d in range(d, far):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if dist[y] > d and y not in forbidden:
                    dist[y] = d
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt


def _walk_paths(
    adj: Sequence[Collection[int]],
    u: int,
    v: int,
    length: int,
    dist: list[int],
    budget: SearchBudget | None,
):
    """Generator over the simple u-v paths with exactly `length` edges, in
    depth-first order: each vertex's neighbours in the order `adj` lists
    them.  `dist` is `_distances_to(adj, v, length, forbidden)`; it puts
    every forbidden vertex out of range, so no path passes through one.
    Iterative, so the path length is not bounded by the recursion limit;
    one tick of `budget` per node of the search tree when one is given
    (`contains` always gives one, the edge check none).
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


class _EdgeCheck:
    """Does adding the non-edge (u, v) to a pattern-free graph create the
    pattern?  One instance follows one graph, kept as an `_adjacency` that
    `add` (appending neighbours) and `remove` change.  On a graph that
    already contains the pattern, it asks for a new copy through (u, v).

    A cycle of length M appears iff `path` finds an (M-1)-edge u-v path;
    `contains` finds cycles by the same walk.  Its BFS distance tables, one
    per target vertex, are shared between queries.  An added edge only
    lowers distances, so `add` repairs every table in place; `remove`
    drops a table that the removed edge may lengthen.

    For other patterns every new copy uses the edge (u, v), so the check
    maps (u, v) onto one pattern edge per anchor (see `_anchors`), in both
    orientations, and `_template_search` routes the rest of the copy with
    those two images pinned.  A copy it finds is spliced back into a
    witness of the whole pattern and verified on the graph plus (u, v).

    `copy_through` returns the copy it found, the cycle's path or the
    verified witness, and `creates` is whether there was one.  The copy is
    what `_AnswerMemo` keeps to answer a later "yes" without a search, and
    what `hill_climb_free` hands back as the certificate of a rejected
    pair.

    Both searches run without a `SearchBudget`: a creation test always
    runs to its answer, and counts no nodes.
    """

    def __init__(self, desc: PatternDescriptor) -> None:
        self.desc = desc
        self.M = as_cycle_length(desc)
        if self.M is None:
            self.tmpl = compile_template(desc)
            self.anchors = _anchors(self.tmpl)

    def start(self, G: Graph) -> "_EdgeCheck":
        """Follow G from here on, forgetting any earlier graph."""
        self.adj = _adjacency(G)
        self.tables: dict[int, list[int]] = {}
        return self

    def creates(self, u: int, v: int) -> bool:
        return self.copy_through(u, v) is not None

    def copy_through(
        self, u: int, v: int
    ) -> tuple[int, ...] | Witness | None:
        """A copy of the pattern in the graph plus (u, v) that uses (u, v),
        or None.  For a cycle it is the one path whose ends (u, v) closes,
        from either end; otherwise the verified witness."""
        if self.M is not None:
            # search towards an endpoint that already has a table
            if u in self.tables and v not in self.tables:
                u, v = v, u
            return self.path(u, v, None)
        # the pins are in use, so no other path of the copy can take the
        # edge (u, v): the rest of the copy is searched in the graph itself
        for anchor in self.anchors:
            anchored, _, x, y = anchor
            for pins in ({x: u, y: v}, {x: v, y: u}):
                sol = _template_search(self.adj, anchored, None, pins)
                if sol is not None:
                    return self._verify(u, v, anchor, *sol)
        return None

    def path(
        self, u: int, v: int, budget: SearchBudget | None
    ) -> tuple[int, ...] | None:
        """The first u-v path with M-1 edges in `_walk_paths` order, or
        None, pruned by the distance table to v; ticks `budget` if given."""
        adj, tables, length = self.adj, self.tables, self.M - 1
        if v not in tables:
            tables[v] = _distances_to(adj, v, length, _NO_VERTICES)
        return next(_walk_paths(adj, u, v, length, tables[v], budget), None)

    def _verify(
        self, u: int, v: int, anchor: tuple[Template, int, int, int],
        img: dict[int, int], paths: dict[int, tuple[int, ...]],
    ) -> Witness:
        """Splice an embedding of the anchored template into a witness of
        the pattern, verify it on the graph plus (u, v) and return it."""
        anchored, r, x, y = anchor
        a, b, _ = self.tmpl.requirements[r]
        rest = [paths[i] for i in range(len(self.tmpl.requirements) - 1)]
        head = paths[len(rest)] if x != a else (img[a],)
        tail = paths[len(anchored.requirements) - 1] if y != b else (img[b],)
        w = _witness(self.desc, self.tmpl, img,
                     [*rest[:r], head + tail, *rest[r:]])
        adj, e = self.adj, {u, v}
        if _embedding_error(
            w, len(adj), lambda p, q: q in adj[p] or {p, q} == e
        ) is not None:
            raise RuntimeError("anchored witness failed verification")
        return w

    def add(self, u: int, v: int) -> None:
        adj = self.adj
        adj[u][v] = adj[v][u] = None
        # the edge can only bring the far end to one level past the near
        # end, and from there its neighbours (M standing for "out of
        # range", so no entry drops to M); where the ends lie at most one
        # level apart it shortens nothing
        for dist in self.tables.values():
            near, far_end = (u, v) if dist[u] < dist[v] else (v, u)
            d = dist[near] + 1
            if d < dist[far_end]:
                dist[far_end] = d
                _lower(adj, dist, [far_end], d + 1, self.M, _NO_VERTICES)

    def remove(self, u: int, v: int) -> None:
        del self.adj[u][v], self.adj[v][u]
        # an edge whose ends lie on one level is on no shortest path to the
        # target, so removing it lengthens no distance in that table
        self.tables = {
            t: d for t, d in self.tables.items() if d[u] == d[v]
        }


def _anchors(tmpl: Template) -> list[tuple[Template, int, int, int]]:
    """The anchored templates of `tmpl`: one per orbit of its edges under
    the swaps of twin terminals (see `_twin_classes`).

    The edge at position j of requirement r = (a, b, L) joins the j-th and
    (j+1)-th vertices of that path.  Its anchored template drops r; the
    edge's ends become terminals x and y (x = a when j = 0, y = b when
    j = L-1, new terminals numbered on from the template's otherwise), and
    it adds the requirements (a, x, j) and (y, b, L-1-j) whose lengths are
    positive, in that order after the others.  A copy of the pattern that
    maps this edge onto (u, v) is an embedding of the anchored template
    with x and y pinned to u and v.

    Twin swaps generate every permutation within each twin class, and
    each permutation is an automorphism of the pattern.  So two edges lie
    in one orbit iff their paths have one length and ends in the same
    classes, and they sit at the same position counted from ends in the
    same class; the copies through one are images of the copies through
    the other, and one anchor per orbit loses no copy.  Returns tuples
    (anchored template, r, x, y).
    """
    cls = _twin_classes(tmpl)
    reqs = tmpl.requirements
    first: dict[tuple[int, int, int, int], tuple[int, int]] = {}
    for r, (a, b, ln) in enumerate(reqs):
        ca, cb = cls[a], cls[b]
        for j in range(ln):
            key = min((ca, cb, ln, j), (cb, ca, ln, ln - 1 - j))
            first.setdefault(key, (r, j))

    anchors = []
    T = tmpl.num_terminals
    for r, j in first.values():
        a, b, ln = reqs[r]
        x = a if j == 0 else T
        y = b if j == ln - 1 else T + (j > 0)
        extra = ((a, x, j),) * (j > 0) + ((y, b, ln - 1 - j),) * (j < ln - 1)
        anchored = Template(
            T + (j > 0) + (j < ln - 1), reqs[:r] + reqs[r + 1:] + extra
        )
        anchors.append((anchored, r, x, y))
    return anchors


def adding_edge_creates(
    G: Graph, u: int, v: int, desc: PatternDescriptor
) -> bool:
    """Does G + (u, v) contain the pattern?  A fresh `contains` on every
    host, pattern-free or not.
    """
    e = (min(u, v), max(u, v))
    return contains(Graph(G.n, G.edges | {e}), desc).status == "found"


# -- containment -------------------------------------------------------------


class ContainmentResult(NamedTuple):
    status: str  # 'found' | 'absent' | 'budget'
    witness: Witness | None = None
    nodes: int = 0


def _cycle_embedding(
    G: Graph, desc: PatternDescriptor, tmpl: Template, budget: SearchBudget,
) -> tuple[dict[int, int], list[tuple[int, ...]]] | None:
    """The first cycle of the pattern's length in G as terminal images and
    host paths, or None (exhaustive).  The check follows G as its edges
    are deleted in ascending order and walks from u to v after deleting
    (u, v), so every cycle is searched once, at its smallest edge."""
    check = _EdgeCheck(desc).start(G)
    for u, v in G.sorted_edges():
        check.remove(u, v)
        cyc = check.path(u, v, budget)
        if cyc is not None:
            vmap = dict(zip(cycle_order(instantiate(desc)), cyc))
            return vmap, [tuple(vmap[x] for x in c)
                          for c in requirement_chains(tmpl)]
    return None


def _requirement_order(
    tmpl: Template,
    incident: dict[int, int],
    pinned: Collection[int] = _NO_VERTICES,
) -> list[int]:
    """Process requirements so each one touches already-assigned terminals
    where possible, the `pinned` ones assigned from the start;
    most-constrained terminals (by `incident`, requirements per terminal)
    enter first, shorter paths first on ties.
    """
    remaining = list(range(len(tmpl.requirements)))
    assigned: set[int] = set(pinned)
    order = []
    while remaining:
        def rank(i: int):
            a, b, ln = tmpl.requirements[i]
            known = (a in assigned) + (b in assigned)
            return (-known, ln, -max(incident[a], incident[b]), i)

        best = min(remaining, key=rank)
        remaining.remove(best)
        order.append(best)
        a, b, _ = tmpl.requirements[best]
        assigned.update((a, b))
    return order


def _twin_classes(tmpl: Template) -> list[int]:
    """Map each terminal to the first member of its twin class.

    Terminals p and q are twins when swapping them maps the requirement
    multiset {({a, b}, length)} onto itself.  Twinship is an equivalence
    (a product of two such swaps conjugates into a third), so a terminal
    is compared with the first member of each class only.  Terminals that
    no requirement touches form one class.
    """
    def shape(swap: dict[int, int]) -> Counter:
        return Counter(
            (frozenset((swap.get(a, a), swap.get(b, b))), ln)
            for a, b, ln in tmpl.requirements
        )

    plain = shape({})
    cls: list[int] = []
    for q in range(tmpl.num_terminals):
        firsts = dict.fromkeys(cls)  # the first member of each class so far
        cls.append(next(
            (p for p in firsts if shape({p: q, q: p}) == plain), q))
    return cls


_GONE = object()  # the old value of a key that a search trail entry added

# a process meets few templates, each with one plan per anchor plus the
# unpinned one; the bound keeps a process meeting many from growing
_PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _search_plan(tmpl: Template, pinned: frozenset[int]) -> tuple[
    Counter, tuple[int, ...], dict[int, int], int, int, int
]:
    """What `_template_search` derives from the template and its pinned
    terminals alone: requirements per terminal, the requirement order
    seeded with the pins, for each other terminal the twin that entered
    just before it (if any), and the pattern half of the size gate (the
    pattern's edge count, the number of its unpinned vertices and their
    smallest degree).  Memoised; callers only read it.
    """
    reqs = tmpl.requirements
    incident = Counter(t for a, b, _ in reqs for t in (a, b))
    order = _requirement_order(tmpl, incident, pinned)
    entry = dict.fromkeys(
        t for r in order for t in reqs[r][:2] if t not in pinned
    )
    cls = _twin_classes(tmpl)
    after: dict[int, int] = {}
    latest: dict[int, int] = {}  # the last member to enter, per class
    for q in entry:
        if cls[q] in latest:
            after[q] = latest[cls[q]]
        latest[cls[q]] = q
    size = sum(ln for *_, ln in reqs)
    # the pattern degrees of the unpinned terminals, then of path interiors
    degrees = [
        incident[t] for t in range(tmpl.num_terminals) if t not in pinned
    ] + [2] * (size - len(reqs))
    return (incident, tuple(order), after,
            size, len(degrees), min(degrees, default=0))


def _template_search(
    adj: Sequence[Collection[int]],
    tmpl: Template,
    budget: SearchBudget | None,
    pins: dict[int, int] | None = None,
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]] | None:
    """The first embedding of the template in the host with adjacency
    `adj`, in search order, or None; `pins` maps terminals to fixed images.
    `adj` is an `_adjacency`, whose order paths follow.  The memoised
    `_search_plan` holds all that depends on the template and the pinned
    terminals alone, from the orders to the pattern half of the size gate.

    Size gate: every pattern vertex but the pinned ones needs a host vertex
    of its own whose degree reaches the smallest pattern degree among them,
    and each pin's degree must reach its terminal's.  A template that fails
    this, or has more edges than the host, is absent before the first
    node.  With pins, the host and the template miss one edge of
    the pattern at the pins (see `_EdgeCheck`), so the gate reads the
    degrees of the host plus that edge.

    Requirements are routed in `_requirement_order`; a requirement with a
    new end tries its images in ascending vertex order, among the unused
    vertices whose degree reaches the terminal's requirement count.
    Terminals enter in that order, `a` before `b`, and within each twin
    class (see `_twin_classes`) a terminal's candidates start one past the
    image of the twin that entered just before it.  So the mirror of
    an embedding that breaks this order lies in an earlier, exhaustively
    searched sibling branch, and a swap of two unpinned twins fixes the
    pins.  Up to s!·t! times fewer nodes for K_{s,t}^k.

    A requirement of length 1 asks only whether its ends are adjacent.
    One of length 3 or more tries every exact path in `_walk_paths` order;
    all paths of one search node avoid the same set, so distance tables
    are shared per target within the node, and a new `b` skips every image
    out of range of `a`'s table.  A requirement of length 2 builds no
    table and is deferred: its middle is a common neighbour of its ends
    that no terminal image or longer path uses, and the middles must be
    distinct, which is a bipartite matching (the all-different filter of
    Régin, 1994).  The matching lives in `owner` alone (middle to
    requirement) and grows by an augmenting path (`augment`) per
    requirement, which moves every middle along the path at once; a vertex
    that a new terminal or a longer path takes from it sends its
    requirement down another one.  When either finds none, no embedding
    extends the branch.  A requirement's middles are read from `middles`,
    its ends' common neighbours in `adj` order, memoised by the pair of
    end images.  The memo holds for this call only: `adj` is fixed while
    the search runs but changes between searches (`_EdgeCheck.add` and
    `remove`), so it is dropped on return and needs no trail entries.
    A length-2 requirement whose ends are both placed before its turn is
    routed by `augment` alone.
    A new `b` needs a neighbour of `a`'s image that no terminal image or
    longer path uses.  The leaf reads the paths of length 1 and 2 off the
    terminal images and the inverted matching.

    Without length-2 requirements the first embedding is the unordered
    search's, in at most as many budget ticks.  With them, the images and
    longer paths are tried in the same order, but the witness can take
    other middles, and the tick count is bounded by no case-by-case rule.

    The search is a loop over an explicit stack of one branch generator
    per routed requirement (`branches`), so the requirement count is not
    bounded by the recursion limit; every change to the images, the used
    vertices, the longer paths and the matching is undone from one trail.
    One tick of `budget`, when one is given, per search node and per
    `_walk_paths` node (`contains` always gives one; the edge check gives
    none, so its searches count nothing and run to their answer).
    Terminals that no requirement touches take the smallest unused
    vertices last; their pattern degree is 0, so the size gate has counted
    a host vertex for each.
    """
    reqs = tmpl.requirements
    pins = pins or {}
    incident, order, after, size, need, low = _search_plan(
        tmpl, frozenset(pins))
    deg = [len(ns) for ns in adj]
    room = sum(d >= low for d in deg)
    room -= sum(deg[x] >= low for x in pins.values())  # taken by pins
    if (
        2 * size > sum(deg)  # degrees sum to twice the edges
        or need > room
        or any(deg[x] < incident[t] for t, x in pins.items())
    ):
        return None

    img = dict(pins)
    # terminal images and the interiors of paths longer than 2; the middles
    # of length-2 paths are in `owner` instead
    used = dict.fromkeys(pins.values(), True)
    paths: dict[int, tuple[int, ...]] = {}  # longer than 2 until the leaf
    owner: dict[int, int | None] = {}  # the matching: middle -> requirement
    trail: list[tuple[dict, int, object]] = []  # (dict, key, old value)

    def put(d: dict, k: int, v: object) -> None:
        trail.append((d, k, d.get(k, _GONE)))
        d[k] = v

    def undo(mark: int) -> None:
        while len(trail) > mark:
            d, k, old = trail.pop()
            if old is _GONE:
                del d[k]
            else:
                d[k] = old

    common: dict[tuple[int, int], tuple[int, ...]] = {}

    def middles(r: int) -> tuple[int, ...]:
        """The common neighbours of length-2 requirement r's end images,
        in `adj[img[a]]` order, used or not; memoised for this call."""
        a, b, _ = reqs[r]
        key = (img[a], img[b])
        ms = common.get(key)
        if ms is None:
            near = adj[key[1]]
            ms = common[key] = tuple(m for m in adj[key[0]] if m in near)
        return ms

    def augment(r: int) -> bool:
        """Match the unmatched requirement r along an augmenting path
        (Kuhn), depth first on an explicit stack; False if there is none.
        A requirement takes its first free middle when it has one and
        otherwise tries to move the holders of its middles, in `middles`
        order.  A free middle is taken without building the stack or the
        seen set, and when every middle of r is in use there is no path.
        """
        ms = middles(r)
        any_held = False
        for m in ms:
            if m not in used:
                if owner.get(m) is None:
                    put(owner, m, r)
                    return True
                any_held = True
        if not any_held:
            return False
        seen: set[int] = set()
        # [requirement, its middles not yet tried, the one it moves to]
        stack = [[r, (m for m in ms if m not in used), None]]
        while stack:
            for m in stack[-1][1]:
                if m not in seen:
                    break
            else:
                stack.pop()
                continue
            seen.add(m)
            stack[-1][2] = m
            q = owner[m]
            held = []
            for m in middles(q):
                if m not in used:
                    if owner.get(m) is None:  # move the path's middles
                        put(owner, m, q)
                        for q, _, m in reversed(stack):
                            put(owner, m, q)
                        return True
                    held.append(m)
            stack.append([q, iter(held), None])
        return False

    def take(x: int) -> bool:
        """Put x in use, re-matching the requirement whose middle it was."""
        put(used, x, True)
        r = owner.get(x)
        if r is None:
            return True
        put(owner, x, None)
        return augment(r)

    def shared(x: int) -> set[int]:
        """The vertices that share with x a neighbour outside `used`."""
        return {y for m in adj[x] if m not in used for y in adj[m]}

    def candidates(term: int) -> list[int]:
        """Unused vertices past term's twin, of degree >= incident[term]."""
        first = img[after[term]] + 1 if term in after else 0
        least = incident[term]
        return [x for x in range(first, len(adj))
                if deg[x] >= least and x not in used]

    def branches(pos: int):
        """Route requirement order[pos] each way in turn: apply the route,
        yield True, and undo it on resuming."""
        ridx = order[pos]
        a, b, length = reqs[ridx]
        new_a, new_b = a not in img, b not in img
        if length == 2 and not (new_a or new_b):  # `augment` decides
            mark = len(trail)
            if augment(ridx):
                yield True
                undo(mark)
            return
        if length > 2:
            forb = used.keys() - {img.get(a), img.get(b)}
            tables: dict[int, list[int]] = {}

            def table(v: int) -> list[int]:
                dist = tables.get(v)
                if dist is None:
                    dist = tables[v] = _distances_to(adj, v, length, forb)
                return dist

        xas = candidates(a) if new_a else (img[a],)
        if length == 2 and new_a and not new_b:
            near = shared(img[b])
            xas = [x for x in xas if x in near]
        start = len(trail)
        for xa in xas:
            if new_a:
                put(img, a, xa)
                if not take(xa):
                    undo(start)
                    continue
            at_a = len(trail)
            if new_b and length > 2:
                dist = table(xa)
                xbs = [x for x in candidates(b) if dist[x] <= length]
            elif new_b:
                near = adj[xa] if length == 1 else shared(xa)
                xbs = [x for x in candidates(b) if x in near]
            elif length == 1:
                xbs = [img[b]] if img[b] in adj[xa] else []
            elif length == 2:  # `augment` decides
                xbs = [img[b]]
            else:
                xbs = [img[b]] if table(img[b])[xa] <= length else []
            for xb in xbs:
                if new_b:
                    put(img, b, xb)
                    if not take(xb):
                        undo(at_a)
                        continue
                if length > 2:
                    at_b = len(trail)
                    for path in _walk_paths(
                        adj, xa, xb, length, table(xb), budget
                    ):
                        put(paths, ridx, path)
                        if all(take(y) for y in path[1:-1]):
                            yield True
                        undo(at_b)
                elif length == 1 or augment(ridx):
                    yield True
                undo(at_a)
            undo(start)

    if budget is not None:
        budget.tick()
    stack = []  # one branch generator per routed requirement
    while len(stack) < len(order):
        stack.append(branches(len(stack)))
        while not next(stack[-1], False):
            stack.pop()
            if not stack:
                return None
        if budget is not None:
            budget.tick()
    middle = {r: m for m, r in owner.items() if r is not None}
    for r, (a, b, length) in enumerate(reqs):  # every routed one holds
        if length == 1:
            paths[r] = (img[a], img[b])
        elif length == 2:
            paths[r] = (img[a], middle[r], img[b])
    loose = [t for t in range(tmpl.num_terminals) if t not in img]
    free = [
        x for x in range(len(adj)) if x not in used and owner.get(x) is None
    ]
    img.update(zip(loose, free))
    return img, paths


def contains(
    G: Graph, desc: PatternDescriptor, budget: SearchBudget | None = None
) -> ContainmentResult:
    """Backtracking containment: branch-vertex assignment plus internally
    disjoint path routing.  'absent' means the search space was exhausted.

    Cycle-shaped patterns take the edge check's path walk
    (`_cycle_embedding`), other patterns `_template_search`, which answers
    'absent' at once (0 nodes) when the pattern graph has more edges than
    G, or more vertices than G has vertices of at least its smallest
    degree.  It defers the middles of length-2 paths into a matching.
    Without such paths, its twin ordering returns the same witness as the
    unordered search in at most as many nodes, so a `--node-limit` that
    sufficed for that search still does; with them, the status is the
    same, but the witness can take other middles and the node count
    differs case by case (far fewer in total).  Both routes read G as one
    `_adjacency`, so the witness is the first in ascending neighbour order.
    Either route's embedding is verified.

    `nodes` is the search's node count on every outcome, with or without a
    `budget`: without one the search ticks a fresh unlimited budget, so
    it is counted the same way.  (The edge check's searches, which give
    `_walk_paths` and `_template_search` no budget, count nothing.)
    """
    budget = (budget or SearchBudget()).start()
    tmpl = compile_template(desc)
    M = as_cycle_length(desc)
    try:
        if M is not None:
            sol = _cycle_embedding(G, desc, tmpl, budget)
        else:
            sol = _template_search(_adjacency(G), tmpl, budget)
    except BudgetExhausted:
        return ContainmentResult("budget", nodes=budget.nodes)
    if sol is None:
        return ContainmentResult("absent", nodes=budget.nodes)
    w = _witness(desc, tmpl, *sol)
    if not verify_embedding(G, w):
        route = "cycle" if M is not None else "search"
        raise RuntimeError(f"{route} witness failed verification")
    return ContainmentResult("found", w, nodes=budget.nodes)


def is_pattern_free(G: Graph, desc: PatternDescriptor) -> bool:
    """Exhaustive freeness check (no budget)."""
    return contains(G, desc).status == "absent"


# -- canonical forms and isomorphism -----------------------------------------


def _equitable(
    adj: Sequence[Collection[int]], cells: list[list[int]]
) -> list[list[int]]:
    """Refine the ordered partition `cells` until it is equitable.  Each
    round gives every vertex the signature of its neighbours' cell indices
    and splits every cell by signature, the parts ordered by signature.
    """
    cell_of = [0] * len(adj)
    while True:
        for i, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = i
        refined: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple(sorted([cell_of[u] for u in adj[v]]))
                parts.setdefault(sig, []).append(v)
            refined.extend(parts[sig] for sig in sorted(parts))
        if len(refined) == len(cells):
            return cells
        cells = refined


def canonical_form(G: Graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """Complete isomorphism invariant by individualisation-refinement
    (McKay & Piperno, 2014): the lexicographically smallest sorted edge list
    over the leaves of the search tree, where each node individualises a
    vertex of the first non-singleton cell of its equitable partition and
    a leaf numbers every vertex by its cell.  A vertex twin to one already
    tried (N(u) - {v} = N(v) - {u}) is skipped: swapping the two is an
    automorphism fixing the partition, so its subtree gives the same leaves.
    """
    adj = [set(G.neighbors(v)) for v in G.vertices()]
    edges = G.sorted_edges()
    best: list[tuple[int, int]] | None = None

    def search(cells: list[list[int]]) -> None:
        nonlocal best
        cells = _equitable(adj, cells)
        i = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if i is None:
            label = [0] * G.n
            for pos, (v,) in enumerate(cells):
                label[v] = pos
            relabelled = sorted(
                (label[u], label[v]) if label[u] < label[v]
                else (label[v], label[u])
                for u, v in edges
            )
            if best is None or relabelled < best:
                best = relabelled
            return
        cell = cells[i]
        tried: list[int] = []
        for v in cell:
            if any(adj[u] - {v} == adj[v] - {u} for u in tried):
                continue
            tried.append(v)
            rest = [u for u in cell if u != v]
            search(cells[:i] + [[v], rest] + cells[i + 1:])

    search([list(G.vertices())])
    return (G.n, frozenset(best))


def are_isomorphic(G: Graph, H: Graph) -> bool:
    """Equality of canonical forms."""
    return canonical_form(G) == canonical_form(H)


# -- extremal numbers ---------------------------------------------------------


class ExtremalResult(NamedTuple):
    n: int
    pattern: PatternDescriptor
    value: int
    witness_graph: Graph
    exhaustive: bool


EXHAUSTIVE_N_LIMIT = 7


def extremal_number(
    n: int, desc: PatternDescriptor, budget: SearchBudget | None = None
) -> ExtremalResult:
    """Maximum edge count of a pattern-free graph on n vertices.

    Exhaustive for n <= EXHAUSTIVE_N_LIMIT: `_branch_and_bound` settles
    ex(j, F) for j = 1, 2, ..., n in turn, each search bounded by the
    values before it.  Being pattern-free is hereditary, so they give
    three cuts: the pairs left at the current vertex u plus ex(n-u-1, F)
    for the vertices after it; a vertex whose chosen and undecided pairs
    leave it too few, as deleting it keeps at most ex(n-1, F) edges; and
    the averaging ceiling n·ex(n-1, F)/(n-2) (Katona, Nemetz & Simonovits,
    1964), which ends a search once the best set reaches it.  The values
    live in this call only.  The witness is the lexicographically first
    largest pattern-free edge set, as without the cuts, which only drop
    branches that cannot beat the best set.  `budget` counts the nodes of
    all n searches.  Larger n, or budget exhaustion in any of them, falls
    back to the hill-climbing heuristic (exhaustive flag False).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= EXHAUSTIVE_N_LIMIT:
        budget = (budget or SearchBudget()).start()
        check = _EdgeCheck(desc)
        ex = [0]  # ex[j] = ex(j, F), for j below the search in progress
        try:
            for j in range(1, n + 1):
                best = _branch_and_bound(j, check, ex, budget)
                ex.append(len(best))
            g = Graph(n, frozenset(best))
            return ExtremalResult(n, desc, g.m, g, exhaustive=True)
        except BudgetExhausted:
            pass
    g = hill_climb_free(n, desc, iterations=20 * n * n, seed=0).graph
    return ExtremalResult(n, desc, g.m, g, exhaustive=False)


class _AnswerMemo:
    """`check.creates` for the pairs `pairs` on graphs given as int masks
    over the pair indices: recalled from an earlier answer where one
    carries over, asked of `check` otherwise.  Being pattern-free is
    hereditary, so (nogood and witness recording; Dechter, 1990):
    - "no" on a graph stays "no" on each of its subgraphs; per pair, the
      masks of the last `KEPT` graphs that answered "no" are kept;
    - "yes" stays "yes" while every other edge of the copy found is
      present; per pair, the mask of the last copy is kept.
    So every answer is exact.  `check` must hold the graph of the mask it
    is asked about.
    """

    KEPT = 4

    def __init__(self, check: _EdgeCheck, pairs: list[tuple[int, int]]):
        self.check = check
        self.pairs = pairs
        self.bit = {p: 1 << i for i, p in enumerate(pairs)}
        self.free: list[list[int]] = [[] for _ in pairs]
        self.copy = [1 << len(pairs)] * len(pairs)  # a bit no mask has

    def creates(self, i: int, mask: int) -> bool:
        """Does adding pair i to the graph `mask` create the pattern?"""
        copy = self.copy[i]
        if copy & mask == copy:
            return True
        for free in self.free[i]:
            if mask | free == free:
                return False
        found = self.check.copy_through(*self.pairs[i])
        if found is None:
            self.free[i] = [mask, *self.free[i][:self.KEPT - 1]]
            return False
        bit, copy = self.bit, 0
        for path in (found,) if self.check.M is not None else found.paths:
            for a, b in zip(path, path[1:]):
                copy |= bit[(a, b) if a < b else (b, a)]
        self.copy[i] = copy & ~bit[self.pairs[i]]
        return True


def _branch_and_bound(
    n: int, check: _EdgeCheck, ex: list[int], budget: SearchBudget
) -> list[tuple[int, int]]:
    """The lexicographically first largest pattern-free edge set on n
    vertices, given ex[j] = ex(j, F) for every j < n.

    A depth-first search decides the pairs in lexicographic order, include
    first, one budget tick per node; `check` follows it as it adds and
    removes pairs and admits a pair only while the graph stays
    pattern-free.  A set is kept only when it is strictly larger than the
    best so far, and every cut drops a branch that cannot be.

    The search asks about one pair again on graphs a few edges apart, so
    the questions go through an `_AnswerMemo`, which asks `check` only
    what it cannot recall.  Its answers are exact: the nodes, the cuts
    and the set returned are those of asking `check` every time.
    """
    pairs = list(combinations(range(n), 2))
    check.start(Graph(n, frozenset()))
    memo = _AnswerMemo(check, pairs)
    chosen: list[tuple[int, int]] = []  # the included pairs, a stack
    room = [n - 1] * n  # chosen plus undecided pairs, per vertex
    # the averaging ceiling; for n < 3 the pair count bounds as tightly
    ceiling = n * ex[n - 1] // (n - 2) if n >= 3 else len(pairs)
    best: list[tuple[int, int]] = []

    def search(i: int, mask: int) -> bool:
        """Decide pairs i onwards, with the pairs in `mask` chosen; True
        once `best` reaches the ceiling."""
        budget.tick()
        if len(chosen) > len(best):
            best[:] = chosen
            if len(best) >= ceiling:
                return True
        if i == len(pairs):
            return False
        u, w = pairs[i]
        # the pairs at u from w on, then a pattern-free graph on u+1..n-1
        if len(chosen) + n - w + ex[n - u - 1] <= len(best):
            return False
        # deleting a vertex leaves at most ex(n-1) edges, so a larger set
        # has more than len(best) - ex(n-1) pairs at every vertex
        if min(room) + ex[n - 1] <= len(best):
            return False
        if not memo.creates(i, mask):
            check.add(u, w)
            chosen.append((u, w))
            done = search(i + 1, mask | 1 << i)
            chosen.pop()
            check.remove(u, w)
            if done:
                return True
        room[u] -= 1
        room[w] -= 1
        done = search(i + 1, mask)
        room[u] += 1
        room[w] += 1
        return done

    search(0, 0)
    return best


# -- hill climbing -------------------------------------------------------------


class ClimbResult(NamedTuple):
    """A hill-climbed graph and its certificate of edge-maximality.
    `copies[r]`, r the rank of a pair in `combinations` order, is what
    `_EdgeCheck.copy_through` found when the run rejected that pair, and
    None for a pair the run kept.  A run only adds edges, so each copy
    is still a copy of the pattern in the graph plus its pair.
    """

    graph: Graph
    copies: list[tuple[int, ...] | Witness | None]


def hill_climb_free(
    n: int, desc: PatternDescriptor, iterations: int, seed: int
) -> ClimbResult:
    """Randomized maximal pattern-free graph: add random edges, keeping an
    addition only when the graph stays pattern-free; restart when a run
    saturates and the test budget remains.  Every returned graph is
    edge-maximal: a run only ends once no candidate edge is addable, and
    it returns the copy that blocks each non-edge (see
    `first_unblocked_pair`).

    One `_EdgeCheck`, the check behind `extremal_number`, tests every
    candidate; for cycle-shaped patterns its distance tables are shared
    between candidate tests and repaired in place when a candidate is
    kept.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rng = random.Random(seed)
    check = _EdgeCheck(desc)
    pairs = list(combinations(range(n), 2))
    best: ClimbResult | None = None
    tests = 0
    # with one vertex no run tests a pair, so one run settles it
    while best is None or (n > 1 and tests < iterations):
        check.start(Graph(n, frozenset()))
        kept = []
        copies: list = [None] * len(pairs)
        candidates = list(range(len(pairs)))
        while candidates:
            i = rng.randrange(len(candidates))
            candidates[i], candidates[-1] = candidates[-1], candidates[i]
            r = candidates.pop()
            u, v = pairs[r]
            tests += 1
            copies[r] = copy = check.copy_through(u, v)
            if copy is None:
                check.add(u, v)
                kept.append((u, v))
        g = Graph(n, frozenset(kept))
        if best is None or g.m > best.graph.m:
            best = ClimbResult(g, copies)
    return best


def first_unblocked_pair(
    G: Graph, desc: PatternDescriptor, copies: Sequence
) -> tuple[int, int] | None:
    """The first non-edge (u, v) of G, u < v in lexicographic order, whose
    `copies` entry (indexed as `ClimbResult.copies`) is not a copy of the
    pattern in G + (u, v); None when every non-edge has one, so that a
    pattern-free G is edge-maximal.  Only the copies are checked, with no
    search: a cycle's copy must be a simple path of G with M-1 edges
    joining u and v, in either direction; any other pattern's must be a
    witness of that pattern that `_embedding_error` accepts on G + (u, v).
    """
    M = as_cycle_length(desc)
    edges = G.edges
    arcs = edges | {(b, a) for a, b in edges}  # each edge both ways
    for r, (u, v) in enumerate(combinations(G.vertices(), 2)):
        if (u, v) in edges:
            continue
        copy = copies[r]
        if M is None:
            e = {u, v}
            held = isinstance(copy, Witness) and copy.pattern == desc and (
                _embedding_error(
                    copy, G.n, lambda p, q: G.has_edge(p, q) or {p, q} == e
                ) is None
            )
        else:
            held = (
                copy is not None and len(set(copy)) == len(copy) == M
                and {copy[0], copy[-1]} == {u, v}
                and arcs.issuperset(zip(copy, copy[1:]))
            )
        if not held:
            return (u, v)
    return None
