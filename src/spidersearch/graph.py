"""Undirected simple graphs: representation, I/O, generators and the
subdivision / rooted-blowup constructors with their density calculus.

Vertex ids are dense 0-based integers.  Constructors document their id
layout so that embedding certificates are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable


class GraphParseError(ValueError):
    """Malformed edge-list input; message names the offending line."""


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    _adj: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(
            self, "_adj", tuple(tuple(sorted(ns)) for ns in adj)
        )

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            e = _norm_edge(u, v)
            if e in es:
                raise ValueError(f"duplicate edge {e}")
            es.add(e)
        return cls(n, frozenset(es))

    # -- queries ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(ns) for ns in self._adj]

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def max_degree(self) -> int:
        return max(self.degrees()) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def induced(self, vs: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on `vs`, relabeled densely in sorted order.

        Returns the subgraph and the old-id -> new-id mapping.
        """
        keep = sorted(set(vs))
        idx = {v: i for i, v in enumerate(keep)}
        es = [
            (idx[u], idx[v])
            for u, v in self.edges
            if u in idx and v in idx
        ]
        return Graph.from_edges(len(keep), es), idx

    # -- serialization ----------------------------------------------------

    @classmethod
    def load(cls, text: str) -> "Graph":
        """Parse the edge-list format: a header line "n m", then m lines
        "u v".  Blank lines and `#` comments (whole-line or trailing) are
        skipped; error messages name the line's number in the text.
        """
        rows = []
        for i, ln in enumerate(text.splitlines(), start=1):
            parts = ln.split("#", 1)[0].split()
            if parts:
                rows.append((i, parts))
        if not rows:
            raise GraphParseError("line 1: missing header 'n m'")
        hi, head = rows[0]
        if len(head) != 2:
            raise GraphParseError(f"line {hi}: header must be 'n m'")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError:
            raise GraphParseError(
                f"line {hi}: header must be two integers"
            ) from None
        if n < 0 or m < 0:
            raise GraphParseError(f"line {hi}: n and m must be nonnegative")
        es: set[tuple[int, int]] = set()
        body = rows[1:]
        if len(body) != m:
            raise GraphParseError(
                f"expected {m} edge lines, found {len(body)}"
            )
        for i, parts in body:
            if len(parts) != 2:
                raise GraphParseError(f"line {i}: expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {i}: vertices must be integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"line {i}: vertex out of range [0,{n})")
            if u == v:
                raise GraphParseError(f"line {i}: loop at vertex {u}")
            e = _norm_edge(u, v)
            if e in es:
                raise GraphParseError(f"line {i}: duplicate edge {e}")
            es.add(e)
        return cls(n, frozenset(es))

    def dump(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.sorted_edges())
        return "\n".join(lines) + "\n"


# -- generators ------------------------------------------------------------


def path_graph(length: int) -> Graph:
    """Path with `length` edges on vertices 0..length."""
    return Graph.from_edges(length + 1, [(i, i + 1) for i in range(length)])


def cycle_graph(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    return Graph.from_edges(
        length, [(i, (i + 1) % length) for i in range(length)]
    )


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with part A = 0..s-1 and part B = s..s+t-1."""
    if s < 1 or t < 1:
        raise ValueError("both part sizes must be positive")
    return Graph.from_edges(
        s + t, [(i, s + j) for i in range(s) for j in range(t)]
    )


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random graph with n vertices and exactly m edges."""
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m={m} exceeds maximum {total} for n={n}")
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    return Graph.from_edges(n, rng.sample(pairs, m))


# -- subdivision and rooted blowups ----------------------------------------


def subdivide(F: Graph, k: int) -> Graph:
    """k-subdivision: every edge becomes a path of k edges.

    Original vertices keep their ids; the k-1 interior vertices of each
    edge are appended edge-by-edge in sorted edge order.
    """
    if k < 1:
        raise ValueError("subdivision parameter k must be >= 1")
    if k == 1:
        return F
    n = F.n
    edges: list[tuple[int, int]] = []
    nxt = n
    for u, v in F.sorted_edges():
        chain = [u] + list(range(nxt, nxt + k - 1)) + [v]
        nxt += k - 1
        edges.extend(zip(chain, chain[1:]))
    return Graph.from_edges(nxt, edges)


@dataclass(frozen=True)
class RootedPattern:
    """A graph with a distinguished proper nonempty subset of root vertices."""

    graph: Graph
    roots: frozenset[int]

    def __post_init__(self) -> None:
        if not self.roots:
            raise ValueError("root set must be nonempty")
        if not all(0 <= r < self.graph.n for r in self.roots):
            raise ValueError("root out of range")
        if len(self.roots) >= self.graph.n:
            raise ValueError("roots must be a proper subset of the vertices")

    def non_roots(self) -> list[int]:
        return [v for v in self.graph.vertices() if v not in self.roots]


def spider_pattern(lengths: tuple[int, ...]) -> RootedPattern:
    """Spider with the given leg lengths, rooted at its leaves.

    Id layout: centre is 0; leg i's vertices follow leg i-1's, centre to
    leaf.
    """
    if not lengths or any(k < 1 for k in lengths):
        raise ValueError("leg lengths must be positive")
    edges: list[tuple[int, int]] = []
    leaves = []
    nxt = 1
    for k in lengths:
        chain = [0] + list(range(nxt, nxt + k))
        nxt += k
        edges.extend(zip(chain, chain[1:]))
        leaves.append(chain[-1])
    return RootedPattern(Graph.from_edges(nxt, edges), frozenset(leaves))


def rooted_blowup(F: RootedPattern, t: int) -> Graph:
    """t disjoint copies of F with each root's copies identified.

    Id layout: roots get 0..|R|-1 in sorted original order; copy c's
    non-root vertices follow, in sorted original order.
    """
    if t < 1:
        raise ValueError("blowup parameter t must be >= 1")
    roots = sorted(F.roots)
    non_roots = F.non_roots()
    root_id = {r: i for i, r in enumerate(roots)}
    nr = len(roots)
    blk = len(non_roots)
    edges: list[tuple[int, int]] = []
    for c in range(t):
        rel = dict(root_id)
        for i, v in enumerate(non_roots):
            rel[v] = nr + c * blk + i
        for u, v in F.graph.sorted_edges():
            edges.append((rel[u], rel[v]))
    return Graph.from_edges(nr + t * blk, edges)


# -- rooted-density calculus ------------------------------------------------


def rooted_density(F: RootedPattern, S: Iterable[int]) -> Fraction:
    """Edge density e_S/|S| where e_S counts edges meeting S.

    S must be a nonempty set of non-root vertices.
    """
    sset = set(S)
    if not sset:
        raise ValueError("S must be nonempty")
    if sset & F.roots:
        raise ValueError("S must not contain roots")
    if not all(0 <= v < F.graph.n for v in sset):
        raise ValueError("S contains an unknown vertex")
    e_s = sum(1 for u, v in F.graph.edges if u in sset or v in sset)
    return Fraction(e_s, len(sset))


def pattern_density(F: RootedPattern) -> Fraction:
    """Density of the full non-root set."""
    return rooted_density(F, F.non_roots())


class BalanceUndecidable(Exception):
    """Pattern too large for the exhaustive balancedness check."""


EXHAUSTIVE_BALANCE_LIMIT = 20


def is_balanced(F: RootedPattern) -> bool:
    """Exhaustive balancedness: no non-root subset is sparser than the whole.

    Raises BalanceUndecidable beyond EXHAUSTIVE_BALANCE_LIMIT non-root
    vertices; for spider patterns use spider_balance_criterion instead.
    """
    nr = F.non_roots()
    if not nr:
        raise ValueError("pattern has no non-root vertex")
    if len(nr) > EXHAUSTIVE_BALANCE_LIMIT:
        raise BalanceUndecidable(
            f"{len(nr)} non-root vertices exceed the exhaustive limit "
            f"{EXHAUSTIVE_BALANCE_LIMIT}"
        )
    rho = pattern_density(F)
    for size in range(1, len(nr)):
        for sub in combinations(nr, size):
            if rooted_density(F, sub) < rho:
                return False
    return True


def spider_balance_criterion(lengths: tuple[int, ...]) -> bool:
    """Closed-form balancedness test for a leaf-rooted spider:
    total leg length at least (s-1) times the longest leg.
    """
    if not lengths or any(k < 1 for k in lengths):
        raise ValueError("leg lengths must be positive")
    s = len(lengths)
    return sum(lengths) >= (s - 1) * max(lengths)
