"""Extraction of a dense almost-regular induced subgraph.

Procedure: peel low-degree vertices, split the survivors into dyadic
degree bands, score every band and every union of two adjacent bands by
e / m^(1+eps), and keep the best candidate.  Ties go to the larger, then
lexicographically smallest, vertex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph


def is_almost_regular(G: Graph, K: float) -> bool:
    """True iff max degree <= K * min degree.

    An isolated vertex forces min degree 0, so the answer is False unless
    the graph has no edges at all.
    """
    if G.n < 1:
        raise ValueError("graph must have at least one vertex")
    if K < 1:
        raise ValueError("K must be >= 1")
    return G.max_degree() <= K * G.min_degree()


def theoretical_K(epsilon: float) -> float:
    """Reference constant 20 * 2^(1/eps^2 + 1); astronomically large for
    small eps, recorded for comparison only.
    """
    return 20.0 * 2.0 ** (1.0 / epsilon**2 + 1.0)


@dataclass(frozen=True)
class RegularizeReport:
    subgraph: Graph
    vertices: tuple[int, ...]  # original ids, sorted
    m: int
    achieved_K: float
    edge_exponent: float
    theoretical_K: float


def _achieved_K(G: Graph) -> float:
    if G.m == 0:
        return 1.0
    mind = G.min_degree()
    return math.inf if mind == 0 else G.max_degree() / mind


def _peel(G: Graph) -> list[int]:
    """Iteratively drop the smallest-id vertex whose degree is below half
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


def extract_almost_regular(G: Graph, epsilon: float) -> RegularizeReport:
    """Return the best-scoring dyadic-band candidate as an induced subgraph,
    for 0 < epsilon < 1."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0,1)")
    if G.n < 1:
        raise ValueError("graph must be nonempty")
    survivors = _peel(G)
    sub, idx = G.induced(survivors)
    back = {i: v for v, i in idx.items()}

    bands: dict[int, list[int]] = {}
    for v in sub.vertices():
        d = sub.degree(v)
        if d == 0:
            continue
        bands.setdefault(d.bit_length() - 1, []).append(back[v])

    candidates: list[tuple[int, ...]] = []
    levels = sorted(bands)
    for i, lvl in enumerate(levels):
        candidates.append(tuple(sorted(bands[lvl])))
        if i + 1 < len(levels) and levels[i + 1] == lvl + 1:
            candidates.append(tuple(sorted(bands[lvl] + bands[lvl + 1])))
    if not candidates:
        # edgeless input: the peeled graph is the only candidate
        candidates.append(tuple(survivors))

    exponent = 1.0 + epsilon

    def score(vs: tuple[int, ...]) -> float:
        g, _ = G.induced(vs)
        return g.m / len(vs) ** exponent if vs else 0.0

    best = min(candidates, key=lambda vs: (-score(vs), -len(vs), vs))
    bg, _ = G.induced(best)
    edge_exp = (
        math.log(bg.m) / math.log(bg.n) - 1.0 if bg.n > 1 and bg.m > 0 else 0.0
    )
    return RegularizeReport(
        subgraph=bg,
        vertices=best,
        m=bg.n,
        achieved_K=_achieved_K(bg),
        edge_exponent=edge_exp,
        theoretical_K=theoretical_K(epsilon),
    )
