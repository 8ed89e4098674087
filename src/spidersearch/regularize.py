"""Extraction of a dense almost-regular induced subgraph.

Procedure: peel, in rounds, every vertex whose degree is below half the
average degree, split the survivors into dyadic degree bands, score every
band and every union of two adjacent bands by e / m^(1+eps), and keep the
best candidate.  Ties go to the larger, then lexicographically smallest,
vertex set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    small eps, recorded for comparison only, and math.inf once it leaves
    the float range (eps below about 0.0313).
    """
    try:
        return 20.0 * 2.0 ** (1.0 / epsilon**2 + 1.0)
    except (OverflowError, ZeroDivisionError):  # eps**2 may underflow to 0
        return math.inf


class RegularizeReport(NamedTuple):
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


def _peel(G: Graph) -> dict[int, int]:
    """Remove, round after round, every vertex whose degree is below half
    the average degree (deg * alive < edges) until a round removes none;
    return {survivor: its degree among the survivors}, in ascending id
    order.

    Removing such a vertex raises the average and lowers the other
    degrees, so a vertex below the bound stays below it until it is
    removed, and a round may remove its vertices in any order.  Nor do
    the survivors depend on the order.  With b half the final average,
    every removed vertex was below b when it went and every survivor has
    degree >= b, so the survivors are the b-core, and cores nest.  An
    order ending inside another's survivors Y would first remove a vertex
    of Y from some X containing Y; X is Y plus vertices below b, so half
    of X's average is at most b, and that vertex was not below it.
    """
    deg = dict(enumerate(G.degrees()))
    edges = G.m
    while low := [v for v, d in deg.items() if d * len(deg) < edges]:
        for v in low:
            del deg[v]
            for u in G.neighbors(v):
                if u in deg:
                    deg[u] -= 1
                    edges -= 1
    return deg


def extract_almost_regular(G: Graph, epsilon: float) -> RegularizeReport:
    """Return the best-scoring dyadic-band candidate as an induced subgraph,
    for 0 < epsilon < 1."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must be in (0,1)")
    if G.n < 1:
        raise ValueError("graph must be nonempty")
    deg = _peel(G)
    bands: dict[int, list[int]] = {}
    for v, d in deg.items():
        if d:
            bands.setdefault(d.bit_length() - 1, []).append(v)

    candidates: list[tuple[int, ...]] = []
    for lvl in sorted(bands):
        candidates.append(tuple(bands[lvl]))
        if lvl + 1 in bands:
            candidates.append(tuple(sorted(bands[lvl] + bands[lvl + 1])))
    if not candidates:
        # edgeless input: the peeled graph is the only candidate
        candidates.append(tuple(deg))

    exponent = 1.0 + epsilon
    graphs = {vs: G.induced(vs)[0] for vs in candidates}
    best = min(graphs, key=lambda vs: (-graphs[vs].m / len(vs) ** exponent,
                                       -len(vs), vs))
    bg = graphs[best]
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
