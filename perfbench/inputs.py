"""Seeded benchmark inputs, built with the benchmark's own code.

Nothing here calls into `spidersearch`: a change to the library's
generators or searches cannot change what the benchmark measures.  A host
is a pair `(n, edges)` with `edges` a set of `(u, v)` pairs, `u < v`.
"""

from __future__ import annotations

import random
from itertools import combinations

Host = tuple[int, frozenset[tuple[int, int]]]


def dump(host: Host) -> str:
    """The CLI's edge-list format: a header "n m", then one "u v" per edge."""
    n, edges = host
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def adjacency(host: Host) -> list[set[int]]:
    n, edges = host
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def gnm(n: int, m: int, seed: int) -> frozenset[tuple[int, int]]:
    """Uniform m-edge graph on n vertices; the same draw as the library's
    `random_gnm`, so criterion 5's hosts are reproduced exactly."""
    rng = random.Random(seed)
    return frozenset(rng.sample(list(combinations(range(n), 2)), m))


def subdivided_kst(s: int, t: int, k: int) -> Host:
    """K_{s,t} (parts 0..s-1 and s..s+t-1) with every edge replaced by a
    path of k edges; interiors are numbered edge by edge in sorted order."""
    nxt = s + t
    edges = set()
    for u, v in sorted((i, s + j) for i in range(s) for j in range(t)):
        chain = [u, *range(nxt, nxt + k - 1), v]
        nxt += k - 1
        edges.update((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))
    return nxt, frozenset(edges)


# -- find-fuzz -------------------------------------------------------------


def criterion5_hosts(seed: int, count: int = 200) -> list[tuple[Host, int, float]]:
    """`(host, threshold, L)` triples drawn exactly as the acceptance
    suite's criterion 5 draws them (`tests/test_acceptance.py`)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.6:
            n = rng.randint(8, 60)
            m = min(n * (n - 1) // 2, int(n * rng.uniform(1.0, 2.0)))
            host = (n, gnm(n, m, rng.randrange(2**30)))
        elif kind < 0.85:
            s = rng.choice([2, 3])
            t = rng.choice([2, 3, 4])
            k = rng.choice([2, 3])
            host = subdivided_kst(s, t, k)
            if rng.random() < 0.5:
                chords = gnm(host[0], min(host[0], 8), rng.randrange(2**30))
                host = (host[0], host[1] | chords)
        else:
            n = rng.randint(61, 120)
            m = int(n * rng.uniform(1.0, 1.6))
            host = (n, gnm(n, m, rng.randrange(2**30)))
        thr = rng.choice([1, 2, 3])
        L = rng.choice([2.0, 4.0])
        out.append((host, thr, L))
    return out


def stratified_fuzz_hosts(seed: int, count: int) -> list[tuple[Host, int, float]]:
    """Criterion 5's small random and subdivided K_{s,t} hosts (in its
    60:25 proportion), with every parameter stratified instead of drawn
    independently: vertex counts and densities spread evenly over their
    ranges, each subdivided shape and each (threshold, L) pair used equally
    often.  The seed picks the graphs and the pairings.  Criterion 5's
    large hosts (n = 61..120) are left out: a handful of them sets the
    tail latency and most of the total time, so drawing them per seed
    would turn both into a lottery."""
    rng = random.Random(seed)
    n_small = round(count * 60 / 85)
    n_kst = count - n_small

    def strata(k: int, lo: float, hi: float) -> list[float]:
        vals = [lo + (i + rng.random()) * (hi - lo) / k for i in range(k)]
        rng.shuffle(vals)
        return vals

    def thresholds(k: int) -> list[tuple[int, float]]:
        pairs = [(thr, L) for thr in (1, 2, 3) for L in (2.0, 4.0)]
        seq = pairs * (k // len(pairs)) + rng.sample(pairs, k % len(pairs))
        rng.shuffle(seq)
        return seq

    hosts: list[Host] = []
    for nf, ratio in zip(strata(n_small, 8, 61), strata(n_small, 1.0, 2.0)):
        n = int(nf)
        hosts.append((n, gnm(n, min(n * (n - 1) // 2, int(n * ratio)),
                             rng.randrange(2**30))))
    shapes = [(s, t, k, chords) for s in (2, 3) for t in (2, 3, 4)
              for k in (2, 3) for chords in (False, True)]
    picks = shapes * (n_kst // len(shapes)) + rng.sample(
        shapes, n_kst % len(shapes))
    for s, t, k, chords in picks:
        host = subdivided_kst(s, t, k)
        if chords:
            extra = gnm(host[0], min(host[0], 8), rng.randrange(2**30))
            host = (host[0], host[1] | extra)
        hosts.append(host)

    params = thresholds(n_small) + thresholds(n_kst)
    out = [(h, thr, L) for h, (thr, L) in zip(hosts, params)]
    rng.shuffle(out)
    return out


# -- exact-length paths and cycles (the benchmark's own reference) --------


def has_path(adj: list[set[int]], u: int, v: int, length: int) -> bool:
    """Is there a simple u-v path with exactly `length` edges?"""
    if u == v:
        return False
    dist = {v: 0}  # BFS distance to v: a lower bound that prunes the walk
    frontier = [v]
    for d in range(1, length + 1):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    if dist.get(u, length + 1) > length:
        return False
    on_path = {u}

    def walk(x: int, left: int) -> bool:
        if left == 1:
            return v in adj[x]
        for y in adj[x]:
            if y == v or y in on_path or dist.get(y, length + 1) > left - 1:
                continue
            on_path.add(y)
            if walk(y, left - 1):
                return True
            on_path.discard(y)
        return False

    return walk(u, length)


def has_cycle(adj: list[set[int]], length: int) -> bool:
    """Is there a simple cycle with exactly `length` edges?  Each cycle is
    looked for once, from its smallest vertex r, through vertices above r."""
    for r in range(len(adj)):
        ends = {w for w in adj[r] if w > r}
        if len(ends) < 2:
            continue
        on_path = {r}

        def walk(x: int, depth: int) -> bool:
            if depth == length - 1:
                return x in ends
            for y in adj[x]:
                if y > r and y not in on_path:
                    on_path.add(y)
                    if walk(y, depth + 1):
                        return True
                    on_path.discard(y)
            return False

        if walk(r, 0):
            return True
    return False


def cycle_free_maximal(n: int, length: int, seed: int | str) -> Host:
    """Edge-maximal graph without a `length`-cycle: take the pairs in a
    random order and keep an edge unless it closes such a cycle."""
    rng = random.Random(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges = set()
    for u, v in pairs:
        if not has_path(adj, u, v, length - 1):
            adj[u].add(v)
            adj[v].add(u)
            edges.add((u, v))
    return n, frozenset(edges)


def has_k2t(adj: list[set[int]], t: int) -> bool:
    """Does some pair of vertices have at least t common neighbours?"""
    return any(len(adj[a] & adj[b]) >= t
               for a, b in combinations(range(len(adj)), 2))
