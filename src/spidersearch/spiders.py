"""Spiders: a centre with ordered, internally disjoint legs.

Legs are ordered, so swapping two equal-length legs gives a distinct
spider.  Leg tuples exclude the centre; a generalised spider may carry
empty legs (leaf = centre).

`Spider` is the public type.  Bulk computations (classification and
refinement) store spiders of one length vector as flat tuples
`(centre, leg 1 ..., leg 2 ..., ...)` and read keys out of them with the
getters of that vector's `SpiderLayout`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, chain, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .graph import Graph


class Spider(NamedTuple):
    centre: int
    legs: tuple[tuple[int, ...], ...]

    @property
    def length_vector(self) -> tuple[int, ...]:
        return tuple(len(leg) for leg in self.legs)

    @property
    def leaf_vector(self) -> tuple[int, ...]:
        return tuple(leg[-1] if leg else self.centre for leg in self.legs)

    def vertex_set(self) -> frozenset[int]:
        return frozenset((self.centre,) + sum(self.legs, ()))

    def leg_path(self, i: int) -> tuple[int, ...]:
        """Leg i as a vertex path starting at the centre."""
        return (self.centre,) + self.legs[i]


def validate_spider(G: Graph, S: Spider, generalised: bool = False) -> None:
    """Check the leg-disjointness and edge-existence invariants."""
    seen: set[int] = set()
    for leg in S.legs:
        if not leg and not generalised:
            raise ValueError("zero-length leg in a proper spider")
        prev = S.centre
        for v in leg:
            if not G.has_edge(prev, v):
                raise ValueError(f"missing edge ({prev},{v})")
            prev = v
        if S.centre in leg:
            raise ValueError("leg revisits the centre")
        if seen & set(leg):
            raise ValueError("legs share a non-centre vertex")
        seen |= set(leg)


def enumerate_spiders(G: Graph, lv: tuple[int, ...]) -> Iterator[Spider]:
    """Yield every spider with length vector lv exactly once, centre
    ascending and legs in lexicographic order.  Streaming DFS; nothing is
    materialized.
    """
    if not lv or any(x < 1 for x in lv):
        raise ValueError("length vector entries must be >= 1")
    s = len(lv)

    def extend(centre: int, legs: list[tuple[int, ...]], used: set[int]) -> Iterator[Spider]:
        i = len(legs)
        if i == s:
            yield Spider(centre, tuple(legs))
            return
        # grow leg i vertex by vertex
        def grow(path: list[int]) -> Iterator[Spider]:
            if len(path) == lv[i]:
                legs.append(tuple(path))
                yield from extend(centre, legs, used)
                legs.pop()
                return
            tip = path[-1] if path else centre
            for w in G.neighbors(tip):
                if w == centre or w in used:
                    continue
                used.add(w)
                path.append(w)
                yield from grow(path)
                path.pop()
                used.remove(w)

        yield from grow([])

    for centre in G.vertices():
        yield from extend(centre, [], set())


def subspider(S: Spider, target: tuple[int, ...]) -> Spider:
    """Prefix truncation of each leg from the centre; entries may be 0,
    giving a generalised spider.
    """
    lv = S.length_vector
    if len(target) != len(lv) or any(
        not (0 <= t <= l) for t, l in zip(target, lv)
    ):
        raise ValueError(f"target {target} not below length vector {lv}")
    return Spider(S.centre, tuple(leg[:t] for leg, t in zip(S.legs, target)))


def gamma_truncation(S: Spider, gamma: tuple[int, ...]) -> Spider:
    """Truncate each leg by gamma_i in {0,1} edges."""
    return subspider(
        S, tuple(l - g for l, g in zip(S.length_vector, gamma))
    )


def count_by_leaf(
    spiders: Iterable[Spider],
) -> Counter[tuple[int, ...]]:
    """Exact multiplicity of spiders per (ordered) leaf vector."""
    return Counter(S.leaf_vector for S in spiders)


FlatSpider = tuple[int, ...]  # (centre, leg 1 ..., leg 2 ..., ...)


def _picker(indices: list[int]) -> Callable[[FlatSpider], tuple[int, ...]]:
    """A getter for the entries at `indices`, always as a tuple (a
    one-index `itemgetter` would return the bare entry)."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda sp: tuple(sp[i] for i in indices)


class SpiderLayout(NamedTuple):
    """Where each leg of a spider with one length vector sits in its flat
    tuple, and getters for the keys that classification and refinement
    count.
    """

    legs: tuple[tuple[int, int], ...]  # slice bounds of each leg
    leaf: Callable[[FlatSpider], tuple[int, ...]]  # the leaf vector
    # gamma in {0,1}^s -> the flat tuple without the tips of the legs that
    # gamma truncates: one key per gamma-truncation class
    truncations: dict[tuple[int, ...], Callable[[FlatSpider], tuple[int, ...]]]

    def flatten(self, S: Spider) -> FlatSpider:
        return (S.centre, *chain.from_iterable(S.legs))

    def to_spider(self, sp: FlatSpider) -> Spider:
        return Spider(sp[0], tuple(sp[a:b] for a, b in self.legs))


@lru_cache(maxsize=128)
def spider_layout(lv: tuple[int, ...]) -> SpiderLayout:
    """The flat layout of spiders with length vector lv (built once)."""
    if any(x < 1 for x in lv):
        raise ValueError("length vector entries must be >= 1")
    ends = list(accumulate(lv, initial=1))
    legs = tuple(zip(ends, ends[1:]))
    truncations = {
        gamma: _picker([0] + [j for (a, b), g in zip(legs, gamma)
                              for j in range(a, b - g)])
        for gamma in product((0, 1), repeat=len(lv))
    }
    return SpiderLayout(legs, _picker([b - 1 for _, b in legs]), truncations)
