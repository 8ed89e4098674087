"""Spiders: a centre with ordered, internally disjoint legs.

A spider with length vector lv is the flat tuple
`(centre, leg 1 ..., leg 2 ..., ...)`, where leg i lists its lv[i]
vertices outward from the centre, without the centre.  Legs are ordered,
so swapping two equal-length legs gives a distinct spider.  A generalised
spider (a truncation in the chain) may have legs of length 0; the leaf of
an empty leg is the centre.  Keys are read out of the tuple with the
getters of its vector's `spider_layout`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .graph import Graph

FlatSpider = tuple[int, ...]  # (centre, leg 1 ..., leg 2 ..., ...)
Key = Callable[[FlatSpider], tuple[int, ...]]  # a getter of some entries


def _picker(indices: list[int]) -> Key:
    """A getter for the entries at `indices`, always as a tuple (a
    one-index `itemgetter` would return the bare entry)."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda sp: tuple(sp[i] for i in indices)


class SpiderLayout(NamedTuple):
    """Where each leg of a spider with one length vector sits in its flat
    tuple, and the getter of its leaf vector.  `truncation` builds the
    other keys that classification, refinement and the chain compare."""

    legs: tuple[tuple[int, int], ...]  # slice bounds of each leg
    leaf: Key  # the leaf vector

    def truncation(self, gamma: tuple[int, ...]) -> Key:
        """A getter for the flat tuple less the tips of the legs that gamma
        in {0,1}^s truncates (a leg of length 0 has none), which is the
        truncated spider at lv - gamma: one key per truncation class."""
        if len(gamma) != len(self.legs) or any(
            g not in (0, 1) or g > b - a for (a, b), g in zip(self.legs, gamma)
        ):
            raise ValueError(f"no truncation {gamma} of legs {self.legs}")
        return _picker([0] + [j for (a, b), g in zip(self.legs, gamma)
                              for j in range(a, b - g)])


@lru_cache(maxsize=128)
def spider_layout(lv: tuple[int, ...]) -> SpiderLayout:
    """The flat layout of spiders with length vector lv (built once).
    Entries may be 0, for the generalised spiders of the chain."""
    if any(x < 0 for x in lv):
        raise ValueError("length vector entries must be >= 0")
    ends = list(accumulate(lv, initial=1))
    legs = tuple(zip(ends, ends[1:]))
    leaves = [b - 1 if b > a else 0 for a, b in legs]
    return SpiderLayout(legs, _picker(leaves))


def enumerate_spiders(G: Graph, lv: tuple[int, ...]) -> Iterator[FlatSpider]:
    """Yield every spider with length vector lv exactly once, in ascending
    order: centre first, then leg 1's vertices, then leg 2's, and so on.
    Streaming DFS; nothing is materialized.  Iterative, so leg length is
    not bounded by the recursion limit.
    """
    if not lv or any(x < 1 for x in lv):
        raise ValueError("length vector entries must be >= 1")
    last = sum(lv)  # position of the final vertex in the flat tuple
    # positions of each leg's first vertex, which hangs off the centre
    starts = set(accumulate(lv[:-1], initial=1))
    for centre in G.vertices():
        flat = [centre]
        on_spider = {centre}
        # stack[i] iterates the candidates for flat position i + 1
        stack = [iter(G.neighbors(centre))]
        while stack:
            for w in stack[-1]:
                if w in on_spider:
                    continue
                if len(flat) == last:
                    yield (*flat, w)
                    continue
                flat.append(w)
                on_spider.add(w)
                tip = centre if len(flat) in starts else w
                stack.append(iter(G.neighbors(tip)))
                break
            else:
                stack.pop()
                on_spider.discard(flat.pop())
