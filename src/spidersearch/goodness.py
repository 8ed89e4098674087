"""Threshold recursion and the admissible/good classification of paths and
spiders in a host graph.

Classification is strictly level by level: goodness at a level needs the
complete admissible counts of that level, so each level first collects its
admissible objects and then marks as good those whose key (endpoint pair
or leaf vector) is rare enough (`_classify_level`, shared by paths and
spiders).  Paths of each length are enumerated as one-leg spiders.
Spiders are enumerated only for the all-ones vector; every longer vector
is built from the good spiders one edge shorter, which are the only
spiders it can extend.
Spider levels hold flat spiders, read through the layout of their vector
(`spiders.spider_layout`).
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from itertools import islice, product, takewhile
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .graph import Graph
from .spiders import FlatSpider, enumerate_spiders, spider_layout

Path = tuple[int, ...]  # vertex sequence, canonical: first < last


def _recursion(L: float) -> Iterator[int]:
    """f(1), f(2), ... of the threshold recursion, without end."""
    vals = [math.ceil(L)]
    while True:
        yield vals[-1]
        m = len(vals) + 1
        peak = max(vals[i - 1] * vals[m - i - 1] for i in range(1, m))
        vals.append(1 + vals[m - 2] ** 16 * (m - 1) ** 2 * peak)


def check_L(L: float) -> None:
    """Reject an L that the threshold recursion and condition (ii) cannot
    take: infinite, NaN, or below 1."""
    if not math.isfinite(L):
        raise ValueError("L must be a finite number")
    if L < 1:
        raise ValueError("L must be >= 1")


def f_value(ell: int, L: float) -> int:
    """Threshold recursion: f(1) = ceil(L),
    f(ell) = 1 + f(ell-1)^16 * (ell-1)^2 * max_i f(i) f(ell-i).

    Values explode immediately (f(3,2) has ~90 digits); everything is
    arbitrary-precision.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    check_L(L)
    return next(islice(_recursion(L), ell - 1, None))


class Thresholds(NamedTuple):
    """The threshold function f(ell) and its spelling in the grammar of
    `parse`: the real recursion (whose L `parse` takes separately), a
    constant, or a custom table.  Constant
    thresholds exist because the recursion's values make every desk-scale
    object good.
    """

    f: Callable[[int], int]
    spelling: str

    @classmethod
    def paper_recursion(cls, L: float) -> "Thresholds":
        """`f_value`, saturated: math.inf from the first value above
        sys.maxsize on.  f is only compared with sizes of in-memory
        collections, which never exceed sys.maxsize, so no comparison
        changes, and no level builds a bignum (f(8) at L = 2 has about
        4e8 bits).
        """
        check_L(L)
        vals = list(takewhile(lambda v: v <= sys.maxsize, _recursion(L)))

        def f(ell: int) -> float:
            if ell < 1:
                raise ValueError("ell must be >= 1")
            return vals[ell - 1] if ell <= len(vals) else math.inf

        return cls(f, "paper")

    @classmethod
    def constant(cls, value: float) -> "Thresholds":
        if value < 0:
            raise ValueError("constant threshold must be >= 0")
        return cls(lambda ell: value, f"const:{value}")

    @classmethod
    def custom(cls, values: list[int]) -> "Thresholds":
        """f(ell) = values[ell - 1], for the values f(1), ..., f(n)."""
        values = tuple(values)
        if not values:
            raise ValueError("custom thresholds must give f(1), ..., f(n)")
        if any(v < 0 for v in values):
            raise ValueError("custom thresholds must be >= 0")

        def f(ell: int) -> int:
            if not 1 <= ell <= len(values):
                raise ValueError(f"custom table has no value for ell={ell}")
            return values[ell - 1]

        return cls(f, "custom:" + ",".join(map(str, values)))

    @classmethod
    def parse(cls, text: str, L: float) -> "Thresholds":
        """`paper` (the recursion with this L), `const:N`, or
        `custom:a,b,...` (f(1) = a, f(2) = b, ...).  L is checked under
        every mode, before the text: refinement reads it whatever the
        thresholds, and reports print it.
        """
        check_L(L)
        if text == "paper":
            return cls.paper_recursion(L)
        mode, _, arg = text.partition(":")
        try:
            values = [int(x) for x in arg.split(",")]
        except ValueError:
            values = []
        if mode == "const" and len(values) == 1:
            return cls.constant(values[0])
        if mode == "custom" and values:
            return cls.custom(values)
        raise ValueError(f"unknown threshold mode {text!r} "
                         "(use paper, const:N or custom:a,b,...)")


def canonical_path(path: Path) -> Path:
    """A path and its reversal are the same object; keep the orientation
    whose first vertex is smaller.
    """
    return path if path[0] < path[-1] else path[::-1]


def enumerate_paths(G: Graph, length: int) -> Iterator[Path]:
    """Every undirected simple path with `length` >= 1 edges, once,
    canonically: the one-leg spiders whose centre is below their leaf."""
    for p in enumerate_spiders(G, (length,)):
        if p[0] < p[-1]:
            yield p


class Level(NamedTuple):
    """One level of a classification: its admissible and good objects, the
    number of admissible objects per key, and the number of objects the
    level examined.
    """

    admissible: set
    good: set
    counts: dict
    total: int


def _classify_level(admissible: set, total: int, key: Callable,
                    bound: float) -> Level:
    """Key the admissible objects and mark as good those whose key is
    shared by at most `bound` admissible objects.
    """
    counts = Counter(map(key, admissible))
    good = {obj for obj in admissible if counts[key(obj)] <= bound}
    return Level(admissible, good, counts, total)


_ends = itemgetter(0, -1)


class PathClassification(NamedTuple):
    k: int
    levels: dict[int, Level]


def classify_paths(G: Graph, k: int, thresholds: Thresholds) -> PathClassification:
    """Classify every path of length 1..k.

    Length 1 is good by definition.  For ell >= 2 a path is admissible iff
    both of its (ell-1)-windows are good: those two windows cover every
    contiguous strict subpath, and good windows have good subwindows, so
    the pairwise check is equivalent to the full one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    levels = {1: _classify_level(set(G.edges), G.m, _ends, math.inf)}
    for ell in range(2, k + 1):
        bound = thresholds.f(ell)
        prev_good = levels[ell - 1].good
        total = 0
        admissible = set()
        for p in enumerate_paths(G, ell):
            total += 1
            if (canonical_path(p[:-1]) in prev_good
                    and canonical_path(p[1:]) in prev_good):
                admissible.add(p)
        levels[ell] = _classify_level(admissible, total, _ends, bound)
    return PathClassification(k=k, levels=levels)


class SpiderClassification(NamedTuple):
    """Spider levels; `admissible` and `good` hold flat spiders in the
    layout `spider_layout(vec)` of their vector."""

    levels: dict[tuple[int, ...], Level]

    def not_good_admissible(self, lv: tuple[int, ...]) -> set[FlatSpider]:
        lvl = self.levels[lv]
        return lvl.admissible - lvl.good


def _unit(vec: tuple[int, ...], i: int) -> tuple[int, ...]:
    """e_i, the gamma that truncates leg i by one edge."""
    return tuple(int(j == i) for j in range(len(vec)))


def _minus(vec: tuple[int, ...], gamma: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - g for x, g in zip(vec, gamma))


def _extend_level(
    G: Graph,
    vec: tuple[int, ...],
    levels: dict[tuple[int, ...], Level],
    good_paths: dict[int, set[Path]],
) -> tuple[set[FlatSpider], int]:
    """The admissible spiders with vector `vec` (not all ones) and the
    number of candidates examined.

    With i the first leg longer than 1, an admissible spider's leg-i
    truncation is a good spider, so every candidate is a good spider at
    vec - e_i with leg i extended by one vertex; each is built exactly
    once.  Its other legs are those of a good, hence admissible, spider, so
    only leg i's path and the other long legs' truncations need checking.
    """
    i = next(j for j, x in enumerate(vec) if x > 1)
    layout = spider_layout(vec)
    start, pos = layout.legs[i]  # leg i occupies flat[start:pos]
    good_legs = good_paths[vec[i]]
    # the e_j-truncation key of a flat spider is the truncated spider's
    # flat tuple at vec - e_j
    others = []
    for j in range(i + 1, len(vec)):
        if vec[j] > 1:
            e = _unit(vec, j)
            others.append((layout.truncation(e), levels[_minus(vec, e)].good))
    parents = levels[_minus(vec, _unit(vec, i))].good
    total = 0
    admissible = set()
    for P in parents:
        # in P, leg i is one vertex shorter and ends just before `pos`
        head, tail = P[:pos - 1], P[pos - 1:]
        leg = (P[0], *P[start:pos - 1])
        for w in G.neighbors(P[pos - 2]):
            if w in P:
                continue
            total += 1
            if leg + (w,) not in good_legs:
                continue
            sp = head + (w,) + tail
            for trunc, good in others:
                if trunc(sp) not in good:
                    break
            else:
                admissible.add(sp)
    return admissible, total


def classify_spiders(
    G: Graph,
    lv: tuple[int, ...],
    thresholds: Thresholds,
    paths: PathClassification,
) -> SpiderClassification:
    """Classify spiders for lv and every componentwise-smaller vector.

    A spider is admissible iff each full leg is a good path and each
    single-leg truncation by one edge is a good spider (which recursively
    forces all deeper truncations).  Legs of length 1 need neither check:
    an edge is a good path and has no truncation.  Only the all-ones vector
    is enumerated, and each longer vector is built from the good spiders
    one edge shorter (`_extend_level`), which `product` order lists first.
    Path goodness is looked up in per-length sets that hold both
    orientations of every good path.
    """
    if any(x < 1 for x in lv):
        raise ValueError("length vector entries must be >= 1")
    if max(lv) > paths.k:
        raise ValueError("path tables not computed up to max leg length")
    good_paths = {
        ell: lvl.good | {p[::-1] for p in lvl.good}
        for ell, lvl in paths.levels.items() if 2 <= ell <= max(lv)
    }
    levels: dict[tuple[int, ...], Level] = {}
    for vec in product(*(range(1, x + 1) for x in lv)):
        bound = thresholds.f(sum(vec))
        layout = spider_layout(vec)
        if max(vec) == 1:
            admissible = set(enumerate_spiders(G, vec))
            total = len(admissible)
        else:
            admissible, total = _extend_level(G, vec, levels, good_paths)
        levels[vec] = _classify_level(admissible, total, layout.leaf, bound)
    return SpiderClassification(levels=levels)


def not_good_ratio(
    G: Graph, lv: tuple[int, ...], spiders: SpiderClassification
) -> float:
    """(#admissible-but-not-good spiders with vector lv) / (n * delta^ell),
    delta = min degree.  +inf when delta = 0.
    """
    delta = G.min_degree()
    if delta == 0:
        return math.inf
    lvl = spiders.levels[lv]
    bad = len(lvl.admissible) - len(lvl.good)
    return bad / (G.n * delta ** sum(lv))
