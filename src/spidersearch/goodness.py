"""Threshold recursion and the admissible/good classification of paths and
spiders in a host graph.

Classification is strictly level-by-level: goodness at length ell needs the
complete admissible counts at ell, so each level runs two passes (flags and
counts, then goodness marks).  Paths and spiders share that pass; they
differ only in what makes an object admissible and in its key (endpoint
pair or leaf vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator

from .graph import Graph
from .spiders import Spider, enumerate_spiders

Path = tuple[int, ...]  # vertex sequence, canonical: first < last


def f_value(ell: int, L: float) -> int:
    """Threshold recursion: f(1) = ceil(L),
    f(ell) = 1 + f(ell-1)^16 * (ell-1)^2 * max_i f(i) f(ell-i).

    Values explode immediately (f(3,2) has ~90 digits); everything is
    arbitrary-precision.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if L < 1:
        raise ValueError("L must be >= 1")
    vals = [math.ceil(L)]
    for m in range(2, ell + 1):
        peak = max(vals[i - 1] * vals[m - i - 1] for i in range(1, m))
        vals.append(1 + vals[m - 2] ** 16 * (m - 1) ** 2 * peak)
    return vals[ell - 1]


@dataclass(frozen=True)
class Thresholds:
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
        if L < 1:
            raise ValueError("L must be >= 1")
        return cls(lru_cache(maxsize=None)(lambda ell: f_value(ell, L)),
                   "paper")

    @classmethod
    def constant(cls, value: float) -> "Thresholds":
        if value < 0:
            raise ValueError("constant threshold must be >= 0")
        return cls(lambda ell: value, f"const:{value}")

    @classmethod
    def custom(cls, table: dict[int, int]) -> "Thresholds":
        """f(ell) = table[ell], for a table giving f(1), ..., f(n)."""
        values = [table.get(ell) for ell in range(1, len(table) + 1)]
        if not values or None in values:
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
        `custom:a,b,...` (f(1) = a, f(2) = b, ...).
        """
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
            return cls.custom(dict(enumerate(values, 1)))
        raise ValueError(f"unknown threshold mode {text!r} "
                         "(use paper, const:N or custom:a,b,...)")

    def describe(self) -> str:
        return self.spelling


def canonical_path(path: Path) -> Path:
    """A path and its reversal are the same object; keep the orientation
    whose first vertex is smaller.
    """
    return path if path[0] < path[-1] else path[::-1]


def _directed_paths(G: Graph, length: int) -> Iterator[Path]:
    """All directed simple paths with `length` edges."""
    def walk(path: list[int]) -> Iterator[Path]:
        if len(path) - 1 == length:
            yield tuple(path)
            return
        for w in G.neighbors(path[-1]):
            if w not in path:
                path.append(w)
                yield from walk(path)
                path.pop()

    for u in G.vertices():
        yield from walk([u])


def enumerate_paths(G: Graph, length: int) -> Iterator[Path]:
    """Every undirected simple path with `length` edges, once, canonically."""
    for p in _directed_paths(G, length):
        if p[0] < p[-1]:
            yield p


@dataclass
class Level:
    """One level of a classification: its admissible and good objects, the
    number of admissible objects per key, and the number of objects seen.
    """

    admissible: set
    good: set
    counts: dict
    total: int


def _classify_level(objects: Iterable, is_admissible: Callable[..., bool],
                    key: Callable, bound: float) -> Level:
    """Count every object, key the admissible ones, and mark as good those
    whose key is shared by at most `bound` admissible objects.
    """
    total = 0
    admissible = set()
    counts: dict = {}
    for obj in objects:
        total += 1
        if is_admissible(obj):
            admissible.add(obj)
            k = key(obj)
            counts[k] = counts.get(k, 0) + 1
    good = {obj for obj in admissible if counts[key(obj)] <= bound}
    return Level(admissible, good, counts, total)


_ends = itemgetter(0, -1)
_leaves = attrgetter("leaf_vector")


@dataclass
class PathClassification:
    k: int
    thresholds: Thresholds
    levels: dict[int, Level]

    def is_good(self, path: Path) -> bool:
        return canonical_path(path) in self.levels[len(path) - 1].good


def classify_paths(G: Graph, k: int, thresholds: Thresholds) -> PathClassification:
    """Classify every path of length 1..k.

    Length 1 is good by definition.  For ell >= 2 a path is admissible iff
    both of its (ell-1)-windows are good: those two windows cover every
    contiguous strict subpath, and good windows have good subwindows, so
    the pairwise check is equivalent to the full one.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    levels = {1: _classify_level(
        G.sorted_edges(), lambda p: True, _ends, math.inf)}
    for ell in range(2, k + 1):
        prev_good = levels[ell - 1].good
        levels[ell] = _classify_level(
            enumerate_paths(G, ell),
            lambda p: (canonical_path(p[:-1]) in prev_good
                       and canonical_path(p[1:]) in prev_good),
            _ends,
            thresholds.f(ell),
        )
    return PathClassification(k=k, thresholds=thresholds, levels=levels)


@dataclass
class SpiderClassification:
    lv: tuple[int, ...]
    thresholds: Thresholds
    levels: dict[tuple[int, ...], Level]

    def not_good_admissible(self, lv: tuple[int, ...]) -> set[Spider]:
        lvl = self.levels[lv]
        return lvl.admissible - lvl.good


def _sub_vectors(lv: tuple[int, ...]) -> list[tuple[int, ...]]:
    vecs = list(product(*(range(1, x + 1) for x in lv)))
    vecs.sort(key=lambda v: (sum(v), v))
    return vecs


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
    an edge is a good path and has no truncation.  Vectors are processed in
    increasing total length.
    """
    if any(x < 1 for x in lv):
        raise ValueError("length vector entries must be >= 1")
    if max(lv) > paths.k:
        raise ValueError("path tables not computed up to max leg length")
    levels: dict[tuple[int, ...], Level] = {}

    for vec in _sub_vectors(lv):
        # (leg, good spiders with that leg one edge shorter) per long leg
        long_legs = [
            (i, levels[vec[:i] + (li - 1,) + vec[i + 1:]].good)
            for i, li in enumerate(vec) if li > 1
        ]

        def is_admissible(S: Spider) -> bool:
            return all(
                paths.is_good(S.leg_path(i))
                and Spider(
                    S.centre, S.legs[:i] + (S.legs[i][:-1],) + S.legs[i + 1:]
                ) in shorter_good
                for i, shorter_good in long_legs
            )

        levels[vec] = _classify_level(
            enumerate_spiders(G, vec), is_admissible, _leaves,
            thresholds.f(sum(vec)),
        )
    return SpiderClassification(lv=lv, thresholds=thresholds, levels=levels)


def not_good_ratio(
    G: Graph, lv: tuple[int, ...], spiders: SpiderClassification
) -> float:
    """(#admissible-but-not-good spiders with vector lv) / (n * delta^ell),
    delta = min degree.  +inf when delta = 0.
    """
    delta = G.min_degree()
    if delta == 0:
        return math.inf
    bad = len(spiders.not_good_admissible(lv))
    return bad / (G.n * delta ** sum(lv))
