"""Pattern descriptors and their compiled routing templates.

CLI syntax: base `kst:s,t`, `cycle:L`, `spider:k1,k2,...`, with optional
modifiers `^k` (subdivide every required path) and `*t` (rooted blowup,
spider patterns only).  `kst:s,t^k` and `spider:k,...,k*t` compile to the
same template.
"""

from __future__ import annotations

import re
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

from .graph import Graph


class Template(NamedTuple):
    """Routing form of a pattern: distinct terminal vertices plus a list of
    required internally-disjoint paths (a, b, length) between them.
    """

    num_terminals: int
    requirements: tuple[tuple[int, int, int], ...]


class PatternDescriptor(NamedTuple):
    kind: str  # 'kst' | 'cycle' | 'spider' | 'arbitrary'
    s: int = 0
    t: int = 0
    length: int = 0
    legs: tuple[int, ...] = ()
    edge_list: tuple[tuple[int, int], ...] = ()
    num_vertices: int = 0
    subdivision: int = 1
    blowup: int | None = None

    def __str__(self) -> str:
        if self.kind == "kst":
            base = f"kst:{self.s},{self.t}"
        elif self.kind == "cycle":
            base = f"cycle:{self.length}"
        elif self.kind == "spider":
            base = f"spider:{','.join(map(str, self.legs))}"
        else:
            pairs = ";".join(f"{u}-{v}" for u, v in self.edge_list)
            base = f"arbitrary:{self.num_vertices}:{pairs}"
        if self.subdivision != 1:
            base += f"^{self.subdivision}"
        if self.blowup is not None:
            base += f"*{self.blowup}"
        return base


# compile_template and as_cycle_length are pure in the frozen descriptor and
# return immutable values, so they are memoised; the bound keeps a process
# that meets many distinct patterns from growing without limit
_SHAPE_CACHE_SIZE = 128

_BASE_RE = re.compile(
    r"^(?P<base>[a-z]+:[0-9,;:\-]+?)(?:\^(?P<k>\d+))?(?:\*(?P<t>\d+))?$"
)


def parse_pattern(text: str) -> PatternDescriptor:
    m = _BASE_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse pattern {text!r}")

    def num(field: str) -> int:
        try:
            return int(field)
        except ValueError:
            raise ValueError(f"cannot parse pattern {text!r}") from None

    base = m.group("base")
    k = int(m.group("k")) if m.group("k") else 1
    blow = int(m.group("t")) if m.group("t") else None
    if k < 1:
        raise ValueError("subdivision modifier must be >= 1")
    if blow is not None and blow < 1:
        raise ValueError("blowup modifier must be >= 1")
    kind, _, args = base.partition(":")
    if blow is not None and kind != "spider":
        raise ValueError("blowup modifier applies to spider patterns only")
    if kind == "kst":
        parts = args.split(",")
        if len(parts) != 2:
            raise ValueError("kst pattern needs two part sizes: kst:s,t")
        s, t = num(parts[0]), num(parts[1])
        if s < 1 or t < 1:
            raise ValueError("kst part sizes must be positive")
        return PatternDescriptor(kind="kst", s=s, t=t, subdivision=k)
    if kind == "cycle":
        length = num(args)
        if length < 3:
            raise ValueError("cycle length must be at least 3")
        return PatternDescriptor(kind="cycle", length=length, subdivision=k)
    if kind == "spider":
        legs = tuple(num(x) for x in args.split(","))
        if not legs or any(x < 1 for x in legs):
            raise ValueError("spider leg lengths must be positive")
        return PatternDescriptor(
            kind="spider", legs=legs, subdivision=k, blowup=blow
        )
    if kind == "arbitrary":
        nstr, _, pairs = args.partition(":")
        n = num(nstr)
        edges = set()
        for pair in pairs.split(";"):
            a, _, b = pair.partition("-")
            u, v = num(a), num(b)
            if u == v:
                raise ValueError(f"pattern edge {pair} is a loop")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(
                    f"pattern edge {pair} leaves the vertex range 0..{n - 1}"
                )
            e = (min(u, v), max(u, v))
            if e in edges:
                raise ValueError(f"pattern edge {pair} repeats an earlier edge")
            edges.add(e)
        return PatternDescriptor(
            kind="arbitrary",
            num_vertices=n,
            edge_list=tuple(sorted(edges)),
            subdivision=k,
        )
    raise ValueError(f"unknown pattern kind {kind!r}")


def kst_pattern(s: int, t: int, k: int = 1) -> PatternDescriptor:
    return parse_pattern(f"kst:{s},{t}^{k}" if k != 1 else f"kst:{s},{t}")


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def compile_template(desc: PatternDescriptor) -> Template:
    """Compile a descriptor into its routing template.

    Spider-shaped patterns (kst and spider) put the s root terminals first
    and the t centre terminals after them; requirement order is per centre,
    then per root.
    """
    k = desc.subdivision
    if desc.kind == "kst":
        legs = (k,) * desc.s
        s, t = desc.s, desc.t
    elif desc.kind == "spider":
        legs = tuple(x * k for x in desc.legs)
        s, t = len(desc.legs), desc.blowup or 1
    elif desc.kind == "cycle":
        L = desc.length
        reqs = tuple((i, (i + 1) % L, k) for i in range(L))
        return Template(L, reqs)
    else:  # arbitrary
        reqs = tuple((u, v, k) for u, v in desc.edge_list)
        return Template(desc.num_vertices, reqs)
    reqs = tuple(
        (s + j, i, legs[i]) for j in range(t) for i in range(s)
    )
    return Template(s + t, reqs)


def requirement_chains(tmpl: Template) -> list[list[int]]:
    """The pattern graph's vertex chain for each requirement: terminals are
    0..T-1, and path interiors are numbered on from T, requirement by
    requirement.
    """
    chains = []
    nxt = tmpl.num_terminals
    for a, b, length in tmpl.requirements:
        chains.append([a, *range(nxt, nxt + length - 1), b])
        nxt += length - 1
    return chains


def instantiate(desc: PatternDescriptor) -> Graph:
    """Build the pattern graph itself, laid out by `requirement_chains`."""
    tmpl = compile_template(desc)
    chains = requirement_chains(tmpl)
    n = tmpl.num_terminals + sum(len(chain) - 2 for chain in chains)
    return Graph.from_edges(
        n, [e for chain in chains for e in zip(chain, chain[1:])]
    )


def cycle_order(H: Graph) -> list[int]:
    """The vertices met walking a 2-regular graph from vertex 0 until the
    walk closes: every vertex, in cycle order, when H is a single cycle.
    """
    order = [0]
    prev, cur = None, 0
    while True:
        a, b = H.neighbors(cur)
        nxt = b if a == prev else a
        if nxt == 0:
            return order
        order.append(nxt)
        prev, cur = cur, nxt


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def as_cycle_length(desc: PatternDescriptor) -> int | None:
    """If the pattern graph is a single cycle, return its length."""
    H = instantiate(desc)
    if H.n == 0 or H.m != H.n or any(H.degree(v) != 2 for v in H.vertices()):
        return None
    return H.n if len(cycle_order(H)) == H.n else None


def theoretical_exponent(desc: PatternDescriptor) -> Fraction | None:
    """Reference extremal-growth exponent for spider-shaped patterns:
    1 + (s-1)/(sum of subdivided leg lengths).  None for other kinds.
    """
    if desc.kind == "kst":
        s, k = desc.s, desc.subdivision
        return 1 + Fraction(s - 1, s * k)
    if desc.kind == "spider":
        legs = tuple(x * desc.subdivision for x in desc.legs)
        s = len(legs)
        if s < 2:
            return None
        return 1 + Fraction(s - 1, sum(legs))
    return None
