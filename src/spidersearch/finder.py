"""Constructive pipeline: refine an over-represented spider family to its
largest subfamily satisfying conditions (i) and (ii), chain spiders into
long legs (S_j extends, T_j relocates), connect them into spiders with
prescribed leg lengths, and assemble rooted blowups (K_{s,t} subdivisions
as the special case of equal legs).  One `verify_embedding` checks the
assembled witness; the chain's selection rules guarantee the rest.
Spiders are flat tuples throughout (`spiders.spider_layout`): the chain
compares truncation keys and reads leaf vectors with its getters.

Desk-scale hosts frequently cannot complete a chain; every step reports
failure honestly instead of forcing a result.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Iterable, NamedTuple

from .goodness import Thresholds, check_L, classify_paths, classify_spiders
from .graph import Graph
from .oracle import ContainmentResult, SearchBudget, Witness, contains, verify_embedding
from .patterns import PatternDescriptor, kst_pattern
from .spiders import FlatSpider, Key, spider_layout


class ConstructionFailure(Exception):
    def __init__(self, stage: str, detail: str, rounds_completed: int | None = None):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail
        self.rounds_completed = rounds_completed


# -- refined families ---------------------------------------------------------


class SpiderFamily:
    __slots__ = ("lv", "members", "delta", "L", "thresholds", "_leaf_index")

    def __init__(self, lv: tuple[int, ...], members: tuple[FlatSpider, ...],
                 delta: float, L: float, thresholds: Thresholds) -> None:
        self.lv, self.members = lv, members  # members sorted
        self.delta, self.L, self.thresholds = delta, L, thresholds
        leaf = spider_layout(lv).leaf
        self._leaf_index: dict[tuple[int, ...], list[FlatSpider]] = {}
        for sp in members:
            self._leaf_index.setdefault(leaf(sp), []).append(sp)

    def with_leaf(self, leaf: tuple[int, ...]) -> list[FlatSpider]:
        return self._leaf_index.get(tuple(leaf), [])


def _condition_ii_threshold(delta: float, L: float, weight: int) -> Fraction:
    return Fraction(delta) ** weight / Fraction(L) ** 2


def family_condition_violations(fam: SpiderFamily) -> list[str]:
    """Independent literal re-check of refinement conditions (i) and (ii)."""
    f = fam.thresholds.f(sum(fam.lv))
    layout = spider_layout(fam.lv)
    counts = Counter(map(layout.leaf, fam.members))
    out = [f"(i) violated at {sp}" for sp in fam.members
           if 2 * counts[layout.leaf(sp)] < f]
    for gamma in product((0, 1), repeat=len(fam.lv)):
        trunc = layout.truncation(gamma)
        thr = _condition_ii_threshold(fam.delta, fam.L, sum(gamma))
        tc = Counter(map(trunc, fam.members))
        short = {cls for cls, cnt in tc.items()
                 if cnt * thr.denominator < thr.numerator}
        if short:
            out += [f"(ii) violated at {sp} for gamma={gamma}"
                    for sp in fam.members if trunc(sp) in short]
    return out


def refine_family(
    t0: Iterable[FlatSpider],
    lv: tuple[int, ...],
    thresholds: Thresholds,
    delta: float,
    L: float,
) -> SpiderFamily:
    """The largest subfamily of `t0`, spiders with length vector lv,
    satisfying (i) every leaf vector carries at least f/2 members and (ii)
    every gamma-truncation class carries at least delta^|gamma| / L^2
    members; the order of discards does not matter.  Both conditions only
    get harder to meet as members leave, so each round drops every current
    violator at once, until a round drops nothing.  The result may be
    empty.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    check_L(L)
    if not lv or any(x < 1 for x in lv):
        raise ValueError("length vector entries must be >= 1")
    flat = set(t0)
    if any(len(sp) != 1 + sum(lv) for sp in flat):
        raise ValueError(f"family members must have length vector {lv}")

    f = thresholds.f(sum(lv))
    layout = spider_layout(lv)
    leaf = layout.leaf
    # counts are integers, so count >= x iff count >= ceil(x); a bound of
    # at most 1 always holds, because a member's own class counts it
    support = []
    for gamma in product((0, 1), repeat=len(lv)):
        bound = math.ceil(_condition_ii_threshold(delta, L, sum(gamma)))
        if bound > 1:
            support.append((layout.truncation(gamma), bound))
    while flat:
        counts = Counter(map(leaf, flat))
        tcs = [(trunc, Counter(map(trunc, flat)), bound)
               for trunc, bound in support]
        kept = {
            sp
            for sp in flat
            if 2 * counts[leaf(sp)] >= f
            and all(tc[trunc(sp)] >= bound for trunc, tc, bound in tcs)
        }
        if len(kept) == len(flat):
            break
        flat = kept

    fam = SpiderFamily(lv, tuple(sorted(flat)), delta, L, thresholds)
    violations = family_condition_violations(fam)
    if violations:
        raise RuntimeError(
            f"refined family fails its re-check: {violations[0]}")
    return fam


# -- the chain ------------------------------------------------------------------


def _gamma_schedule(
    lv: tuple[int, ...], targets: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Columns gamma[j] decomposing each k_i - l_i as gamma_0 + 2+2+...,
    parity bit first, then ones packed at the earliest columns.
    """
    gamma0 = tuple((t - l) % 2 for t, l in zip(targets, lv))
    halves = [(t - l - g) // 2 for t, l, g in zip(targets, lv, gamma0)]
    cols = [gamma0]
    for j in range(1, max(halves, default=0) + 1):
        cols.append(tuple(1 if j <= h else 0 for h in halves))
    return cols


def _truncated_leaf(lv: tuple[int, ...], gamma: tuple[int, ...]) -> Key:
    """The leaf getter of the spiders that gamma truncates from lv."""
    return spider_layout(tuple(l - g for l, g in zip(lv, gamma))).leaf


def _first_clear(
    members: Iterable[FlatSpider], blocked: set[int]
) -> FlatSpider | None:
    """The first of `members`, in iteration order, disjoint from
    `blocked`, or None: the one pick rule of S_j, T_j and connect."""
    return next((M for M in members if blocked.isdisjoint(M)), None)


def build_paths(
    fam: SpiderFamily,
    r0: FlatSpider,
    Z: Iterable[int],
    targets: tuple[int, ...],
) -> tuple[tuple[int, ...], ...]:
    """Grow paths from the leaves of r0 by alternately extending (S_j picks
    a family member containing the current stub) and relocating (T_j picks
    a disjoint member with the same leaf vector, then truncates).  Path i
    runs from leaf i of r0 to leaf i of the last column, with
    targets[i] - lv[i] edges.

    The family's members are spiders of one host.  Every pick is the
    first member clear of one blocked set (`_first_clear`); `blocked`
    holds Z and every member picked so far.  S_j's new vertices avoid
    `blocked` less the stub, and T_j's non-leaf vertices avoid `blocked`
    (which holds S_j) less its leaves, so every appended vertex is new: the
    paths are simple, pairwise disjoint and off Z, and `assemble_blowup`'s
    `verify_embedding` is the one check of the result.  Equal targets
    need no chain.
    """
    lv = fam.lv
    if len(targets) != len(lv):
        raise ValueError("targets must match the family's leg count")
    if any(t < l for t, l in zip(targets, lv)):
        raise ValueError("targets must dominate the length vector")
    if sum(1 for l in lv if l == 1) > 1:
        raise ValueError("at most one leg of length 1 is supported")
    blocked = set(Z)
    layout = spider_layout(lv)

    cols = _gamma_schedule(lv, targets)
    gamma0 = cols[0]
    want = tuple(l - g for l, g in zip(lv, gamma0))
    if len(r0) != 1 + sum(want):
        raise ValueError(
            f"r0 has {len(r0)} vertices, not a spider with length vector {want}"
        )
    trunc0 = layout.truncation(gamma0)
    if not any(trunc0(sp) == r0 for sp in fam.members):
        raise ValueError("r0 is not a truncation of any family member")
    start = spider_layout(want).leaf(r0)
    if not blocked.isdisjoint(start):
        raise ValueError("Z intersects the starting leaf vector")

    J = len(cols) if any(map(any, cols)) else 0

    def add_column(col: tuple[int, ...]) -> None:
        for p, v in zip(paths, col):
            if p[-1] != v:
                p.append(v)

    paths = [[v] for v in start]
    r_prev = r0

    for j in range(1, J + 1):
        trunc = layout.truncation(cols[j - 1])
        s_j = _first_clear((M for M in fam.members if trunc(M) == r_prev),
                           blocked - set(r_prev))
        if s_j is None:
            raise ConstructionFailure(
                f"S_{j}", "no family member extends the current stub cleanly"
            )
        blocked.update(s_j)
        leaves = layout.leaf(s_j)
        add_column(leaves)

        if j <= J - 1:
            t_j = _first_clear(fam.with_leaf(leaves), blocked - set(leaves))
            if t_j is None:
                raise ConstructionFailure(
                    f"T_{j}", "no disjoint member shares the leaf vector"
                )
            blocked.update(t_j)
            r_prev = layout.truncation(cols[j])(t_j)
            add_column(_truncated_leaf(lv, cols[j])(r_prev))

    return tuple(map(tuple, paths))


def connect_paths(
    fam: SpiderFamily, paths: tuple[tuple[int, ...], ...], Z: Iterable[int]
) -> FlatSpider:
    """Close the built paths with a family member whose leaf vector is the
    paths' far endpoints, avoiding Z and meeting the paths only there; leg
    i of the result runs on along path i, back to its start.
    """
    w = tuple(p[-1] for p in paths)
    path_vs = set().union(*paths)
    M = _first_clear(fam.with_leaf(w), set(Z) | (path_vs - set(w)))
    if M is None:
        raise ConstructionFailure(
            "connect", f"no member with leaf vector {w} avoids the paths and Z"
        )
    out = [M[0]]
    for (a, b), path in zip(spider_layout(fam.lv).legs, paths):
        out += M[a:b]
        out += reversed(path[:-1])
    return tuple(out)


def assemble_blowup(
    G: Graph,
    fam: SpiderFamily,
    targets: tuple[int, ...],
    t: int,
    desc: PatternDescriptor,
) -> Witness:
    """Repeatedly build+connect to collect t spiders with one shared leaf
    vector, disjoint elsewhere; their union is the rooted t-blowup, which
    the witness names `desc`.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not fam.members:
        raise ConstructionFailure("assemble", "empty family", rounds_completed=0)
    gamma0 = _gamma_schedule(fam.lv, targets)[0]
    r0 = spider_layout(fam.lv).truncation(gamma0)(fam.members[0])
    roots = _truncated_leaf(fam.lv, gamma0)(r0)
    Z: set[int] = set()

    full = spider_layout(targets)
    legs_done: list[FlatSpider] = []
    for rnd in range(t):
        try:
            sp = connect_paths(fam, build_paths(fam, r0, Z, targets), Z)
        except ConstructionFailure as e:
            e.rounds_completed = rnd
            raise
        legs_done.append(sp)
        Z |= set(sp) - set(roots)

    w = Witness(
        pattern=desc,
        terminals=roots + tuple(sp[0] for sp in legs_done),
        paths=tuple(
            sp[:1] + sp[a:b] for sp in legs_done for a, b in full.legs
        ),
        route="constructive",
    )
    if not verify_embedding(G, w):
        raise RuntimeError("assembled witness failed verification")
    return w


# -- orchestration ---------------------------------------------------------------


class FindReport(NamedTuple):
    witness: Witness | None
    status: str  # 'constructive' | 'oracle' | 'not-found' | 'budget'
    tried: tuple[tuple[int, ...], ...]
    notes: tuple[str, ...]


def find_kstk(
    G: Graph,
    s: int,
    t: int,
    k: int,
    thresholds: Thresholds,
    L: float,
    oracle_budget: SearchBudget | None = None,
) -> FindReport:
    """Search for the k-subdivision of K_{s,t}: classify, then try the
    constructive route on each over-represented length vector (most
    admissible-not-good spiders first), falling back to oracle backtracking.

    Refinement's condition (ii) needs min degree delta > 0, so a host with
    an isolated vertex goes straight to the oracle: nothing is classified,
    `tried` stays empty and the one note says why.  Every threshold the
    classification would read is read first on both routes, so a table too
    short for the pattern fails the same way on every host.

    Vectors with two unit legs are skipped: their surplus collapses to
    over-counted 2-paths, whose constructive use is out of scope.
    """
    if s < 2 or t < 2 or k < 2:
        raise ValueError("s, t, k must all be >= 2")
    check_L(L)
    desc = kst_pattern(s, t, k)
    notes: list[str] = []
    tried: list[tuple[int, ...]] = []
    # every threshold the classification reads, in its order (path lengths
    # 2..k, then spider totals s..sk), so a short table fails on any host
    for ell in (*range(2, k + 1), *range(s, s * k + 1)):
        thresholds.f(ell)

    delta = G.min_degree()
    if delta == 0:
        notes.append("min degree 0, refinement impossible")
    else:
        path_tables = classify_paths(G, k, thresholds)
        spider_tables = classify_spiders(G, (k,) * s, thresholds, path_tables)
        levels = spider_tables.levels
        vectors = sorted(
            levels,
            key=lambda v: (-(len(levels[v].admissible) - len(levels[v].good)), v),
        )
        for vec in vectors:
            if sum(1 for x in vec if x == 1) > 1:
                notes.append(f"{vec}: skipped (two unit legs)")
                continue
            if len(levels[vec].admissible) == len(levels[vec].good):
                notes.append(f"{vec}: no admissible-not-good surplus")
                continue
            tried.append(vec)
            fam = refine_family(spider_tables.not_good_admissible(vec), vec,
                                thresholds, delta, L)
            if not fam.members:
                notes.append(f"{vec}: refinement emptied the family")
                continue
            try:
                w = assemble_blowup(G, fam, (k,) * s, t, desc=desc)
                return FindReport(w, "constructive", tuple(tried), tuple(notes))
            except ConstructionFailure as e:
                notes.append(
                    f"{vec}: chain failed at {e.stage} "
                    f"after {e.rounds_completed} rounds"
                )

    res: ContainmentResult = contains(G, desc, oracle_budget)
    if res.status == "found":
        return FindReport(res.witness, "oracle", tuple(tried), tuple(notes))
    status = "budget" if res.status == "budget" else "not-found"
    return FindReport(None, status, tuple(tried), tuple(notes))
