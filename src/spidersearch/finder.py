"""Constructive pipeline: refine an over-represented spider family to its
largest subfamily satisfying conditions (i) and (ii), chain spiders into
long legs, connect them into spiders with prescribed leg lengths, and
assemble rooted blowups (K_{s,t} subdivisions as the special case of equal
legs).

Desk-scale hosts frequently cannot complete a chain; every step reports
failure honestly instead of forcing a result.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .goodness import Thresholds, classify_paths, classify_spiders
from .graph import Graph
from .oracle import ContainmentResult, SearchBudget, Witness, contains, verify_embedding
from .patterns import PatternDescriptor, kst_pattern, spider_blowup_pattern
from .spiders import Spider, gamma_truncation, spider_layout


class ConstructionFailure(Exception):
    def __init__(self, stage: str, detail: str, rounds_completed: int | None = None):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail
        self.rounds_completed = rounds_completed


# -- refined families ---------------------------------------------------------


@dataclass
class SpiderFamily:
    lv: tuple[int, ...]
    members: tuple[Spider, ...]  # canonically sorted
    delta: float
    L: float
    thresholds: Thresholds
    _leaf_index: dict[tuple[int, ...], list[Spider]] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        idx: dict[tuple[int, ...], list[Spider]] = {}
        for S in self.members:
            idx.setdefault(S.leaf_vector, []).append(S)
        self._leaf_index = idx

    def with_leaf(self, leaf: tuple[int, ...]) -> list[Spider]:
        return self._leaf_index.get(tuple(leaf), [])


def _condition_ii_threshold(delta: float, L: float, weight: int) -> Fraction:
    return Fraction(delta) ** weight / Fraction(L) ** 2


def family_condition_violations(fam: SpiderFamily) -> list[str]:
    """Independent literal re-check of refinement conditions (i) and (ii)."""
    out = []
    f = fam.thresholds.f(sum(fam.lv))
    layout = spider_layout(fam.lv)
    flat = [layout.flatten(S) for S in fam.members]
    counts = Counter(map(layout.leaf, flat))
    for S, sp in zip(fam.members, flat):
        if 2 * counts[layout.leaf(sp)] < f:
            out.append(f"(i) violated at {S}")
    for gamma, trunc in layout.truncations.items():
        thr = _condition_ii_threshold(fam.delta, fam.L, sum(gamma))
        tc = Counter(map(trunc, flat))
        for S, sp in zip(fam.members, flat):
            if tc[trunc(sp)] < thr:
                out.append(f"(ii) violated at {S} for gamma={gamma}")
    return out


def refine_family(
    t0: Iterable[Spider],
    thresholds: Thresholds,
    delta: float,
    L: float,
) -> SpiderFamily:
    """The largest subfamily of `t0` satisfying (i) every leaf vector
    carries at least f/2 members and (ii) every gamma-truncation class
    carries at least delta^|gamma| / L^2 members; the order of discards
    does not matter.  Both conditions only get harder to meet as members
    leave, so each round drops every current violator at once, until a
    round drops nothing.  The result may be empty.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if L < 1:
        raise ValueError("L must be >= 1")
    members = set(t0)
    lv: tuple[int, ...] | None = None
    for S in members:
        if lv is None:
            lv = S.length_vector
        elif S.length_vector != lv:
            raise ValueError("family members must share one length vector")
    if lv is None:
        return SpiderFamily((), (), delta, L, thresholds)

    f = thresholds.f(sum(lv))
    layout = spider_layout(lv)
    leaf = layout.leaf
    # counts are integers, so count >= x iff count >= ceil(x); a bound of
    # at most 1 always holds, because a member's own class counts it
    support = []
    for gamma, trunc in layout.truncations.items():
        bound = math.ceil(_condition_ii_threshold(delta, L, sum(gamma)))
        if bound > 1:
            support.append((trunc, bound))
    flat = set(map(layout.flatten, members))
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

    fam = SpiderFamily(lv, tuple(map(layout.to_spider, sorted(flat))),
                       delta, L, thresholds)
    violations = family_condition_violations(fam)
    if violations:
        raise RuntimeError(
            f"refined family fails its re-check: {violations[0]}")
    return fam


# -- disjoint representatives --------------------------------------------------


@dataclass(frozen=True)
class DisjointReps:
    spiders: tuple[Spider, ...]
    shortfall: bool


def disjoint_representatives(
    fam: SpiderFamily, leaf: tuple[int, ...], quota: int
) -> DisjointReps:
    """Greedy maximal set of members with the given leaf vector that are
    pairwise vertex-disjoint apart from their leaves, in canonical order;
    stops at the quota.
    """
    if quota < 0:
        raise ValueError("quota must be >= 0")
    leaf_set = set(leaf)
    kept: list[Spider] = []
    kept_vs: set[int] = set()
    for S in fam.with_leaf(leaf):
        if len(kept) >= quota:
            break
        vs = S.vertex_set()
        if (vs & kept_vs) <= leaf_set:
            kept.append(S)
            kept_vs |= vs
    return DisjointReps(tuple(kept), shortfall=len(kept) < quota)


# -- the chain ------------------------------------------------------------------


@dataclass(frozen=True)
class BuildResult:
    paths: tuple[tuple[int, ...], ...]  # path i runs v_i .. w_i
    start_leaves: tuple[int, ...]
    end_leaves: tuple[int, ...]
    s_chain: tuple[Spider, ...]
    t_chain: tuple[Spider, ...]
    z_overflow: bool  # |Z| exceeded L (reported, not enforced)


def _gamma_schedule(
    lv: tuple[int, ...], targets: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Columns gamma[j] decomposing each k_i - l_i as gamma_0 + 2+2+...,
    parity bit first, then ones packed at the earliest columns.
    """
    s = len(lv)
    gamma0 = tuple((t - l) % 2 for t, l in zip(targets, lv))
    halves = [(t - l - g) // 2 for t, l, g in zip(targets, lv, gamma0)]
    cols = [gamma0]
    for j in range(1, max(halves, default=0) + 1):
        cols.append(tuple(1 if j <= h else 0 for h in halves))
    return cols


def build_paths(
    fam: SpiderFamily,
    r0: Spider,
    Z: Iterable[int],
    targets: tuple[int, ...],
) -> BuildResult:
    """Grow paths from the leaves of r0 by alternately extending (S_j picks
    a family member containing the current stub) and relocating (T_j picks
    a disjoint member with the same leaf vector, then truncates).

    The chain stops after the last column that actually extends a path;
    trailing all-zero columns are skipped, so equal targets need no chain
    at all.
    """
    lv = fam.lv
    s = len(lv)
    if len(targets) != s:
        raise ValueError("targets must match the family's leg count")
    if any(t < l for t, l in zip(targets, lv)):
        raise ValueError("targets must dominate the length vector")
    if sum(1 for l in lv if l == 1) > 1:
        raise ValueError("at most one leg of length 1 is supported")
    zset = set(Z)

    cols = _gamma_schedule(lv, targets)
    gamma0 = cols[0]
    want = tuple(l - g for l, g in zip(lv, gamma0))
    if r0.length_vector != want:
        raise ValueError(
            f"r0 has length vector {r0.length_vector}, expected {want}"
        )
    if not any(gamma_truncation(S, gamma0) == r0 for S in fam.members):
        raise ValueError("r0 is not a truncation of any family member")
    if zset & set(r0.leaf_vector):
        raise ValueError("Z intersects the starting leaf vector")

    last = max(
        (j for j, col in enumerate(cols) if any(col)), default=-1
    )
    J = last + 1
    z_overflow = len(zset) > fam.L

    grid: list[tuple[int, ...]] = [r0.leaf_vector]
    s_chain: list[Spider] = []
    t_chain: list[Spider] = []
    r_prev = r0
    used: set[int] = set()

    for j in range(1, J + 1):
        gcol_prev = cols[j - 1]
        forb = zset | used
        r_vs = r_prev.vertex_set()
        s_j = None
        for M in fam.members:
            if gamma_truncation(M, gcol_prev) != r_prev:
                continue
            if (M.vertex_set() - r_vs) & forb:
                continue
            s_j = M
            break
        if s_j is None:
            raise ConstructionFailure(
                f"S_{j}", "no family member extends the current stub cleanly"
            )
        s_chain.append(s_j)
        used |= s_j.vertex_set()
        grid.append(s_j.leaf_vector)

        if j <= J - 1:
            leaf_set = set(s_j.leaf_vector)
            forb_t = zset | used
            t_j = None
            for M in fam.with_leaf(s_j.leaf_vector):
                if (M.vertex_set() - leaf_set) & forb_t:
                    continue
                t_j = M
                break
            if t_j is None:
                raise ConstructionFailure(
                    f"T_{j}", "no disjoint member shares the leaf vector"
                )
            t_chain.append(t_j)
            used |= t_j.vertex_set()
            r_prev = gamma_truncation(t_j, cols[j])
            grid.append(r_prev.leaf_vector)

    # every grid column must consist of distinct vertices
    for col in grid:
        if len(set(col)) != s:
            raise RuntimeError(f"grid column collision at {col}")

    paths = []
    for i in range(s):
        seq = [grid[0][i]]
        for col in grid[1:]:
            if col[i] != seq[-1]:
                seq.append(col[i])
        want_len = targets[i] - lv[i]
        if len(seq) - 1 != want_len or len(set(seq)) != len(seq):
            raise ConstructionFailure(
                f"P_{i}", "chained vertices do not form a simple path"
            )
        if set(seq) & zset:
            raise ConstructionFailure(f"P_{i}", "path touches Z")
        paths.append(tuple(seq))
    for i in range(s):
        for j in range(i + 1, s):
            if set(paths[i]) & set(paths[j]):
                raise ConstructionFailure(
                    "paths", f"paths {i} and {j} intersect"
                )

    end = grid[-1]
    return BuildResult(
        paths=tuple(paths),
        start_leaves=r0.leaf_vector,
        end_leaves=end,
        s_chain=tuple(s_chain),
        t_chain=tuple(t_chain),
        z_overflow=z_overflow,
    )


def connect_paths(
    fam: SpiderFamily, build: BuildResult, Z: Iterable[int]
) -> Spider:
    """Close the built paths with a family member whose leaf vector is the
    paths' far endpoints, avoiding Z and meeting the paths only there.
    """
    zset = set(Z)
    w = build.end_leaves
    path_vs = set().union(*(set(p) for p in build.paths))
    blocked = zset | (path_vs - set(w))
    for M in fam.with_leaf(w):
        if M.vertex_set() & blocked:
            continue
        legs = tuple(
            M.legs[i] + tuple(reversed(build.paths[i]))[1:]
            for i in range(len(w))
        )
        return Spider(M.centre, legs)
    raise ConstructionFailure(
        "connect", f"no member with leaf vector {w} avoids the paths and Z"
    )


def assemble_blowup(
    G: Graph,
    fam: SpiderFamily,
    targets: tuple[int, ...],
    t: int,
    desc: PatternDescriptor | None = None,
    Z0: Iterable[int] = (),
) -> Witness:
    """Repeatedly build+connect to collect t spiders with one shared leaf
    vector, disjoint elsewhere; their union is the rooted t-blowup.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not fam.members:
        raise ConstructionFailure("assemble", "empty family", rounds_completed=0)
    if sum(1 for l in fam.lv if l == 1) > 1:
        raise ValueError("at most one leg of length 1 is supported")
    s = len(fam.lv)
    gamma0 = _gamma_schedule(fam.lv, targets)[0]
    r0 = gamma_truncation(fam.members[0], gamma0)
    roots = r0.leaf_vector
    Z = set(Z0)
    if Z & set(roots):
        raise ValueError("initial Z intersects the chosen leaf vector")

    legs_done: list[Spider] = []
    for rnd in range(t):
        try:
            build = build_paths(fam, r0, Z, targets)
            sp = connect_paths(fam, build, Z)
        except ConstructionFailure as e:
            raise ConstructionFailure(
                e.stage, e.detail, rounds_completed=rnd
            ) from None
        if sp.leaf_vector != roots:
            raise RuntimeError(f"round {rnd} spider misses the roots {roots}")
        legs_done.append(sp)
        Z |= sp.vertex_set() - set(roots)

    if desc is None:
        desc = spider_blowup_pattern(targets, t)
    w = Witness(
        pattern=desc,
        terminals=roots + tuple(sp.centre for sp in legs_done),
        paths=tuple(
            (sp.centre,) + sp.legs[i] for sp in legs_done for i in range(s)
        ),
        route="constructive",
    )
    if not verify_embedding(G, w):
        raise RuntimeError("assembled witness failed verification")
    return w


# -- orchestration ---------------------------------------------------------------


@dataclass(frozen=True)
class FindReport:
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

    Vectors with two unit legs are skipped: their surplus collapses to
    over-counted 2-paths, whose constructive use is out of scope.
    """
    if s < 2 or t < 2 or k < 2:
        raise ValueError("s, t, k must all be >= 2")
    desc = kst_pattern(s, t, k)
    notes: list[str] = []
    tried: list[tuple[int, ...]] = []

    path_tables = classify_paths(G, k, thresholds)
    spider_tables = classify_spiders(G, (k,) * s, thresholds, path_tables)

    # threshold consistency: no leaf vector may carry more good spiders
    # than the threshold itself (impossible with exact counting)
    levels = spider_tables.levels
    full = levels[(k,) * s]
    bound = thresholds.f(s * k)
    good_by_leaf = Counter(map(spider_layout((k,) * s).leaf, full.good))
    for leaf, cnt in good_by_leaf.items():
        if cnt > bound:
            raise RuntimeError(f"threshold consistency broken at leaf {leaf}")

    delta = G.min_degree()
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
        if delta == 0:
            notes.append(f"{vec}: min degree 0, refinement impossible")
            continue
        fam = refine_family(spider_tables.not_good_admissible(vec),
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
