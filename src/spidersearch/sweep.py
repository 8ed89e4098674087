"""Experiment sweeps: heuristic pattern-free lower bounds over a range of
host sizes, with a log-log slope fitted against the reference exponent.

Outputs are heuristic lower bounds only; nothing here estimates an
extremal number.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from .oracle import (
    adding_edge_creates,
    first_unblocked_pair,
    hill_climb_free,
    is_pattern_free,
)
from .patterns import PatternDescriptor, theoretical_exponent


class _SweepConfig(NamedTuple):
    pattern: PatternDescriptor
    n_start: int
    n_stop: int
    n_step: int = 1
    seeds: int = 1
    iterations: int = 1000
    timing: bool = False


class SweepConfig(_SweepConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "SweepConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.n_start > self.n_stop:
            raise ValueError("empty n-range")
        if self.n_step < 1:
            raise ValueError("step must be >= 1")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        return self

    def ns(self) -> list[int]:
        return list(range(self.n_start, self.n_stop + 1, self.n_step))


class SweepRow(NamedTuple):
    n: int
    seed: int
    edges: int
    verified: bool
    wall_ms: int


def _fit_slope(points: list[tuple[float, float]]) -> float | None:
    if len(points) < 2:
        return None
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def run_sweep(config: SweepConfig) -> tuple[list[SweepRow], str]:
    """Run the sweep and render the CSV document (rows plus trailing
    commented summary).  Any row that fails re-verification aborts.

    A row is verified pattern-free by a fresh containment search, and
    edge-maximal by checking, without a search, the copy that the climb
    returned for each non-edge.  At the first non-edge whose copy fails,
    `adding_edge_creates` decides whether the graph is not edge-maximal
    there or only the copy is wrong.
    """
    desc = config.pattern
    rows: list[SweepRow] = []
    for n in config.ns():
        for seed in range(config.seeds):
            t0 = time.monotonic()
            climb = hill_climb_free(n, desc, config.iterations, seed)
            wall_ms = int((time.monotonic() - t0) * 1000) if config.timing else 0
            g = climb.graph
            if not is_pattern_free(g, desc):
                raise RuntimeError(
                    f"sweep row n={n} seed={seed}: output contains the pattern"
                )
            gap = first_unblocked_pair(g, desc, climb.copies)
            if gap is not None:
                u, v = gap
                fault = (
                    f"blocking copy at ({u},{v}) failed verification"
                    if adding_edge_creates(g, u, v, desc)
                    else f"not edge-maximal at ({u},{v})"
                )
                raise RuntimeError(f"sweep row n={n} seed={seed}: {fault}")
            rows.append(SweepRow(n, seed, g.m, True, wall_ms))

    ns = config.ns()
    upper = set(ns[len(ns) // 2:])
    pts = [
        (math.log(r.n), math.log(r.edges))
        for r in rows
        if r.n in upper and r.edges > 0
    ]
    slope = _fit_slope(pts)
    theory = theoretical_exponent(desc)

    lines = ["n,seed,edges,verified,wall_ms"]
    for r in rows:
        lines.append(
            f"{r.n},{r.seed},{r.edges},{int(r.verified)},{r.wall_ms}"
        )
    lines.append(
        f"# slope={slope:.6f}" if slope is not None else "# slope=NA"
    )
    lines.append(
        f"# theory={float(theory):.6f}" if theory is not None else "# theory=NA"
    )
    lines.append("# note=heuristic lower bound, not an extremal estimate")
    return rows, "\n".join(lines) + "\n"
