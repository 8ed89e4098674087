"""Command-line interface.

Exit codes for `find`: 0 witness found, 1 not found (also when
--node-limit runs out first, which stderr says), 2 input error.
Every command exits 2 with an `error:` line, not a traceback, when a
computation gives up (a size limit, running out of memory, a witness that
fails re-verification).
All commands are deterministic given identical inputs and seeds; the
--threads flag is accepted for interface compatibility but execution is
sequential (results never depend on it).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import cache
from pathlib import Path

from . import __version__
from .finder import find_kstk
from .goodness import (
    Level,
    Thresholds,
    classify_paths,
    classify_spiders,
    not_good_ratio,
)
from .graph import (
    Graph,
    complete_bipartite,
    cycle_graph,
    random_gnm,
)
from .oracle import (
    SearchBudget,
    contains,
    extremal_number,
    hill_climb_free,
)
from .patterns import parse_pattern
from .regularize import extract_almost_regular
from .spiders import enumerate_spiders, spider_layout
from .sweep import SweepConfig, run_sweep


def _load_graph(path: str) -> Graph:
    return Graph.load(Path(path).read_text())


def _parse_lv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse length vector {text!r}") from None


def _emit(text: str, out: str | None, quiet: bool) -> None:
    if out:
        Path(out).write_text(text)
        if not quiet:
            print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _report(command: str, params: dict, payload: dict) -> str:
    doc = {
        "tool": "spidersearch",
        "version": __version__,
        "command": command,
        "params": params,
    }
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spidersearch",
        description="Spider-based subdivision search and its oracles.",
    )
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="accepted for compatibility; execution is sequential")
    p.add_argument("--quiet", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph file")
    g.add_argument("--kind", required=True,
                   choices=["random", "kst", "cycle"])
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--s", type=int)
    g.add_argument("--t", type=int)
    g.add_argument("--length", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(run=_cmd_gen)

    r = sub.add_parser("regularize", help="extract a dense almost-regular subgraph")
    r.add_argument("--graph", required=True)
    r.add_argument("--epsilon", type=float, required=True)
    r.add_argument("--out")
    r.set_defaults(run=_cmd_regularize)

    s = sub.add_parser("spiders", help="spider enumeration")
    ssub = s.add_subparsers(dest="spiders_command", required=True)
    sc = ssub.add_parser("count")
    sc.add_argument("--graph", required=True)
    sc.add_argument("--lv", required=True)
    sc.add_argument("--by-leaf", action="store_true")
    sc.add_argument("--out")
    sc.set_defaults(run=_cmd_spiders_count)

    c = sub.add_parser("classify", help="admissible/good classification")
    c.add_argument("--graph", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--L", type=float, default=1.0)
    c.add_argument("--threshold", default="paper")
    c.add_argument("--lv")
    c.add_argument("--out")
    c.set_defaults(run=_cmd_classify)

    f = sub.add_parser("find", help="find a subdivision / spider blowup")
    f.add_argument("--graph", required=True)
    f.add_argument("--pattern", required=True)
    f.add_argument("--L", type=float, default=2.0)
    f.add_argument("--threshold", default="paper")
    f.add_argument("--node-limit", type=int)
    f.add_argument("--out")
    f.set_defaults(run=_cmd_find)

    o = sub.add_parser("oracle", help="ground-truth searches")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    oc = osub.add_parser("contains")
    oc.add_argument("--graph", required=True)
    oc.add_argument("--pattern", required=True)
    oc.add_argument("--node-limit", type=int)
    oc.add_argument("--out")
    oc.set_defaults(run=_cmd_contains)
    oe = osub.add_parser("extremal")
    oe.add_argument("--n", type=int, required=True)
    oe.add_argument("--pattern", required=True)
    oe.add_argument("--node-limit", type=int)
    oe.add_argument("--out")
    oe.set_defaults(run=_cmd_extremal)
    oh = osub.add_parser("hillclimb")
    oh.add_argument("--n", type=int, required=True)
    oh.add_argument("--pattern", required=True)
    oh.add_argument("--iters", type=int, default=1000)
    oh.add_argument("--seed", type=int, default=0)
    oh.add_argument("--out")
    oh.set_defaults(run=_cmd_hillclimb)

    w = sub.add_parser("sweep", help="heuristic lower-bound sweep")
    w.add_argument("--pattern", required=True)
    w.add_argument("--n-range", required=True, metavar="A:B:S")
    w.add_argument("--seeds", type=int, default=1)
    w.add_argument("--iters", type=int, default=1000)
    w.add_argument("--timing", action="store_true",
                   help="record real wall times (breaks byte-identical reruns)")
    w.add_argument("--out")
    w.set_defaults(run=_cmd_sweep)
    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs far more than parsing."""
    return build_parser()


def _cmd_gen(args) -> int:
    if args.kind == "random":
        if args.n is None or args.m is None:
            raise ValueError("random generation needs --n and --m")
        g = random_gnm(args.n, args.m, args.seed)
    elif args.kind == "kst":
        if args.s is None or args.t is None:
            raise ValueError("kst generation needs --s and --t")
        g = complete_bipartite(args.s, args.t)
    else:
        if args.length is None:
            raise ValueError("cycle generation needs --length")
        g = cycle_graph(args.length)
    _emit(g.dump(), args.out, args.quiet)
    return 0


def _cmd_regularize(args) -> int:
    g = _load_graph(args.graph)
    rep = extract_almost_regular(g, args.epsilon)
    lines = [
        f"m={rep.m}",
        f"e={rep.subgraph.m}",
        f"achieved_K={rep.achieved_K:.6f}",
        f"exponent={rep.edge_exponent:.6f}",
        f"theoretical_K={rep.theoretical_K:.6e}",
        f"vertices={','.join(map(str, rep.vertices))}",
    ]
    _emit("\n".join(lines) + "\n", args.out, args.quiet)
    return 0


def _cmd_spiders_count(args) -> int:
    g = _load_graph(args.graph)
    lv = _parse_lv(args.lv)
    if args.by_leaf:
        # the layout is built after the first spider, so that an invalid
        # vector is reported by enumerate_spiders
        counts = Counter(spider_layout(lv).leaf(sp)
                         for sp in enumerate_spiders(g, lv))
        lines = ["leaf_vector,count"]
        for leaf in sorted(counts):
            lines.append(f"{'-'.join(map(str, leaf))},{counts[leaf]}")
        _emit("\n".join(lines) + "\n", args.out, args.quiet)
    else:
        total = sum(1 for _ in enumerate_spiders(g, lv))
        _emit(f"total={total}\n", args.out, args.quiet)
    return 0


def _level_counts(lvl: Level, objects: int) -> dict:
    return {"objects": objects, "admissible": len(lvl.admissible),
            "good": len(lvl.good)}


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    thr = Thresholds.parse(args.threshold, args.L)
    paths = classify_paths(g, args.k, thr)
    payload: dict = {"paths": {str(ell): _level_counts(lvl, lvl.total)
                               for ell, lvl in sorted(paths.levels.items())}}
    if args.lv is not None:
        lv = _parse_lv(args.lv)
        spiders = classify_spiders(g, lv, thr, paths)
        payload["spiders"] = {}
        for vec in sorted(spiders.levels, key=lambda v: (sum(v), v)):
            ratio = not_good_ratio(g, vec, spiders)
            # every spider with this vector, admissible or not; the
            # classification itself examines only extensions of good ones
            objects = sum(1 for _ in enumerate_spiders(g, vec))
            payload["spiders"][",".join(map(str, vec))] = {
                **_level_counts(spiders.levels[vec], objects),
                "not_good_ratio": (
                    "inf" if ratio == float("inf") else round(ratio, 9)
                ),
            }
    params = {
        "graph": args.graph,
        "k": args.k,
        "L": args.L,
        "threshold": thr.spelling,
        "lv": args.lv,
    }
    _emit(_report("classify", params, payload), args.out, args.quiet)
    return 0


def _cmd_find(args) -> int:
    g = _load_graph(args.graph)
    desc = parse_pattern(args.pattern)
    thr = Thresholds.parse(args.threshold, args.L)
    budget = SearchBudget(args.node_limit)
    if desc.kind == "kst" and desc.s >= 2 and desc.t >= 2 and desc.subdivision >= 2:
        report = find_kstk(
            g, desc.s, desc.t, desc.subdivision, thr, args.L, budget
        )
        witness, status = report.witness, report.status
        if not args.quiet:
            for note in report.notes:
                print(f"note: {note}", file=sys.stderr)
    else:
        res = contains(g, desc, budget)
        witness, status = res.witness, res.status
    if witness is None:
        if not args.quiet:
            if status == "budget":
                print("node limit ran out before the search finished; "
                      "absence not shown", file=sys.stderr)
            print("no witness found", file=sys.stderr)
        return 1
    _emit(witness.to_json(), args.out, args.quiet)
    return 0


def _cmd_contains(args) -> int:
    g = _load_graph(args.graph)
    desc = parse_pattern(args.pattern)
    res = contains(g, desc, SearchBudget(args.node_limit))
    if res.status == "found":
        _emit(res.witness.to_json(), args.out, args.quiet)
        return 0
    _emit(f"status={res.status}\n", args.out, args.quiet)
    return 1


def _cmd_extremal(args) -> int:
    desc = parse_pattern(args.pattern)
    res = extremal_number(args.n, desc, SearchBudget(args.node_limit))
    payload = {
        "n": res.n,
        "pattern": str(res.pattern),
        "value": res.value,
        "exhaustive": res.exhaustive,
        "witness_edges": [list(e) for e in res.witness_graph.sorted_edges()],
    }
    _emit(
        _report("oracle-extremal", {"n": args.n, "pattern": args.pattern},
                payload),
        args.out, args.quiet,
    )
    return 0


def _cmd_hillclimb(args) -> int:
    desc = parse_pattern(args.pattern)
    g = hill_climb_free(args.n, desc, args.iters, args.seed).graph
    _emit(g.dump(), args.out, args.quiet)
    return 0


def _cmd_sweep(args) -> int:
    parts = args.n_range.split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ValueError("--n-range must be A:B or A:B:S") from None
    config = SweepConfig(
        pattern=parse_pattern(args.pattern),
        n_start=start,
        n_stop=stop,
        n_step=step,
        seeds=args.seeds,
        iterations=args.iters,
        timing=args.timing,
    )
    _, csv = run_sweep(config)
    _emit(csv, args.out, args.quiet)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        return args.run(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
