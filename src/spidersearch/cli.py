"""Command-line interface.

Exit codes for `find`: 0 witness found, 1 not found, 2 input error.
Every command exits 2 with an `error:` line, not a traceback, when a
computation gives up (a size limit, a witness that fails re-verification).
All commands are deterministic given identical inputs and seeds; the
--threads flag is accepted for interface compatibility but execution is
sequential (results never depend on it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .finder import find_kstk
from .goodness import (
    Thresholds,
    classify_paths,
    classify_spiders,
    not_good_ratio,
)
from .graph import (
    BalanceUndecidable,
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
from .regularize import RegularizeParams, extract_almost_regular
from .spiders import count_by_leaf, enumerate_spiders
from .sweep import SweepConfig, run_sweep


def _load_graph(path: str) -> Graph:
    return Graph.load(Path(path).read_text())


def _parse_thresholds(text: str, L: float) -> Thresholds:
    if text == "paper":
        return Thresholds.paper_recursion(L)
    if text.startswith("const:"):
        return Thresholds.constant(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown threshold mode {text!r} (use paper or const:N)")


def _parse_lv(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


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

    r = sub.add_parser("regularize", help="extract a dense almost-regular subgraph")
    r.add_argument("--graph", required=True)
    r.add_argument("--epsilon", type=float, required=True)
    r.add_argument("--c", type=float, default=1.0)
    r.add_argument("--out")

    s = sub.add_parser("spiders", help="spider enumeration")
    ssub = s.add_subparsers(dest="spiders_command", required=True)
    sc = ssub.add_parser("count")
    sc.add_argument("--graph", required=True)
    sc.add_argument("--lv", required=True)
    sc.add_argument("--by-leaf", action="store_true")
    sc.add_argument("--out")

    c = sub.add_parser("classify", help="admissible/good classification")
    c.add_argument("--graph", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--L", type=float, default=1.0)
    c.add_argument("--threshold", default="paper")
    c.add_argument("--lv")
    c.add_argument("--out")

    f = sub.add_parser("find", help="find a subdivision / spider blowup")
    f.add_argument("--graph", required=True)
    f.add_argument("--pattern", required=True)
    f.add_argument("--L", type=float, default=2.0)
    f.add_argument("--threshold", default="paper")
    f.add_argument("--node-limit", type=int)
    f.add_argument("--out")

    o = sub.add_parser("oracle", help="ground-truth searches")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    oc = osub.add_parser("contains")
    oc.add_argument("--graph", required=True)
    oc.add_argument("--pattern", required=True)
    oc.add_argument("--node-limit", type=int)
    oc.add_argument("--out")
    oe = osub.add_parser("extremal")
    oe.add_argument("--n", type=int, required=True)
    oe.add_argument("--pattern", required=True)
    oe.add_argument("--node-limit", type=int)
    oe.add_argument("--out")
    oh = osub.add_parser("hillclimb")
    oh.add_argument("--n", type=int, required=True)
    oh.add_argument("--pattern", required=True)
    oh.add_argument("--iters", type=int, default=1000)
    oh.add_argument("--seed", type=int, default=0)
    oh.add_argument("--out")

    w = sub.add_parser("sweep", help="heuristic lower-bound sweep")
    w.add_argument("--pattern", required=True)
    w.add_argument("--n-range", required=True, metavar="A:B:S")
    w.add_argument("--seeds", type=int, default=1)
    w.add_argument("--iters", type=int, default=1000)
    w.add_argument("--timing", action="store_true",
                   help="record real wall times (breaks byte-identical reruns)")
    w.add_argument("--out")
    return p


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
    rep = extract_almost_regular(
        g, RegularizeParams(epsilon=args.epsilon, c=args.c)
    )
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
        counts = count_by_leaf(enumerate_spiders(g, lv))
        lines = ["leaf_vector,count"]
        for leaf in sorted(counts):
            lines.append(f"{'-'.join(map(str, leaf))},{counts[leaf]}")
        _emit("\n".join(lines) + "\n", args.out, args.quiet)
    else:
        total = sum(1 for _ in enumerate_spiders(g, lv))
        _emit(f"total={total}\n", args.out, args.quiet)
    return 0


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    thr = _parse_thresholds(args.threshold, args.L)
    paths = classify_paths(g, args.k, thr)
    payload: dict = {"paths": {}}
    for ell in sorted(paths.levels):
        lvl = paths.levels[ell]
        payload["paths"][str(ell)] = {
            "objects": lvl.total,
            "admissible": len(lvl.admissible),
            "good": len(lvl.good),
        }
    if args.lv:
        lv = _parse_lv(args.lv)
        spiders = classify_spiders(g, lv, thr, paths)
        payload["spiders"] = {}
        for vec in sorted(spiders.levels, key=lambda v: (sum(v), v)):
            lvl = spiders.levels[vec]
            ratio = not_good_ratio(g, vec, spiders)
            payload["spiders"][",".join(map(str, vec))] = {
                "objects": lvl.total,
                "admissible": len(lvl.admissible),
                "good": len(lvl.good),
                "not_good_ratio": (
                    "inf" if ratio == float("inf") else round(ratio, 9)
                ),
            }
    params = {
        "graph": args.graph,
        "k": args.k,
        "threshold": thr.describe(),
        "lv": args.lv,
    }
    _emit(_report("classify", params, payload), args.out, args.quiet)
    return 0


def _cmd_find(args) -> int:
    g = _load_graph(args.graph)
    desc = parse_pattern(args.pattern)
    thr = _parse_thresholds(args.threshold, args.L)
    budget = SearchBudget(node_limit=args.node_limit) if args.node_limit else None
    if desc.kind == "kst" and desc.s >= 2 and desc.t >= 2 and desc.subdivision >= 2:
        report = find_kstk(
            g, desc.s, desc.t, desc.subdivision, thr, args.L, budget
        )
        witness = report.witness
        if not args.quiet:
            for note in report.notes:
                print(f"note: {note}", file=sys.stderr)
    else:
        res = contains(g, desc, budget)
        witness = res.witness
    if witness is None:
        if not args.quiet:
            print("no witness found", file=sys.stderr)
        return 1
    _emit(witness.to_json(), args.out, args.quiet)
    return 0


def _cmd_oracle(args) -> int:
    if args.oracle_command == "contains":
        g = _load_graph(args.graph)
        desc = parse_pattern(args.pattern)
        budget = (
            SearchBudget(node_limit=args.node_limit) if args.node_limit else None
        )
        res = contains(g, desc, budget)
        if res.status == "found":
            _emit(res.witness.to_json(), args.out, args.quiet)
            return 0
        _emit(f"status={res.status}\n", args.out, args.quiet)
        return 1
    if args.oracle_command == "extremal":
        desc = parse_pattern(args.pattern)
        budget = (
            SearchBudget(node_limit=args.node_limit) if args.node_limit else None
        )
        res = extremal_number(args.n, desc, budget)
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
    # hillclimb
    desc = parse_pattern(args.pattern)
    g = hill_climb_free(args.n, desc, args.iters, args.seed)
    _emit(g.dump(), args.out, args.quiet)
    return 0


def _cmd_sweep(args) -> int:
    parts = args.n_range.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("--n-range must be A:B or A:B:S")
    start, stop = int(parts[0]), int(parts[1])
    step = int(parts[2]) if len(parts) == 3 else 1
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "regularize":
            return _cmd_regularize(args)
        if args.command == "spiders":
            return _cmd_spiders_count(args)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "find":
            return _cmd_find(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, RuntimeError, BalanceUndecidable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
