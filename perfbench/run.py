#!/usr/bin/env python3
"""Benchmark of the spidersearch CLI.

    python3 perfbench/run.py --workload find-fuzz --seed 5055 --seconds 25 --trace 0

Run from the root of a checkout.  Every operation is one in-process
`spidersearch.cli.main(argv)` call with stdout and stderr captured:
argument parsing, `Graph.load`, the search and the output, one at a time
on one thread (closed loop, one client).  The first pass runs every input
of the workload once; further operations cycle through the inputs until
`--seconds` have passed.  Every output is checked after the timed region.

`--trace 0` prints the end-to-end metrics, `--trace 1` one untraced and
one traced pass with the per-layer metrics (see spans.py) and the tracing
overhead.  The last line of stdout is the JSON result; the lines before it
are the human-readable report.  Timings are at the reference speed of
calibrate.py; the report prints the raw wall-clock values beside them.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import calibrate
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 7
LAYER_MODULES = ("cli", "finder", "goodness", "graph", "oracle", "patterns",
                 "sweep")

_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import calibrate
c0 = calibrate.kernel_seconds()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import spidersearch.cli
spidersearch.cli.build_parser()
dt = time.perf_counter() - t0
print(dt, c0, calibrate.kernel_seconds())
"""


def measure_setup() -> tuple[float, float]:
    """Median set-up time (import spidersearch, build the parser) over
    SETUP_RUNS fresh interpreters, after one unmeasured warm-up that
    leaves the bytecode cache as a user's second run finds it.  Returns
    (at reference speed, raw)."""
    norm, raw = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(HERE), str(SRC)],
            capture_output=True, text=True, timeout=60, check=True)
        dt, c0, c1 = map(float, proc.stdout.split())
        if i:
            raw.append(dt)
            norm.append(dt * calibrate.speed_factor((c0 + c1) / 2))
    return statistics.median(norm), statistics.median(raw)


def import_library():
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"spidersearch.{m}")
            for m in LAYER_MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "spidersearch":
        raise ImportError(f"spidersearch imported from {mods['cli'].__file__}")
    return mods


class Sample:
    """One operation: exit code, captured output, exception, start, wall
    time and time at the reference speed."""

    __slots__ = ("code", "out", "err", "exc", "t0", "wall", "norm")

    def key(self) -> tuple:
        return (self.code, self.out, self.err, self.exc)


def run_op(main, argv: list[str], tracer=None, op_id=0) -> Sample:
    s = Sample()
    out, err = io.StringIO(), io.StringIO()
    s.exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.begin_op(op_id) if tracer else None
        s.t0 = time.perf_counter()
        try:
            s.code = main(argv)
        except SystemExit as exc:
            s.code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an operation failure, reported as such
            s.code, s.exc = None, f"{type(exc).__name__}: {exc}"
        s.wall = time.perf_counter() - s.t0
    if tracer:
        tracer.end_op(span)
    s.out, s.err = out.getvalue(), err.getvalue()
    return s


def run_passes(main, ops: list[Op], seconds: float | None,
               tracer=None) -> list[list[Sample]]:
    """One full pass, then (if `seconds` is given) keep cycling through
    the inputs until `seconds` have passed since the start.  A background
    thread samples the calibration kernel throughout; afterwards every
    sample loses the sampler's own time and gets its time at the
    reference speed."""
    samples: list[list[Sample]] = [[] for _ in ops]
    done: list[Sample] = []
    # the benchmark's own objects (inputs, checkers) must not make the
    # program's garbage collections slower
    gc.collect()
    gc.freeze()
    with calibrate.SpeedLog() as speed:
        time.sleep(2 * calibrate.WINDOW_S)
        start = time.perf_counter()
        while len(done) < len(ops) or (
                seconds is not None and time.perf_counter() - start < seconds):
            j = len(done) % len(ops)
            s = run_op(main, ops[j].argv, tracer, j)
            samples[j].append(s)
            done.append(s)
        time.sleep(2 * calibrate.WINDOW_S)
    factors = []
    for s in done:
        end = s.t0 + s.wall
        s.wall -= speed.kernel_time_within(s.t0, end)
        factors.append(speed.factor(s.t0, end))
        s.norm = s.wall * factors[-1]
    if tracer:
        tracer.scale(factors)
    return samples


def check_samples(ops: list[Op], samples: list[list[Sample]]) -> list[str]:
    """Per-operation failures.  Every repeat of an input must print the
    same bytes, and that output must pass the operation's check."""
    failures = []
    for op, reps in zip(ops, samples):
        for s in reps:
            if s.key() != reps[0].key():
                failures.append(f"{op.label}: output differs between repeats")
                continue
            if s.exc is not None:
                failures.append(f"{op.label}: raised {s.exc}")
                continue
            why = op.check(s.code, s.out, s.err)
            if why:
                failures.append(f"{op.label}: {why}")
    return failures


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    values beyond it; the maximum when there are fewer than 11 values."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def latency_stats(samples: list[list[Sample]], attr: str) -> dict:
    per_input = [statistics.median(getattr(s, attr) for s in reps)
                 for reps in samples]
    t, pct = tail(per_input)
    return {"ops_per_s": len(per_input) / sum(per_input),
            "op_p50_ms": 1000 * statistics.median(per_input),
            "op_tail_ms": 1000 * t, "tail_pct": pct, "n": len(per_input)}


def route_summary(ops: list[Op], samples: list[list[Sample]]) -> str:
    """Routes of the criterion 5 hosts, read from the printed witnesses."""
    routes = {"oracle": 0, "constructive": 0, "no witness": 0}
    for op, reps in zip(ops, samples):
        if not op.core:
            continue
        s = reps[0]
        try:
            route = json.loads(s.out)["route"] if s.code == 0 else "no witness"
        except (ValueError, KeyError):
            route = "unparsable"
        routes[route] = routes.get(route, 0) + 1
    return ", ".join(f"{k} {v}" for k, v in routes.items())


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(tr, overhead: float) -> dict[str, tuple[float, str]]:
    c, busy, own, calls = tr.counts, tr.busy_s, tr.self_s, tr.calls

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    route = {r: c[f"finder.route.{r}"]
             for r in ("constructive", "oracle", "not_found", "budget")}
    m: dict[str, tuple[float, str]] = {
        "goodness.classify_paths.self_s": (own["goodness.classify_paths"], "s"),
        "goodness.classify_spiders.self_s":
            (own["goodness.classify_spiders"], "s"),
        "spiders.enumerate_spiders.s": (busy["spiders.enumerate_spiders"], "s"),
        "spiders.enumerate_spiders.yielded":
            (c["spiders.enumerate_spiders.yielded"], "count"),
        "goodness.spiders_enumerated": (c["goodness.spiders_enumerated"], "count"),
        "goodness.spiders_admissible": (c["goodness.spiders_admissible"], "count"),
        "goodness.spiders_good": (c["goodness.spiders_good"], "count"),
        "goodness.spiders_admissible_ratio": (ratio(
            c["goodness.spiders_admissible"],
            c["goodness.spiders_enumerated"]), "ratio"),
        "goodness.paths_enumerated": (c["goodness.paths_enumerated"], "count"),
        "finder.find_kstk.self_s": (own["finder.find_kstk"], "s"),
        "finder.refine_family.self_s": (own["finder.refine_family"], "s"),
        "finder.refine_family.calls": (calls["finder.refine_family"], "count"),
        "finder.family_condition_violations.s":
            (busy["finder.family_condition_violations"], "s"),
        "finder.family_in": (c["finder.family_in"], "count"),
        "finder.family_out": (c["finder.family_out"], "count"),
        "finder.refine_discards":
            (c["finder.family_in"] - c["finder.family_out"], "count"),
        "finder.assemble_blowup.s": (busy["finder.assemble_blowup"], "s"),
        "finder.assemble_failures": (c["finder.assemble_failures"], "count"),
        **{f"finder.route.{r}": (v, "count") for r, v in route.items()},
        "finder.constructive_share": (ratio(
            route["constructive"], route["constructive"] + route["oracle"]),
            "ratio"),
        "oracle.contains.self_s": (own["oracle.contains"], "s"),
        "oracle.contains.calls": (calls["oracle.contains"], "count"),
        "oracle.contains.nodes": (c["oracle.contains.nodes"], "count"),
        "oracle.adding_edge_creates.self_s":
            (own["oracle.adding_edge_creates"], "s"),
        "oracle.adding_edge_creates.calls":
            (calls["oracle.adding_edge_creates"], "count"),
        "oracle.adding_edge_creates.blocked_ratio": (ratio(
            c["oracle.adding_edge_creates.blocked"],
            calls["oracle.adding_edge_creates"]), "ratio"),
        "oracle.hill_climb_free.self_s": (own["oracle.hill_climb_free"], "s"),
        "oracle.is_pattern_free.s": (busy["oracle.is_pattern_free"], "s"),
        "oracle.verify_embedding.s": (busy["oracle.verify_embedding"], "s"),
        "patterns.as_cycle_length.s": (busy["patterns.as_cycle_length"], "s"),
        "patterns.as_cycle_length.calls":
            (calls["patterns.as_cycle_length"], "count"),
        "patterns.compile_template.s": (busy["patterns.compile_template"], "s"),
        "patterns.compile_template.calls":
            (calls["patterns.compile_template"], "count"),
        "oracle.canonical_form.s": (busy["oracle.canonical_form"], "s"),
        "oracle.canonical_form.calls": (calls["oracle.canonical_form"], "count"),
        "oracle.canonical_form.distinct_ratio": (ratio(
            c["oracle.canonical_form.distinct"],
            calls["oracle.canonical_form"]), "ratio"),
        "oracle.extremal_number.self_s": (own["oracle.extremal_number"], "s"),
        "cli.main.self_s": (own["cli.main"], "s"),
        "graph.Graph.load.s": (busy["graph.Graph.load"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return m


COUNT_METRICS = (
    "goodness.spiders_enumerated", "goodness.paths_enumerated",
    "spiders.enumerate_spiders.yielded", "oracle.contains.nodes",
    "oracle.contains.calls", "oracle.canonical_form.calls",
    "oracle.adding_edge_creates.calls", "finder.route.constructive",
    "finder.route.oracle", "finder.route.not_found", "finder.route.budget",
    "finder.family_in", "finder.family_out",
)


def source_digest() -> str:
    """Digest of the program's source, so counts are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for f in sorted((SRC / "spidersearch").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def check_counts_repeat(name: str, seed: int, metrics: dict) -> str | None:
    """Counts must repeat exactly: compare with the previous traced run of
    this workload and seed on the same program source in this checkout,
    if there was one."""
    path = WORK / "counts" / f"{name}-{seed}-{source_digest()}.json"
    counts = {k: metrics[k][0] for k in COUNT_METRICS}
    if path.exists():
        before = json.loads(path.read_text())
        diff = [k for k in COUNT_METRICS if before.get(k) != counts[k]]
        if diff:
            return f"counts differ from the previous traced run: {diff}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1) + "\n")
    return None


# -- report --------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def print_failures(failures: list[str]) -> None:
    for f in failures[:20]:
        print(f"  FAIL {f}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more failures")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed

    if not (SRC / "spidersearch" / "cli.py").is_file():
        print(f"error: no program at {SRC}/spidersearch", file=sys.stderr)
        return 2
    if not args.trace:
        setup_norm, setup_raw = measure_setup()
    t0 = time.perf_counter()
    lib = types.SimpleNamespace(**import_library())
    import_s = time.perf_counter() - t0
    gmpy2 = "absent" if importlib.util.find_spec("gmpy2") is None else "present"
    print(f"workload {wl.name}, seed {seed}, trace {args.trace}; "
          f"CPython {platform.python_version()}, nproc "
          f"{len(os.sched_getaffinity(0))}, gmpy2 {gmpy2}")
    print("  closed loop, 1 client, 1 thread; time waited: not applicable "
          "(single-threaded, no queues)")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ops = wl.build(seed, Path(tmp), lib)
        main_fn = lib.cli.main
        if not args.trace:
            samples = run_passes(main_fn, ops, args.seconds)
            return report_untraced(wl, ops, samples, setup_norm, setup_raw,
                                   import_s)
        plain = run_passes(main_fn, ops, None)
        from spans import Tracer
        tracer = Tracer()
        tracer.install(vars(lib))
        try:
            traced = run_passes(main_fn, ops, None, tracer)
        finally:
            tracer.uninstall()
    return report_traced(wl, seed, ops, plain, traced, tracer)


def report_untraced(wl, ops, samples, setup_norm, setup_raw, import_s) -> int:
    failures = check_samples(ops, samples)
    attempted = sum(len(r) for r in samples)
    ref = latency_stats(samples, "norm")
    raw = latency_stats(samples, "wall")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  {len(ops)} inputs, {attempted} operations; "
          f"times at reference speed (raw wall clock in brackets)")
    print(f"  ops_per_s    {ref['ops_per_s']:.4f} 1/s  [{raw['ops_per_s']:.4f}]")
    print(f"  op_p50_ms    {ref['op_p50_ms']:.3f} ms  [{raw['op_p50_ms']:.3f}]"
          f"  (n={ref['n']} inputs, each the median of its repeats)")
    print(f"  op_tail_ms   {ref['op_tail_ms']:.3f} ms  [{raw['op_tail_ms']:.3f}]"
          f"  (p{ref['tail_pct']:.1f}, n={ref['n']})")
    print(f"  failed_ratio {len(failures) / attempted:.4f}  "
          f"({len(failures)}/{attempted})")
    print(f"  setup_s      {setup_norm:.5f} s  [{setup_raw:.5f}]  (median of "
          f"{SETUP_RUNS} fresh interpreters; in-process import {import_s:.4f})")
    print(f"  peak_rss_mb  {rss_mb:.2f} MB")
    if wl.name == "find-fuzz":
        print(f"  criterion 5 host routes: {route_summary(ops, samples)} "
              f"(recorded: oracle 118, constructive 53, no witness 29)")
    print_failures(failures)
    emit(not failures, attempted, len(failures), {
        "ops_per_s": (ref["ops_per_s"], "1/s"),
        "op_p50_ms": (ref["op_p50_ms"], "ms"),
        "op_tail_ms": (ref["op_tail_ms"], "ms"),
        "setup_s": (setup_norm, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    })
    return 0 if not failures else 1


def report_traced(wl, seed, ops, plain, traced, tracer) -> int:
    failures = check_samples(ops, plain) + check_samples(ops, traced)
    for op, a, b in zip(ops, plain, traced):
        if a[0].key() != b[0].key():
            failures.append(f"{op.label}: traced output differs from untraced")
    untraced_s = sum(r[0].norm for r in plain)
    traced_s = sum(r[0].norm for r in traced)
    overhead = traced_s / untraced_s - 1
    metrics = layer_metrics(tracer, overhead)
    why = check_counts_repeat(wl.name, seed, metrics)
    if why:
        failures.append(why)
    spans_path = WORK / "spans" / f"{wl.name}-{seed}.tsv.gz"
    tracer.write(spans_path)
    attempted = 2 * len(ops)
    if wl.name == "find-fuzz":
        print(f"  criterion 5 host routes: {route_summary(ops, traced)}")
    print(f"  {len(ops)} inputs, one untraced and one traced pass; "
          f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"  tracing overhead {100 * overhead:+.1f} % "
          f"({untraced_s:.3f} s untraced, {traced_s:.3f} s traced, "
          f"reference speed)")
    width = max(map(len, metrics))
    for k, (v, u) in metrics.items():
        print(f"  {k:<{width}}  {v:.6g} {u}")
    print_failures(failures)
    emit(not failures, attempted, len(failures), metrics)
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, subprocess.SubprocessError) as exc:
        print(f"error: cannot run the program: {exc}", file=sys.stderr)
        sys.exit(2)
