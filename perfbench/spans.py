"""Spans around the calls into each layer, recorded from outside the
library.

`Tracer.install()` replaces a function's name in the namespace of the
module that *calls* it (for example `spidersearch.finder.classify_spiders`
or `spidersearch.oracle.as_cycle_length`) with a wrapper that records a
span: name, start, end, parent span and operation id.  No library file
changes, and `uninstall()` restores every name.  Spans stay in memory
until `write()`.

A span's self time is its duration minus the time its child spans cover.
For a generator (`spiders.enumerate_spiders`) the span covers only the
time spent inside the generator's `next`, and that is what it subtracts
from its parent.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module the call is made from, attribute, layer-qualified span name)
CALL_SITES = (
    ("cli", "find_kstk", "finder.find_kstk"),
    ("cli", "contains", "oracle.contains"),
    ("cli", "extremal_number", "oracle.extremal_number"),
    ("cli", "hill_climb_free", "oracle.hill_climb_free"),
    ("cli", "run_sweep", "sweep.run_sweep"),
    ("finder", "classify_paths", "goodness.classify_paths"),
    ("finder", "classify_spiders", "goodness.classify_spiders"),
    ("finder", "refine_family", "finder.refine_family"),
    ("finder", "family_condition_violations",
     "finder.family_condition_violations"),
    ("finder", "assemble_blowup", "finder.assemble_blowup"),
    ("finder", "contains", "oracle.contains"),
    ("finder", "verify_embedding", "oracle.verify_embedding"),
    ("sweep", "hill_climb_free", "oracle.hill_climb_free"),
    ("sweep", "is_pattern_free", "oracle.is_pattern_free"),
    ("sweep", "adding_edge_creates", "oracle.adding_edge_creates"),
    ("oracle", "adding_edge_creates", "oracle.adding_edge_creates"),
    ("oracle", "contains", "oracle.contains"),
    ("oracle", "verify_embedding", "oracle.verify_embedding"),
    ("oracle", "canonical_form", "oracle.canonical_form"),
    ("oracle", "hill_climb_free", "oracle.hill_climb_free"),
    ("oracle", "as_cycle_length", "patterns.as_cycle_length"),
    ("oracle", "compile_template", "patterns.compile_template"),
    ("patterns", "compile_template", "patterns.compile_template"),
)
GENERATOR_SITES = (
    ("goodness", "enumerate_spiders", "spiders.enumerate_spiders"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._op_busy: dict[str, float] = defaultdict(float)
        self._op_self: dict[str, float] = defaultdict(float)
        self._per_op: list[tuple[dict, dict]] = []
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._canon_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        # id, parent, op, name, start, end, busy, time covered by children
        span = [len(self.spans), parent, self.op, name, time.perf_counter(),
                0.0, 0.0, 0.0]
        self.spans.append(span)
        return span

    def _close(self, span: list, busy: float | None = None) -> None:
        span[5] = time.perf_counter()
        span[6] = span[5] - span[4] if busy is None else busy
        name = span[3]
        self.calls[name] += 1
        self._op_busy[name] += span[6]
        self._op_self[name] += span[6] - span[7]
        if span[1] is not None:
            self.spans[span[1]][7] += span[6]

    def begin_op(self, op: int) -> list:
        self.op = op
        self._canon_keys.clear()
        span = self._open("cli.main")
        self.stack.append(span)
        return span

    def end_op(self, span: list) -> None:
        """Close the operation's root span and keep its layer times."""
        self.stack.pop()
        self._close(span)
        self._per_op.append((self._op_busy, self._op_self))
        self._op_busy = defaultdict(float)
        self._op_self = defaultdict(float)
        self.counts["oracle.canonical_form.distinct"] += len(self._canon_keys)

    def scale(self, factors: list[float]) -> None:
        """Sum the layer times of the operations run so far, each scaled
        to the reference speed by its factor."""
        for (busy, own), f in zip(self._per_op, factors):
            for name, v in busy.items():
                self.busy_s[name] += v * f
            for name, v in own.items():
                self.self_s[name] += v * f
        self._per_op.clear()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.stack.pop()
                tracer._close(span)
                tracer._on_error(name, exc)
                raise
            tracer.stack.pop()
            tracer._close(span)
            tracer._on_result(name, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            it = fn(*args, **kwargs)
            busy = 0.0
            yielded = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    yielded += 1
                    yield item
            finally:
                tracer._close(span, busy)
                tracer.counts[name + ".yielded"] += yielded

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every call site; `modules` maps short names (cli, finder,
        ...) to the imported `spidersearch` modules."""
        for mod, attr, name in CALL_SITES:
            self._patch(modules[mod], attr, self._wrap(
                getattr(modules[mod], attr), name))
        for mod, attr, name in GENERATOR_SITES:
            self._patch(modules[mod], attr, self._wrap_generator(
                getattr(modules[mod], attr), name))
        graph_cls = modules["graph"].Graph
        load = self._wrap(graph_cls.load, "graph.Graph.load")
        self._patch(graph_cls, "load", classmethod(
            lambda cls, text: load(text)))

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # -- counts taken from return values ----------------------------------------

    def _on_result(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "goodness.classify_paths":
            c["goodness.paths_enumerated"] += sum(
                lvl.total for lvl in result.levels.values())
        elif name == "goodness.classify_spiders":
            for lvl in result.levels.values():
                c["goodness.spiders_enumerated"] += lvl.total
                c["goodness.spiders_admissible"] += len(lvl.admissible)
                c["goodness.spiders_good"] += len(lvl.good)
        elif name == "finder.refine_family":
            c["finder.family_in"] += len(args[0])
            c["finder.family_out"] += len(result.members)
        elif name == "finder.find_kstk":
            c["finder.route." + result.status.replace("-", "_")] += 1
        elif name == "oracle.contains":
            c["oracle.contains.nodes"] += result.nodes
        elif name == "oracle.adding_edge_creates":
            c["oracle.adding_edge_creates.blocked"] += bool(result)
        elif name == "oracle.canonical_form":
            self._canon_keys.add(result)

    def _on_error(self, name: str, exc: BaseException) -> None:
        if name == "finder.assemble_blowup" and \
                type(exc).__name__ == "ConstructionFailure":
            self.counts["finder.assemble_failures"] += 1

    # -- output -------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: id, parent, op, name, start and end in
        ns relative to the first span, busy ns."""
        t0 = self.spans[0][4] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tbusy_ns\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{'' if s[1] is None else s[1]}\t{s[2]}\t"
                         f"{s[3]}\t{int((s[4] - t0) * 1e9)}\t"
                         f"{int((s[5] - t0) * 1e9)}\t{int(s[6] * 1e9)}\n")
