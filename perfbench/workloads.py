"""The four workloads: their seeded inputs, the CLI command of each
operation and the check of each operation's output.

An operation is one `spidersearch.cli.main(argv)` call.  `Op.check` gets
the exit code and the captured stdout/stderr and returns None when the
output is correct, or a short reason.  Checks use the library's
`Witness` and `verify_embedding` only to re-verify printed witnesses;
expected answers come from the benchmark's own reference code
(`inputs.py`) or from `expected.json`, recorded when the benchmark was
created (`python3 perfbench/record_expected.py`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

FIND_CORE_SEED = 5055   # criterion 5's seed: the ROADMAP baseline hosts
FIND_EXTRA_HOSTS = 100
ABSENT_SIZES = range(12, 33)
ABSENT_HOSTS = 30
ABSENT_SEED = 1
SWEEP_NS = range(16, 97, 16)
EXTREMAL_PATTERNS = ("cycle:4", "cycle:5", "cycle:6", "kst:2,3")


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int | None, str, str], str | None]
    core: bool = False  # one of criterion 5's hosts (find-fuzz)


@dataclass
class Workload:
    name: str
    default_seed: int
    build: Callable[[int, Path, object], list[Op]]


def _expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _write_host(workdir: Path, label: str, host: inputs.Host) -> str:
    path = workdir / f"{label}.txt"
    path.write_text(inputs.dump(host))
    return str(path)


# -- find-fuzz ----------------------------------------------------------------


def _find_check(lib, host: inputs.Host, expect_found: bool):
    graph = lib.graph.Graph(host[0], host[1])

    def check(code, out, err):
        if code == 0:
            try:
                w = lib.oracle.Witness.from_json(out)
            except (ValueError, KeyError, TypeError) as exc:
                return f"unparsable witness: {exc}"
            if str(w.pattern) != "kst:2,2^2":
                return f"witness for the wrong pattern {w.pattern}"
            if w.route not in ("constructive", "oracle"):
                return f"unknown route {w.route!r}"
            if not lib.oracle.verify_embedding(graph, w):
                return "printed witness fails verify_embedding"
            return None if expect_found else "found, expected absent"
        if code == 1:
            if out or not err.endswith("no witness found\n"):
                return "exit 1 without the 'no witness found' message"
            return "absent, expected found" if expect_found else None
        return f"exit code {code}"

    return check


def build_find_fuzz(seed: int, workdir: Path, lib) -> list[Op]:
    """Criterion 5's 200 hosts (always the same: the ROADMAP baseline set)
    plus FIND_EXTRA_HOSTS stratified hosts drawn from the seed."""
    core = inputs.criterion5_hosts(FIND_CORE_SEED)
    extra = inputs.stratified_fuzz_hosts(seed, FIND_EXTRA_HOSTS)
    recorded = _expected()["find-fuzz"]["core_answers"]
    ops = []
    for i, (host, thr, L) in enumerate(core + extra):
        found = inputs.has_cycle(inputs.adjacency(host), 8)
        if i < len(core) and found != (recorded[i] == "F"):
            raise RuntimeError(f"host {i}: reference disagrees with record")
        label = f"core-{i}" if i < len(core) else f"extra-{i - len(core)}"
        path = _write_host(workdir, label, host)
        argv = ["find", "--graph", path, "--pattern", "kst:2,2^2",
                "--threshold", f"const:{thr}", "--L", str(int(L)),
                "--node-limit", "500000"]
        ops.append(Op(label, argv, _find_check(lib, host, found),
                      core=i < len(core)))
    return ops


# -- sweep ------------------------------------------------------------------------


def _sweep_check(n: int):
    digest = _expected()["sweep"][str(n)]

    def check(code, out, err):
        if code != 0:
            return f"exit code {code}"
        rows = [ln.split(",") for ln in out.splitlines()[1:]
                if not ln.startswith("#")]
        if len(rows) != 3 or any(r[3] != "1" for r in rows):
            return "a sweep row is missing or not verified"
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            return "CSV differs from the recorded digest"
        return None

    return check


def sweep_argv(n: int) -> list[str]:
    return ["sweep", "--pattern", "kst:2,2^2", "--n-range", f"{n}:{n}",
            "--seeds", "3", "--iters", "2000"]


def build_sweep(seed: int, workdir: Path, lib) -> list[Op]:
    """Criterion 8's sweep split into one operation per n, for n up to
    96: with 112 and 128 a pass took 13 s, too long to repeat inputs
    within a run.  The seed is ignored: the command's only input is n,
    and neighbouring n differ by up to 40 % in run time, so a seed-chosen
    offset would move every timing by more than any useful bound."""
    return [Op(f"n={n}", sweep_argv(n), _sweep_check(n)) for n in SWEEP_NS]


# -- contains-absent ----------------------------------------------------------------


def _absent_check(code, out, err):
    if code != 1 or out != "status=absent\n":
        return f"expected exit 1 and status=absent, got {code} {out!r}"
    return None


def build_contains_absent(seed: int, workdir: Path, lib) -> list[Op]:
    """ABSENT_HOSTS C8-free, edge-maximal hosts with n cycling through
    12..32, built by the benchmark from seeded edge orders; kst:2,3^2
    contains C8, so every answer is `absent` and the search must exhaust
    its space.  The hosts come from ABSENT_SEED, not from `seed`: at one
    n, the search time varies 100-fold with the edge order (0.02-2.1 s
    measured), so hosts drawn per seed moved the median latency by 40 %
    between seeds, more than any useful bound."""
    ops = []
    for i in range(ABSENT_HOSTS):
        n = ABSENT_SIZES[i % len(ABSENT_SIZES)]
        host = inputs.cycle_free_maximal(n, 8, f"{ABSENT_SEED}-{n}-{i}")
        path = _write_host(workdir, f"absent-{i}", host)
        argv = ["oracle", "contains", "--graph", path,
                "--pattern", "kst:2,3^2"]
        ops.append(Op(f"n={n}#{i}", argv, _absent_check))
    return ops


# -- extremal ---------------------------------------------------------------------


def _extremal_check(pattern: str):
    want = _expected()["extremal"][pattern]
    kind, _, arg = pattern.partition(":")

    def check(code, out, err):
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return f"unparsable report: {exc}"
        if doc.get("value") != want or doc.get("exhaustive") is not True:
            return f"value {doc.get('value')} exhaustive " \
                   f"{doc.get('exhaustive')}, expected {want} exhaustive"
        edges = {tuple(e) for e in doc["witness_edges"]}
        if len(edges) != want:
            return "witness graph does not have `value` edges"
        adj = inputs.adjacency((6, frozenset(edges)))
        bad = (inputs.has_cycle(adj, int(arg)) if kind == "cycle"
               else inputs.has_k2t(adj, 3))
        return "witness graph contains the pattern" if bad else None

    return check


def build_extremal(seed: int, workdir: Path, lib) -> list[Op]:
    """`oracle extremal --n 6` for four patterns; no random input, the
    seed is ignored."""
    return [Op(p, ["oracle", "extremal", "--n", "6", "--pattern", p],
               _extremal_check(p)) for p in EXTREMAL_PATTERNS]


WORKLOADS = {
    w.name: w for w in (
        Workload("find-fuzz", FIND_CORE_SEED, build_find_fuzz),
        Workload("sweep", 0, build_sweep),
        Workload("contains-absent", 1, build_contains_absent),
        Workload("extremal", 0, build_extremal),
    )
}
