#!/usr/bin/env python3
"""Write perfbench/expected.json, the answers the benchmark checks against.

    python3 perfbench/record_expected.py

Run once, from the root of a checkout, when the benchmark is created or
when a workload's inputs change.  It records:
- find-fuzz: found (F) or absent (A) for each criterion 5 host, from the
  benchmark's own exhaustive cycle search, cross-checked against the CLI;
- sweep: the SHA-256 of each per-n CSV (outputs must stay byte-identical);
- extremal: ex(6, F), the published values (ex(6, C4) = 7 is OEIS A006855).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import inputs
import workloads

ROOT = Path(__file__).resolve().parent.parent


def cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def record() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from spidersearch.cli import main

    answers = ""
    routes: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (host, thr, L) in enumerate(
                inputs.criterion5_hosts(workloads.FIND_CORE_SEED)):
            found = inputs.has_cycle(inputs.adjacency(host), 8)
            path = Path(tmp) / "host.txt"
            path.write_text(inputs.dump(host))
            code, out = cli(main, [
                "find", "--graph", str(path), "--pattern", "kst:2,2^2",
                "--threshold", f"const:{thr}", "--L", str(int(L)),
                "--node-limit", "500000"])
            if code != (0 if found else 1):
                raise SystemExit(f"host {i}: CLI exit {code}, reference "
                                 f"says {'found' if found else 'absent'}")
            route = json.loads(out)["route"] if found else "no witness"
            routes[route] = routes.get(route, 0) + 1
            answers += "F" if found else "A"
    sweep = {}
    for n in workloads.SWEEP_NS:
        code, out = cli(main, workloads.sweep_argv(n))
        sweep[str(n)] = hashlib.sha256(out.encode()).hexdigest()
    return {
        "find-fuzz": {"core_seed": workloads.FIND_CORE_SEED,
                      "core_answers": answers, "core_routes": routes},
        "sweep": sweep,
        "extremal": {"cycle:4": 7, "cycle:5": 9, "cycle:6": 11, "kst:2,3": 10},
    }


if __name__ == "__main__":
    doc = record()
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["find-fuzz"]["core_routes"]))
