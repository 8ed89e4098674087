import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spidersearch

from spidersearch import __version__
from spidersearch.cli import main
from spidersearch.graph import Graph, cycle_graph, subdivide, complete_bipartite
from spidersearch.oracle import Witness, verify_embedding


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(g.dump())
    return str(p)


class TestGen:
    def test_kst(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "kst", "--s", "2", "--t", "3")
        assert code == 0
        g = Graph.load(out)
        assert g.n == 5 and g.m == 6

    def test_cycle_to_file(self, capsys, tmp_path):
        dest = tmp_path / "c.txt"
        code, _, _ = run(capsys, "--quiet", "gen", "--kind", "cycle",
                         "--length", "8", "--out", str(dest))
        assert code == 0
        assert Graph.load(dest.read_text()) == cycle_graph(8)

    def test_random_deterministic(self, capsys):
        a = run(capsys, "gen", "--kind", "random", "--n", "20", "--m", "30",
                "--seed", "5")
        b = run(capsys, "gen", "--kind", "random", "--n", "20", "--m", "30",
                "--seed", "5")
        assert a == b

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--kind", "random")
        assert code == 2 and "error" in err


class TestRegularize:
    def test_c8_report(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "regularize", "--graph", path,
                           "--epsilon", "0.5")
        assert code == 0
        assert "achieved_K=1.000000" in out
        assert "vertices=0,1,2,3,4,5,6,7" in out


class TestSpiders:
    def test_count_c8(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "spiders", "count", "--graph", path,
                           "--lv", "2,2")
        assert code == 0 and out == "total=16\n"

    def test_by_leaf(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "spiders", "count", "--graph", path,
                           "--lv", "2,2", "--by-leaf")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "leaf_vector,count"
        assert sum(int(ln.split(",")[1]) for ln in lines[1:]) == 16


class TestClassify:
    def test_c8_const1(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "classify", "--graph", path, "--k", "2",
                           "--threshold", "const:1")
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "spidersearch" and doc["version"] == __version__
        assert doc["paths"]["1"] == {"objects": 8, "admissible": 8, "good": 8}
        assert doc["paths"]["2"] == {"objects": 8, "admissible": 8, "good": 8}

    def test_with_spiders(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "classify", "--graph", path, "--k", "2",
                           "--threshold", "const:1", "--lv", "2,2")
        doc = json.loads(out)
        assert code == 0 and "2,2" in doc["spiders"]

    def test_bad_threshold_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, _, err = run(capsys, "classify", "--graph", path, "--k", "2",
                           "--threshold", "bogus")
        assert code == 2 and "error" in err


class TestFind:
    def test_found_exit_0(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "find", "--graph", path,
                           "--pattern", "kst:2,2^2")
        assert code == 0
        w = Witness.from_json(out)
        assert verify_embedding(cycle_graph(8), w)

    def test_constructive_route(self, capsys, tmp_path):
        host = subdivide(complete_bipartite(2, 4), 2)
        path = write_graph(tmp_path, host)
        code, out, _ = run(capsys, "--quiet", "find", "--graph", path,
                           "--pattern", "kst:2,2^2",
                           "--threshold", "const:1", "--L", "4")
        assert code == 0
        w = Witness.from_json(out)
        assert w.route == "constructive" and verify_embedding(host, w)

    def test_not_found_exit_1(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(7))
        code, _, err = run(capsys, "find", "--graph", path,
                           "--pattern", "kst:2,2^2")
        assert code == 1 and "no witness" in err

    def test_bad_pattern_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(7))
        code, _, _ = run(capsys, "find", "--graph", path,
                         "--pattern", "kst:zero")
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "find", "--graph", "/nonexistent",
                         "--pattern", "kst:2,2^2")
        assert code == 2


class TestOracle:
    def test_contains_found(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "oracle", "contains", "--graph", path,
                           "--pattern", "cycle:8")
        assert code == 0 and json.loads(out)["route"] == "oracle"

    def test_contains_absent_exit_1(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(7))
        code, out, _ = run(capsys, "oracle", "contains", "--graph", path,
                           "--pattern", "cycle:8")
        assert code == 1 and "status=absent" in out

    def test_extremal(self, capsys):
        code, out, _ = run(capsys, "oracle", "extremal", "--n", "4",
                           "--pattern", "cycle:4")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 4 and doc["exhaustive"]

    def test_extremal_too_large_exit_2(self, capsys):
        code, out, err = run(capsys, "oracle", "extremal", "--n", "10",
                             "--pattern", "cycle:4")
        assert code == 2 and out == ""
        assert err.startswith("error: canonical form too expensive")

    def test_hillclimb(self, capsys):
        code, out, _ = run(capsys, "oracle", "hillclimb", "--n", "7",
                           "--pattern", "cycle:8", "--iters", "50")
        assert code == 0 and Graph.load(out).m == 21


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--pattern", "cycle:8",
                           "--n-range", "4:7", "--iters", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,seed,edges,verified,wall_ms"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 5

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--pattern", "cycle:8",
                         "--n-range", "7")
        assert code == 2


class TestGlobalFlags:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_threads_accepted(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        a = run(capsys, "--threads", "1", "spiders", "count", "--graph", path,
                "--lv", "1,1")
        b = run(capsys, "--threads", "8", "spiders", "count", "--graph", path,
                "--lv", "1,1")
        assert a == b


_REJECT_ALL_WITNESSES = """
import sys
from spidersearch import finder, oracle
from spidersearch.cli import main
oracle.verify_embedding = finder.verify_embedding = lambda G, w: False
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,message", [
    (["oracle", "contains", "--pattern", "cycle:8"],
     "cycle witness failed verification"),
    (["oracle", "contains", "--pattern", "kst:2,3^2"],
     "search witness failed verification"),
    (["find", "--pattern", "kst:2,2^2", "--threshold", "const:1", "--L", "4"],
     "assembled witness failed verification"),
])
def test_witness_check_survives_optimize(tmp_path, argv, message):
    """Under `python -O` a witness that fails re-verification still ends
    the command with an error, not with unverified output."""
    host = write_graph(tmp_path, subdivide(complete_bipartite(2, 4), 2))
    src = str(Path(spidersearch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REJECT_ALL_WITNESSES,
         *argv, "--graph", host],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"
