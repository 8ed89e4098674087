import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spidersearch

from spidersearch import __version__, cli
from spidersearch.cli import main
from spidersearch.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnm,
    subdivide,
)
from spidersearch.oracle import Witness, is_pattern_free, verify_embedding
from spidersearch.patterns import parse_pattern


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(g.dump())
    return str(p)


def run_python(*args, timeout=60, **kwargs):
    """Run the interpreter on `args` with this package importable; a call
    that hangs fails the test at `timeout` seconds instead of hanging it.
    `kwargs` go to `subprocess.run`."""
    src = str(Path(spidersearch.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout, **kwargs)


_MAIN = ("import sys; from spidersearch.cli import main; "
         "sys.exit(main(sys.argv[1:]))")


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
        # without --quiet the file is named on stdout
        assert run(capsys, "gen", "--kind", "cycle", "--length", "8",
                   "--out", str(dest)) == (0, f"wrote {dest}\n", "")

    def test_random_deterministic(self, capsys):
        a = run(capsys, "gen", "--kind", "random", "--n", "20", "--m", "30",
                "--seed", "5")
        b = run(capsys, "gen", "--kind", "random", "--n", "20", "--m", "30",
                "--seed", "5")
        assert a == b

    def test_random_sparse_on_many_vertices(self):
        # 10 edges among 10^5 vertices, without listing all 5·10^9 pairs;
        # the address-space cap turns a pair list into a MemoryError
        resource = pytest.importorskip("resource")
        cap = 2 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        proc = run_python("-c", _MAIN, "gen", "--kind", "random",
                          "--n", "100000", "--m", "10", timeout=30,
                          preexec_fn=limit)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "100000 10" and len(lines) == 11

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--kind", "random")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv,message", [
        (("--kind", "kst"), "kst generation needs --s and --t"),
        (("--kind", "kst", "--s", "2"), "kst generation needs --s and --t"),
        (("--kind", "cycle"), "cycle generation needs --length"),
    ])
    def test_missing_shape_params_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "gen", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("n,m", [("-3", "0"), ("-3", "1"), ("5", "-1")])
    def test_negative_n_or_m_exit_2(self, capsys, n, m):
        # a header with a negative count is one that --graph rejects
        code, out, err = run(capsys, "gen", "--kind", "random",
                             "--n", n, "--m", m)
        assert (code, out) == (2, "")
        assert err == "error: n and m must be nonnegative\n"


class TestRegularize:
    def test_c8_report(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "regularize", "--graph", path,
                           "--epsilon", "0.5")
        assert code == 0
        assert out == ("m=8\ne=8\nachieved_K=1.000000\nexponent=0.000000\n"
                       "theoretical_K=6.400000e+02\nvertices=0,1,2,3,4,5,6,7\n")

    @pytest.mark.parametrize("n,vertices", [(3, "0,1,2"), (1, "0")])
    def test_edgeless_host(self, capsys, tmp_path, n, vertices):
        # no edge to peel or to band: every vertex survives, with K = 1
        path = write_graph(tmp_path, Graph(n, frozenset()))
        code, out, err = run(capsys, "regularize", "--graph", path,
                             "--epsilon", "0.5")
        assert (code, err) == (0, "")
        assert out == (f"m={n}\ne=0\nachieved_K=1.000000\nexponent=0.000000\n"
                       f"theoretical_K=6.400000e+02\nvertices={vertices}\n")

    @pytest.mark.parametrize("eps", ["0.03", "1e-200"])
    def test_theoretical_K_past_float_range_exit_0(self, capsys, tmp_path, eps):
        # 2^(1/eps^2 + 1) leaves the float range below eps ~ 0.0313
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, err = run(capsys, "regularize", "--graph", path,
                             "--epsilon", eps)
        assert (code, err) == (0, "")
        assert out == ("m=8\ne=8\nachieved_K=1.000000\nexponent=0.000000\n"
                       "theoretical_K=inf\nvertices=0,1,2,3,4,5,6,7\n")


class TestSpiders:
    def test_count_c8(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "spiders", "count", "--graph", path,
                           "--lv", "2,2")
        assert code == 0 and out == "total=16\n"

    def test_count_leg_longer_than_recursion_limit(self, capsys, tmp_path):
        path = write_graph(tmp_path, path_graph(1100))
        code, out, _ = run(capsys, "spiders", "count", "--graph", path,
                           "--lv", "1050")
        assert code == 0 and out == "total=102\n"

    def test_by_leaf(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, _ = run(capsys, "spiders", "count", "--graph", path,
                           "--lv", "2,2", "--by-leaf")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "leaf_vector,count"
        assert sum(int(ln.split(",")[1]) for ln in lines[1:]) == 16

    @pytest.mark.parametrize("command", [
        ("spiders", "count"), ("classify", "--k", "2", "--threshold", "const:1"),
    ], ids=["count", "classify"])
    @pytest.mark.parametrize("lv", ["2,a", "2,", "1;2", ""])
    def test_malformed_lv_names_the_vector(self, capsys, tmp_path, command,
                                           lv):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, err = run(capsys, *command, "--graph", path, "--lv", lv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse length vector {lv!r}\n"


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

    def test_spider_objects_match_spiders_count(self, capsys, tmp_path):
        # `objects` counts every spider of the vector, not only the
        # candidates the classification examined
        path = write_graph(tmp_path, random_gnm(10, 18, 1))
        code, out, _ = run(capsys, "classify", "--graph", path, "--k", "2",
                           "--threshold", "const:1", "--lv", "2,2")
        assert code == 0
        spiders = json.loads(out)["spiders"]
        assert set(spiders) == {"1,1", "1,2", "2,1", "2,2"}
        for vec, counts in spiders.items():
            code, out, _ = run(capsys, "spiders", "count", "--graph", path,
                               "--lv", vec)
            assert code == 0 and out == f"total={counts['objects']}\n"
        assert spiders["2,2"]["objects"] > spiders["2,2"]["admissible"] > 0

    def test_reported_threshold_parses_back(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        argv = ("classify", "--graph", path, "--k", "2", "--L", "3")
        first = run(capsys, *argv)
        params = json.loads(first[1])["params"]
        assert params["threshold"] == "paper" and params["L"] == 3.0
        again = run(capsys, *argv, "--threshold", params["threshold"])
        assert again == first

    def test_bad_threshold_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, _, err = run(capsys, "classify", "--graph", path, "--k", "2",
                           "--threshold", "bogus")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("threshold", ["paper", "const:1", "custom:1,1"])
    @pytest.mark.parametrize("L", ["inf", "nan"])
    def test_non_finite_L_paper_threshold_exit_2(
        self, capsys, tmp_path, L, threshold
    ):
        # L is printed under params, and JSON has no inf or NaN, so a
        # non-finite L is refused under thresholds that never read it too
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, err = run(capsys, "classify", "--graph", path, "--k", "2",
                             "--threshold", threshold, "--L", L)
        assert (code, out, err) == (2, "", "error: L must be a finite number\n")

    @pytest.mark.parametrize("threshold", ["paper", "const:1", "custom:1,1",
                                           "bogus"])
    def test_L_below_one_exit_2_under_every_threshold(
        self, capsys, tmp_path, threshold
    ):
        # Thresholds.parse checks L before it reads the threshold text
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, err = run(capsys, "classify", "--graph", path, "--k", "2",
                             "--threshold", threshold, "--L", "0.5")
        assert (code, out, err) == (2, "", "error: L must be >= 1\n")


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

    def test_paper_threshold_saturates(self, capsys, tmp_path):
        # f(8) at L = 2 has about 4e8 bits; the saturated recursion answers
        # math.inf instead of materialising it, so this finishes at once
        path = write_graph(tmp_path, cycle_graph(16))
        code, out, _ = run(capsys, "find", "--graph", path,
                           "--pattern", "kst:2,2^4")
        assert code == 0
        assert verify_embedding(cycle_graph(16), Witness.from_json(out))

    def test_many_legs_not_found_exit_1(self, capsys, tmp_path):
        # classification visits all 2^12 sub-vectors of (2,)^12 and builds
        # only the getters it reads, so this ends in about a second
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, err = run(capsys, "find", "--graph", path,
                             "--pattern", "kst:12,2^2")
        assert code == 1 and out == "" and err.endswith("no witness found\n")

    def test_not_found_exit_1(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(7))
        code, _, err = run(capsys, "find", "--graph", path,
                           "--pattern", "kst:2,2^2")
        assert code == 1 and "no witness" in err

    @pytest.mark.parametrize("pattern", ["kst:2,2^2", "cycle:8"])
    def test_budget_exhaustion_is_not_absence(self, capsys, tmp_path,
                                              pattern):
        # C8 contains both patterns, but only the oracle finds them here,
        # and one node is not enough: find_kstk and the plain contains
        # branch both end with status budget
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, err = run(capsys, "find", "--graph", path,
                             "--pattern", pattern, "--node-limit", "1")
        assert code == 1 and out == ""
        assert err.endswith(
            "node limit ran out before the search finished; "
            "absence not shown\nno witness found\n")

    def test_true_negative_has_no_budget_line(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(7))
        code, _, err = run(capsys, "find", "--graph", path,
                           "--pattern", "kst:2,2^2", "--node-limit", "500000")
        assert code == 1 and err.endswith("no witness found\n")
        assert "node limit" not in err

    def test_bad_pattern_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(7))
        code, _, _ = run(capsys, "find", "--graph", path,
                         "--pattern", "kst:zero")
        assert code == 2

    # kst:2,2^2 takes the constructive route and cycle:8 the oracle, which
    # never reads L; both hosts contain an 8-cycle, so only the up-front
    # check of L stops either pattern

    def test_L_below_one_exit_2_on_any_host(self, capsys, tmp_path):
        # the isolated vertex makes the minimum degree 0, so refinement,
        # which also checks L, is never reached
        host = Graph(9, cycle_graph(8).edges)
        path = write_graph(tmp_path, host)
        for pattern in ("kst:2,2^2", "cycle:8"):
            code, out, err = run(capsys, "find", "--graph", path,
                                 "--pattern", pattern,
                                 "--threshold", "const:1", "--L", "0.5")
            assert (code, out, err) == (2, "", "error: L must be >= 1\n"), \
                pattern

    @pytest.mark.parametrize("threshold", ["const:1", "paper"])
    @pytest.mark.parametrize("L", ["inf", "nan"])
    def test_non_finite_L_exit_2(self, capsys, tmp_path, threshold, L):
        # the constructive host reaches refinement, whose condition (ii)
        # bound cannot be built from an infinite or NaN L
        path = write_graph(tmp_path, subdivide(complete_bipartite(2, 4), 2))
        for pattern in ("kst:2,2^2", "cycle:8"):
            code, out, err = run(capsys, "find", "--graph", path,
                                 "--pattern", pattern,
                                 "--threshold", threshold, "--L", L)
            assert (code, out, err) == (
                2, "", "error: L must be a finite number\n"), pattern

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "find", "--graph", "/nonexistent",
                         "--pattern", "kst:2,2^2")
        assert code == 2

    def test_custom_threshold_matches_constant(self, capsys, tmp_path):
        path = write_graph(tmp_path, subdivide(complete_bipartite(2, 4), 2))
        argv = ("find", "--graph", path, "--pattern", "kst:2,2^2", "--L", "4")
        custom = run(capsys, *argv, "--threshold", "custom:2,2,2,2")
        const = run(capsys, *argv, "--threshold", "const:2")
        assert custom == const and custom[0] == 0

    def test_isolated_vertex_one_note(self, capsys, tmp_path):
        path = write_graph(tmp_path, Graph(9, cycle_graph(8).edges))
        code, out, err = run(capsys, "find", "--graph", path, "--pattern",
                             "kst:2,2^2", "--threshold", "const:1")
        assert code == 0 and Witness.from_json(out).route == "oracle"
        assert err == "note: min degree 0, refinement impossible\n"

    def test_short_custom_table_exit_2_on_isolated_vertex_host(
        self, capsys, tmp_path
    ):
        # classification would read f(3) for the (1, 2) spiders; a host
        # that skips classification must still refuse the table
        path = write_graph(tmp_path, Graph(9, cycle_graph(8).edges))
        code, out, err = run(capsys, "find", "--graph", path, "--pattern",
                             "kst:2,2^2", "--threshold", "custom:1,1")
        assert (code, out, err) == (
            2, "", "error: custom table has no value for ell=3\n")

    def test_unknown_threshold_exit_2(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        code, out, err = run(capsys, "find", "--graph", path,
                             "--pattern", "kst:2,2^2", "--threshold", "foo")
        assert code == 2 and out == ""
        assert err == ("error: unknown threshold mode 'foo' "
                       "(use paper, const:N or custom:a,b,...)\n")


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

    def test_contains_isolated_pattern_vertex(self, capsys, tmp_path):
        g = cycle_graph(8)
        path = write_graph(tmp_path, g)
        code, out, err = run(capsys, "oracle", "contains", "--graph", path,
                             "--pattern", "arbitrary:3:0-1")
        assert code == 0 and err == ""
        w = Witness.from_json(out)
        assert w.terminals == (0, 1, 2) and verify_embedding(g, w)

    def test_contains_isolated_pattern_vertex_absent(self, capsys, tmp_path):
        path = write_graph(tmp_path, Graph.from_edges(2, [(0, 1)]))
        code, out, err = run(capsys, "oracle", "contains", "--graph", path,
                             "--pattern", "arbitrary:3:0-1")
        assert (code, out, err) == (1, "status=absent\n", "")

    @pytest.mark.parametrize("pattern,message", [
        # subdivided, the loop used to read as a triangle that the search
        # never routed, so K4 came out 'absent'
        ("arbitrary:2:1-1^3", "pattern edge 1-1 is a loop"),
        ("arbitrary:2:1-1", "pattern edge 1-1 is a loop"),
        ("arbitrary:2:0-5^2", "pattern edge 0-5 leaves the vertex range 0..1"),
        # not Graph.from_edges' "duplicate edge (0, 1)", which names no pattern
        ("arbitrary:2:0-1;0-1", "pattern edge 0-1 repeats an earlier edge"),
        ("arbitrary:3:0-1;1-0", "pattern edge 1-0 repeats an earlier edge"),
        # a missing or extra number, not Python's own int() message
        *((text, f"cannot parse pattern {text!r}") for text in (
            "kst:2,", "spider:1,,2", "arbitrary:3:0-", "arbitrary:3:0-1-2",
            "arbitrary:3:", "arbitrary::0-1")),
    ])
    def test_malformed_arbitrary_pattern_exit_2(self, capsys, tmp_path,
                                                pattern, message):
        path = write_graph(tmp_path, complete_graph(4))
        code, out, err = run(capsys, "oracle", "contains", "--graph", path,
                             "--pattern", pattern)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_extremal(self, capsys):
        code, out, _ = run(capsys, "oracle", "extremal", "--n", "4",
                           "--pattern", "cycle:4")
        doc = json.loads(out)
        assert code == 0 and doc["value"] == 4 and doc["exhaustive"]

    def test_extremal_beyond_limit_falls_back(self, capsys):
        code, out, err = run(capsys, "oracle", "extremal", "--n", "10",
                             "--pattern", "cycle:4")
        doc = json.loads(out)
        assert code == 0 and err == "" and doc["exhaustive"] is False
        witness = Graph.from_edges(10, doc["witness_edges"])
        assert doc["value"] == witness.m
        assert is_pattern_free(witness, parse_pattern("cycle:4"))

    @pytest.mark.parametrize("n", ["8", "9"])
    def test_extremal_past_exhaustive_limit_falls_back(self, capsys, n):
        # the limit is 7, where the exhaustive search is last known to
        # finish; n = 8 and 9 answer from hill climbing instead of hanging
        code, out, err = run(capsys, "oracle", "extremal", "--n", n,
                             "--pattern", "kst:2,3")
        doc = json.loads(out)
        assert code == 0 and err == "" and doc["exhaustive"] is False
        witness = Graph.from_edges(int(n), doc["witness_edges"])
        assert doc["value"] == witness.m
        assert is_pattern_free(witness, parse_pattern("kst:2,3"))

    def test_hillclimb(self, capsys):
        code, out, _ = run(capsys, "oracle", "hillclimb", "--n", "7",
                           "--pattern", "cycle:8", "--iters", "50")
        assert code == 0 and Graph.load(out).m == 21


class TestOneVertex:
    """One vertex has no pair to test, so hill climbing answers its empty
    graph after one run; a timeout fails a run that never ends."""

    def test_hill_climb_free(self):
        proc = run_python("-c", "from spidersearch.graph import Graph\n"
                          "from spidersearch.oracle import hill_climb_free\n"
                          "from spidersearch.patterns import parse_pattern\n"
                          "g = hill_climb_free(1, parse_pattern('kst:2,2'), "
                          "100, 0).graph\n"
                          "print(g == Graph(1, frozenset()))", timeout=30)
        assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr

    def test_hillclimb(self):
        proc = run_python("-c", _MAIN, "oracle", "hillclimb", "--n", "1",
                          "--pattern", "kst:2,2", timeout=30)
        assert (proc.returncode, proc.stdout) == (0, "1 0\n"), proc.stderr

    @pytest.mark.parametrize("pattern", ["kst:2,2", "kst:2,2^2"])
    def test_sweep_from_one(self, pattern):
        proc = run_python("-c", _MAIN, "sweep", "--pattern", pattern,
                          "--n-range", "1:2", timeout=30)
        assert proc.returncode == 0, proc.stderr
        rows = [ln for ln in proc.stdout.splitlines()
                if not ln.startswith("#")]
        assert rows == ["n,seed,edges,verified,wall_ms",
                        "1,0,0,1,0", "2,0,1,1,0"]


class TestSweep:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--pattern", "cycle:8",
                           "--n-range", "4:7", "--iters", "50")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,seed,edges,verified,wall_ms"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 5

    def test_slope_na_when_upper_half_has_one_n(self, capsys):
        # the fit reads the upper half of the n range, here n = 6 alone:
        # two points with the same x leave the slope undefined
        code, out, _ = run(capsys, "sweep", "--pattern", "cycle:4",
                           "--n-range", "5:6", "--seeds", "2")
        assert code == 0 and out.splitlines()[-3:] == [
            "# slope=NA", "# theory=NA",
            "# note=heuristic lower bound, not an extremal estimate"]

    def test_bad_range_exit_2(self, capsys):
        # a missing or non-numeric bound names the option, not int()
        for n_range in ("7", "4:x", "4:", "4:8:2:1"):
            code, out, err = run(capsys, "sweep", "--pattern", "cycle:8",
                                 "--n-range", n_range)
            assert (code, out) == (2, ""), n_range
            assert err == "error: --n-range must be A:B or A:B:S\n"


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

    def test_threads_below_one_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "gen", "--kind", "cycle", "--length", "4"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: --threads must be >= 1\n")

    def test_reused_parser_matches_fresh(self, capsys, tmp_path):
        path = write_graph(tmp_path, cycle_graph(8))
        calls = [
            ("spiders", "count", "--graph", path, "--lv", "2,1", "--by-leaf"),
            ("classify", "--graph", path, "--k", "2", "--threshold", "const:1"),
            ("--quiet", "find", "--graph", path, "--pattern", "kst:2,2^2"),
            ("gen", "--kind", "cycle", "--length", "5"),
        ]
        reused = [run(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 0]


@pytest.mark.parametrize("argv", [
    ["find", "--pattern", "kst:2,2^2"],
    ["oracle", "contains", "--pattern", "cycle:8"],
    ["oracle", "extremal", "--n", "4", "--pattern", "cycle:4"],
], ids=["find", "contains", "extremal"])
def test_zero_node_limit_exit_2(capsys, tmp_path, argv):
    if "extremal" not in argv:
        argv = [*argv, "--graph", write_graph(tmp_path, cycle_graph(8))]
    code, out, err = run(capsys, *argv, "--node-limit", "0")
    assert code == 2 and out == ""
    assert err == "error: node limit must be positive\n"


@pytest.mark.parametrize("argv, message", [
    (["oracle", "extremal", "--n", "0", "--pattern", "cycle:4"],
     "n must be >= 1"),
    (["oracle", "hillclimb", "--n", "5", "--pattern", "cycle:4",
      "--iters", "0"], "iterations must be >= 1"),
    (["sweep", "--pattern", "cycle:4", "--n-range", "4:5", "--iters", "0"],
     "iterations must be >= 1"),
], ids=["extremal-n", "hillclimb-iters", "sweep-iters"])
def test_count_below_one_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["oracle", "hillclimb", "--n", "100000", "--pattern", "cycle:4",
     "--iters", "1"],
    ["find", "--pattern", "kst:2,2^2"],
], ids=["hillclimb", "find"])
def test_out_of_memory_exit_2(tmp_path, argv):
    """Running out of memory is a computation giving up, not an honest
    negative: exit 2 with a written-out message, not a traceback.  Under
    the address-space cap, hill climbing's list of 5·10^9 vertex pairs and
    the adjacency lists of a 10^8-vertex header raise MemoryError."""
    resource = pytest.importorskip("resource")
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    if argv[0] == "find":
        big = tmp_path / "big.txt"
        big.write_text("100000000 0\n")
        argv = [*argv, "--graph", str(big)]
    proc = run_python("-c", _MAIN, *argv, preexec_fn=limit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: out of memory\n")


_SABOTAGED_MAIN = """
import sys
from spidersearch import finder, oracle
from spidersearch.cli import main
{sabotage}
sys.exit(main(sys.argv[1:]))
"""
_REJECT_ALL_WITNESSES = (
    "oracle.verify_embedding = finder.verify_embedding = lambda G, w: False")
# the chain's spider gets a path vertex (here a root) for its centre
_CONNECT_REUSES_PATH_VERTEX = """
connect = finder.connect_paths
finder.connect_paths = lambda fam, paths, Z: (
    (paths[0][0],) + connect(fam, paths, Z)[1:])
"""
_FIND_22 = ["find", "--pattern", "kst:2,2^2", "--threshold", "const:1",
            "--L", "4"]
_SABOTAGE_CASES = [
    (["oracle", "contains", "--pattern", "cycle:8"],
     "cycle witness failed verification", _REJECT_ALL_WITNESSES),
    (["oracle", "contains", "--pattern", "kst:2,3^2"],
     "search witness failed verification", _REJECT_ALL_WITNESSES),
    (_FIND_22, "assembled witness failed verification", _REJECT_ALL_WITNESSES),
    (_FIND_22, "refined family fails its re-check: (i) violated",
     "finder.family_condition_violations = "
     "lambda fam: ['(i) violated', '(ii) violated']"),
    (_FIND_22, "assembled witness failed verification",
     _CONNECT_REUSES_PATH_VERTEX),
]


@pytest.mark.parametrize(
    "argv,message,sabotage", _SABOTAGE_CASES,
    ids=[f"argv{i}-{message}" for i, (_, message, _) in
         enumerate(_SABOTAGE_CASES)])
def test_witness_check_survives_optimize(tmp_path, argv, message, sabotage):
    """Under `python -O` a witness that fails re-verification, a refined
    family that fails its condition re-check, or a chain that reuses a
    vertex still ends the command with an error, not with unverified
    output."""
    host = write_graph(tmp_path, subdivide(complete_bipartite(2, 4), 2))
    proc = run_python("-O", "-c", _SABOTAGED_MAIN.format(sabotage=sabotage),
                      *argv, "--graph", host)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"
