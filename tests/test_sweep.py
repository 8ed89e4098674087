import hashlib
from itertools import combinations

import pytest

from spidersearch import oracle, sweep
from spidersearch.graph import complete_bipartite, cycle_graph
from spidersearch.oracle import ClimbResult, Witness
from spidersearch.patterns import parse_pattern
from spidersearch.sweep import SweepConfig, run_sweep


class TestConfig:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(parse_pattern("cycle:8"), 7, 4)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            SweepConfig(parse_pattern("cycle:8"), 4, 7, n_step=0)
        with pytest.raises(ValueError):
            SweepConfig(parse_pattern("cycle:8"), 4, 7, seeds=0)

    def test_ns(self):
        assert SweepConfig(parse_pattern("cycle:8"), 4, 10, n_step=3).ns() == \
            [4, 7, 10]


class TestRunSweep:
    def test_below_pattern_size_everything_complete(self):
        cfg = SweepConfig(parse_pattern("cycle:8"), 4, 7, seeds=1,
                          iterations=50)
        rows, csv = run_sweep(cfg)
        assert len(rows) == 4
        for r in rows:
            assert r.edges == r.n * (r.n - 1) // 2
            assert r.verified and r.wall_ms == 0
        slope = float(
            next(ln for ln in csv.splitlines() if ln.startswith("# slope="))
            .split("=")[1]
        )
        assert 1.5 < slope < 2.5
        assert "# theory=NA" in csv
        assert "heuristic lower bound" in csv

    def test_row_grid_and_header(self):
        cfg = SweepConfig(parse_pattern("cycle:6"), 5, 9, n_step=2, seeds=2,
                          iterations=80)
        rows, csv = run_sweep(cfg)
        assert len(rows) == 6
        lines = csv.splitlines()
        assert lines[0] == "n,seed,edges,verified,wall_ms"
        assert [ln.split(",")[:2] for ln in lines[1:7]] == [
            [str(n), str(s)] for n in (5, 7, 9) for s in (0, 1)
        ]

    def test_benchmark_inputs_csv_is_pinned(self):
        # the sweep the benchmark splits into one operation per n, run as
        # one CSV: kst:2,2^2 (the 8-cycle) for n = 16..96 step 16, 3 seeds,
        # 2000 iterations.  The edge check's table handling must change no
        # accepted edge, so no byte of the CSV
        cfg = SweepConfig(parse_pattern("kst:2,2^2"), 16, 96, n_step=16,
                          seeds=3, iterations=2000)
        _, csv = run_sweep(cfg)
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "2cfaaf99ed743bd0adb26807c5e2a21c3517eaae3c87297c9dab2b8d44ed1192"
        )

    def test_kst_theory_line(self):
        cfg = SweepConfig(parse_pattern("kst:2,2^2"), 6, 10, n_step=2,
                          seeds=1, iterations=60)
        _, csv = run_sweep(cfg)
        assert "# theory=1.250000" in csv

    def test_timing_flag(self):
        cfg = SweepConfig(parse_pattern("cycle:6"), 6, 6, seeds=1,
                          iterations=40, timing=True)
        rows, _ = run_sweep(cfg)
        assert rows[0].wall_ms >= 0

    def test_non_maximal_row_names_first_addable_pair(self, monkeypatch):
        # C9 is C8-free; (0,2) closes an 8-cycle, (0,3) does not.  The
        # climb hands back C9 with the 7-edge path that blocks each pair at
        # distance 2, and no copy for the pairs that nothing blocks
        copies = []
        for u, v in combinations(range(9), 2):
            ways = (tuple(range(u, v + 1)),
                    tuple(x % 9 for x in range(v, u + 10)))
            copies.append(next((p for p in ways if len(p) == 8), None))
        assert copies[1] == (2, 3, 4, 5, 6, 7, 8, 0) and copies[2] is None
        climb = ClimbResult(cycle_graph(9), copies)
        monkeypatch.setattr(sweep, "hill_climb_free",
                            lambda n, desc, iters, seed: climb)
        cfg = SweepConfig(parse_pattern("kst:2,2^2"), 9, 9)
        with pytest.raises(RuntimeError,
                           match=r"n=9 seed=0: not edge-maximal at \(0,3\)"):
            run_sweep(cfg)

    def test_row_containing_the_pattern_fails(self, monkeypatch):
        # a climb that hands back the pattern itself fails its row before
        # any copy is read
        climb = ClimbResult(cycle_graph(5), [None] * 10)
        monkeypatch.setattr(sweep, "hill_climb_free",
                            lambda n, desc, iters, seed: climb)
        with pytest.raises(RuntimeError,
                           match="^sweep row n=5 seed=0: output contains "
                                 "the pattern$"):
            run_sweep(SweepConfig(parse_pattern("cycle:5"), 5, 5))

    @pytest.mark.parametrize("pattern", ["kst:2,2^2", "kst:2,3"])
    def test_verification_runs_no_edge_search(self, monkeypatch, pattern):
        # from each climb's return to the next climb, every copy-through
        # search fails the run: a row is verified from its copies alone
        copy_through = oracle._EdgeCheck.copy_through

        def no_search(check, u, v):
            raise AssertionError(f"searched for a copy through ({u},{v})")

        def climb_then_forbid(n, desc, iters, seed):
            monkeypatch.setattr(oracle._EdgeCheck, "copy_through",
                                copy_through)
            climb = oracle.hill_climb_free(n, desc, iters, seed)
            monkeypatch.setattr(oracle._EdgeCheck, "copy_through", no_search)
            return climb

        monkeypatch.setattr(sweep, "hill_climb_free", climb_then_forbid)
        rows, _ = run_sweep(SweepConfig(parse_pattern(pattern), 6, 12,
                                        n_step=3, seeds=2, iterations=100))
        assert len(rows) == 6 and all(r.verified for r in rows)
        assert all(r.edges < r.n * (r.n - 1) // 2 for r in rows[2:])


def _rank(n, u, v):
    """The rank of the pair (u, v), u < v, in `combinations` order."""
    return list(combinations(range(n), 2)).index((u, v))


def _sweep_with_copy(monkeypatch, desc, g, copies, u, v, copy):
    """`run_sweep` of the one row (g.n, seed 0) on a climb that returns g
    and `copies` with the copy of the pair (u, v) replaced by `copy`."""
    copies = list(copies)
    copies[_rank(g.n, u, v)] = copy
    monkeypatch.setattr(sweep, "hill_climb_free",
                        lambda n, d, iters, seed: ClimbResult(g, copies))
    return run_sweep(SweepConfig(desc, g.n, g.n))


def _stray(g, w):
    """A vertex of g on no path of the spider witness w and not adjacent
    to its centre."""
    used = {x for p in w.paths for x in p}
    centre = w.paths[0][0]
    return next(x for x in g.vertices()
                if x not in used and not g.has_edge(centre, x))


class TestForgedCertificates:
    """Every copy the sweep accepts must be a copy of the pattern in the
    graph plus its pair.  The hosts are edge-maximal, so a forged copy
    fails the row with the copy named, not the graph."""

    C5 = parse_pattern("cycle:5")
    # K_{4,4} is bipartite, so C5-free; a pair inside a side closes a C5
    # with any 4-edge path through the other side
    K44 = complete_bipartite(4, 4)

    def k44_copies(self):
        copies = []
        for u, v in combinations(range(8), 2):
            side = [w for w in range(8) if (w < 4) != (u < 4)]
            mid = min(w for w in range(8) if (w < 4) == (u < 4)
                      and w not in (u, v))
            copies.append(None if (u < 4) != (v < 4)
                          else (u, side[0], mid, side[1], v))
        return copies

    def test_valid_copies_pass_in_either_direction(self, monkeypatch):
        copies = self.k44_copies()
        rows, _ = _sweep_with_copy(monkeypatch, self.C5, self.K44, copies,
                                   0, 1, (1, 5, 2, 4, 0))
        assert [(r.edges, r.verified) for r in rows] == [(16, True)]

    @pytest.mark.parametrize("copy", [
        None,  # missing
        (0, 4, 1),  # a path, but with 2 edges, not 4
        (0, 4, 0, 4, 1),  # a walk: 0 and 4 repeat
        (0, 4, 2, 4, 2, 5, 1),  # a 6-edge walk through 5 vertices
        (0, 4, 2, 3, 1),  # (2,3) and (3,1) are not edges
        (0, 4, 2, 5, 3),  # a 4-edge path from 0, but to 3, not 1
    ])
    def test_forged_cycle_copy(self, monkeypatch, copy):
        with pytest.raises(
            RuntimeError, match=r"n=8 seed=0: blocking copy at \(0,1\) "
            r"failed verification"
        ):
            _sweep_with_copy(monkeypatch, self.C5, self.K44,
                             self.k44_copies(), 0, 1, copy)

    @pytest.mark.parametrize("forge", [
        # the centre's edge reversed, so its ends miss their terminals
        lambda g, w, e: w._replace(
            paths=(w.paths[0][::-1], *w.paths[1:])),
        # the second leg's middle vertex is not adjacent to the centre
        lambda g, w, e: w._replace(
            paths=(w.paths[0],
                   (w.paths[1][0], _stray(g, w), w.paths[1][2]),
                   w.paths[2])),
        # the second leg runs through the third leg's middle vertex
        lambda g, w, e: w._replace(
            paths=(w.paths[0], (w.paths[1][0], w.paths[2][1],
                                w.paths[1][2]), w.paths[2])),
        # one terminal short
        lambda g, w, e: w._replace(terminals=w.terminals[:-1]),
        # a valid copy of another pattern: the single edge (u, v) itself
        lambda g, w, e: Witness(parse_pattern("arbitrary:2:0-1"), e, (e,)),
        # a witness's paths instead of the witness
        lambda g, w, e: w.paths,
    ])
    def test_forged_template_witness(self, monkeypatch, forge):
        # spider:1,2,2: a centre with one leg of one edge and two of two
        desc = parse_pattern("spider:1,2,2")
        climb = oracle.hill_climb_free(8, desc, 40, 0)
        g = climb.graph
        u, v = next(p for p in combinations(range(8), 2)
                    if not g.has_edge(*p))
        w = climb.copies[_rank(8, u, v)]
        assert isinstance(w, Witness) and w.pattern == desc
        with pytest.raises(
            RuntimeError, match=rf"n=8 seed=0: blocking copy at \({u},{v}\) "
            r"failed verification"
        ):
            _sweep_with_copy(monkeypatch, desc, g, climb.copies, u, v,
                             forge(g, w, (u, v)))
