import pytest

from spidersearch import sweep
from spidersearch.graph import cycle_graph
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
        # C9 is C8-free; (0,2) closes an 8-cycle, (0,3) does not
        monkeypatch.setattr(sweep, "hill_climb_free",
                            lambda n, desc, iters, seed: cycle_graph(n))
        cfg = SweepConfig(parse_pattern("kst:2,2^2"), 9, 9)
        with pytest.raises(RuntimeError,
                           match=r"n=9 seed=0: not edge-maximal at \(0,3\)"):
            run_sweep(cfg)
