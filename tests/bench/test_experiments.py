"""Tests for the benchmark harness (small, fast configurations).

The full-size experiments run through ``repro bench run``; here we check the
harness machinery itself: row structure, determinism, rendering, and
persistence.
"""

from repro.bench import (
    experiment_fig2,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6,
    experiment_table1,
    render_rows,
    render_series,
    write_result,
)


class TestFig2:
    def test_grid_shape(self):
        data = experiment_fig2(ranks=(16, 64), alphas=(0.0, 1.0))
        assert data["x_values"] == [16, 64]
        assert set(data["series"]) == {"alpha=0", "alpha=1"}
        assert data["series"]["alpha=1"] == [2.0, 8.0]


class TestTable1:
    def test_rows_structured(self):
        rows = experiment_table1(rank=32)
        assert [r["type"] for r in rows] == [1, 2, 3, 4, 5, 6]
        assert rows[-1]["saving_%"] == 0.0

    def test_deterministic(self):
        a = experiment_table1(rank=32)
        b = experiment_table1(rank=32)
        assert a == b


class TestSweeps:
    def test_fig4_small(self):
        data = experiment_fig4(
            datasets=("poisson2",), rank=64, block_counts=(1, 2)
        )
        assert len(data["x_values"]) == 2
        assert len(data["series"]["poisson2"]) == 2
        assert all(v > 0 for v in data["series"]["poisson2"])

    def test_fig5_custom_grids(self):
        rows = experiment_fig5("poisson2", rank=64, grids=[(1, 2, 1)])
        assert rows[0]["grid"] == "1x2x1"
        assert rows[0]["relative_perf"] > 0

    def test_fig6_small(self):
        data = experiment_fig6("poisson2", ranks=(16, 64))
        assert set(data["series"]) == {"MB", "RankB", "MB+RankB"}
        for series in data["series"].values():
            assert len(series) == 2


class TestRendering:
    def test_render_rows(self):
        text = render_rows([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_rows_empty(self):
        assert render_rows([], title="none") == "none"

    def test_render_series(self):
        text = render_series("x", [1, 2], {"s": [10, 20]})
        assert "10" in text and "20" in text

    def test_write_result(self, tmp_path):
        path = write_result("t", "hello", directory=str(tmp_path))
        assert open(path).read() == "hello\n"
