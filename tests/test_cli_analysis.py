"""Tests for the CLI and the analysis renderers."""

import pytest

from repro.analysis.ascii_chart import bar_chart, line_chart
from repro.cli import main


class TestCharts:
    def test_bar_chart_renders_all_labels(self):
        out = bar_chart(["aa", "b"], [1.0, 0.5], title="T")
        assert out.splitlines()[0] == "T"
        assert "aa" in out and "b" in out
        assert out.count("#") > 0

    def test_bar_chart_zero_values(self):
        out = bar_chart(["x"], [0.0])
        assert "#" not in out

    def test_bar_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_line_chart_plots_series(self):
        out = line_chart(
            [0, 10, 20], {"s1": [0.0, 0.5, 1.0], "s2": [1.0, 0.5, None]}, title="L"
        )
        assert "L" in out
        assert "s1" in out and "s2" in out
        assert "*" in out and "o" in out


class TestCLI:
    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("backprop", "bfs", "pathfinder"):
            assert name in out

    def test_run_command_quick(self, capsys):
        code = main(
            ["run", "bfs", "--safety", "border-control-bcc", "--gpu", "moderately",
             "--quick"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "border checks" in out
        assert "runtime" in out

    def test_run_unknown_workload_raises(self, capsys):
        """A usage error naming the seven workloads, exit 2 — not a raw
        KeyError traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "quake", "--quick"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == (
            "border-control: error: unknown workload 'quake'; choose from "
            "['backprop', 'bfs', 'hotspot', 'lud', 'nn', 'nw', 'pathfinder']"
        )

    def test_fig5_command_quick(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments import common

        common.clear_cache()
        assert main(["fig5", "--quick", "--workloads", "bfs"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestExport:
    def test_export_all_writes_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.experiments import common
        from repro.analysis.export import export_all

        common.clear_cache()
        written = export_all(
            tmp_path / "results", quick=True, workloads=["bfs"]
        )
        import csv
        import json
        from pathlib import Path

        for key in ("fig4", "fig5", "fig6", "fig7", "summary"):
            assert key in written
            assert Path(written[key]).exists()
        with open(written["fig4"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gpu", "configuration", "workload", "overhead"]
        assert any(r[2] == "bfs" for r in rows[1:])
        summary = json.loads(Path(written["summary"]).read_text())
        assert "fig4_geomeans" in summary and "storage" in summary

    def test_cli_export_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.experiments import common

        common.clear_cache()
        code = main(
            ["export", "--out", str(tmp_path / "r"), "--quick",
             "--workloads", "bfs"]
        )
        assert code == 0
        assert "summary" in capsys.readouterr().out


class TestRunFlags:
    def test_run_json_output(self, capsys):
        code = main(
            ["run", "bfs", "--gpu", "moderately", "--quick", "--json"]
        )
        assert code == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "bfs"
        assert data["mem_ops"] > 0

    def test_run_large_pages_flag(self, capsys):
        code = main(
            ["run", "lud", "--gpu", "moderately", "--quick", "--large-pages"]
        )
        assert code == 0
        assert "border checks" in capsys.readouterr().out
