"""The assoc-bench command-line interface."""

import importlib
import importlib.metadata
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from assocsort.backend import current_backend, set_backend
from assocsort.bench import CSV_HEADER
from assocsort.cli import build_parser, main


class TestRunCommand:
    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        rc = main([
            "run", "--n", "64", "--trials", "2", "--seed", "5",
            "--w", "32", "--csv", str(path),
        ])
        assert rc == 0
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # header + 2 trials
        assert f"wrote 2 rows to {path}" in capsys.readouterr().out

    def test_summary_by_default(self, capsys):
        rc = main(["run", "--n", "32", "--trials", "1", "--w", "32"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend:" in out
        assert "assoc_improved" in out

    def test_grid_flags_repeat(self, tmp_path):
        path = tmp_path / "grid.csv"
        rc = main([
            "run", "--algo", "cycle_distinct", "--algo", "npsort",
            "--dist", "distinct", "--n", "32", "--n", "48",
            "--ratio", "2.0", "--trials", "1", "--w", "32",
            "--csv", str(path),
        ])
        assert rc == 0
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 4  # 2 algos x 2 sizes
        assert {r.split(",")[0] for r in rows} == {"cycle_distinct", "npsort"}

    def test_verify_flag(self, tmp_path):
        rc = main([
            "run", "--n", "40", "--trials", "1", "--w", "32",
            "--verify", "--csv", str(tmp_path / "v.csv"),
        ])
        assert rc == 0
        line = (tmp_path / "v.csv").read_text().splitlines()[1]
        assert line.endswith(",1")  # verified column

    def test_trace_file(self, tmp_path):
        trace = tmp_path / "phases.jsonl"
        rc = main([
            "run", "--n", "16", "--trials", "1", "--w", "32",
            "--trace", str(trace), "--csv", str(tmp_path / "t.csv"),
        ])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all(len(json.loads(l)["array"]) == 16 for l in lines)

    def test_backend_flag(self, tmp_path, capsys):
        previous = current_backend()
        try:
            rc = main([
                "run", "--n", "32", "--trials", "1", "--w", "32",
                "--backend", "numpy", "--summary",
            ])
            assert rc == 0
            assert "backend: numpy" in capsys.readouterr().out
        finally:
            set_backend(previous)

    def test_rejects_unknown_algo(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "quicksort"])
        assert exc.value.code == 2


class TestBackendsCommand:
    def test_side_by_side(self, tmp_path, capsys):
        prefix = tmp_path / "cmp"
        rc = main([
            "backends", "--n", "32", "--trials", "1", "--w", "32",
            "--csv", str(prefix),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "--- backend: numpy ---" in out
        numpy_csv = tmp_path / "cmp.numpy.csv"
        assert numpy_csv.exists()
        assert numpy_csv.read_text().splitlines()[0] == CSV_HEADER
        from assocsort.backend import BACKENDS, available

        for name in BACKENDS:
            ran = available(name)
            assert (f"--- backend: {name} ---" in out) == ran
            assert (tmp_path / f"cmp.{name}.csv").exists() == ran


class TestParser:
    def test_help_lists_subcommands(self):
        text = build_parser().format_help()
        assert "run" in text and "backends" in text

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["run", "backends"])
    @pytest.mark.parametrize("w", ["99", "3"])
    def test_word_width_out_of_range_is_a_usage_error(self, command, w, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "16", "--trials", "1", "--w", w])
        assert exc.value.code == 2
        assert "[4, 63]" in capsys.readouterr().err


def _installed(dist):
    try:
        importlib.metadata.distribution(dist)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(
    not _installed("assocsort"),
    reason="assocsort distribution not installed; assoc-bench exists only after pip install",
)
def test_console_script_installed():
    exe = shutil.which("assoc-bench")
    assert exe, "assoc-bench entry point not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run" in proc.stdout


def test_console_script_declared(capsys):
    """pyproject.toml maps assoc-bench to a callable that serves --help."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["assoc-bench"] == "assocsort.cli:main"
    module, _, attr = scripts["assoc-bench"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert "run" in capsys.readouterr().out
