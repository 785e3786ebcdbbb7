"""Failed writes reported by kts's main, and the degree range that
bench_systems checks before any solve."""

from types import SimpleNamespace

import pytest
from test_cli import affine_center_file

import ktsolve.families
from ktsolve.cli import EXIT_INPUT_ERROR, main
from ktsolve.families import BENCH_BASES, bench_systems


def one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


class TestFailedWrites:
    def test_report_into_missing_directory(self, tmp_path, capsys):
        """The summary is printed before the report fails to open."""
        path = affine_center_file(tmp_path)
        report = tmp_path / "missing" / "report.json"
        code = main(["solve", "--input", str(path), "--report", str(report)])
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "zeros found: 1" in captured.out
        assert one_error_line(captured.err), captured.err
        assert not report.parent.exists()

    def test_bench_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bench.csv"
        code = main(["bench", "--count", "1", "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert one_error_line(capsys.readouterr().err)
        assert not out.parent.exists()

    def test_intervals_into_existing_file(self, tmp_path, capsys):
        out = tmp_path / "study"
        out.write_text("kept\n", encoding="utf-8")
        code = main(["intervals", "--count", "1", "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert one_error_line(capsys.readouterr().err)
        assert out.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["study"]


class TestBenchDegreeRange:
    @pytest.mark.parametrize(
        "min_degree, max_degree",
        [(3, 2), (-1, 2), (0, -1), (2, 21), (21, 21), (2, 2.0), (True, 2)],
    )
    def test_rejected_before_any_solve(self, monkeypatch, min_degree, max_degree):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the degree check")

        monkeypatch.setattr(ktsolve.families, "kts_solve", no_solve)
        with pytest.raises(ValueError, match="degree"):
            bench_systems(1, min_degree, max_degree, 1)

    def test_top_of_range_reaches_the_solver(self, monkeypatch):
        """Degree 20 passes the check; the solves are stubbed out."""
        solved = []

        def stub(f):
            solved.append((f.basis.value, f.degree_u, f.degree_v))
            return SimpleNamespace(zeros=[])

        monkeypatch.setattr(ktsolve.families, "kts_solve", stub)
        monkeypatch.setattr(ktsolve.families, "condition_estimate", lambda f, zeros: None)
        bench_systems(1, 20, 20, 1)
        assert solved == [(b.value, 20, 20) for b in BENCH_BASES]
