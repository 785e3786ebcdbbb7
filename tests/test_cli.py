"""System-file parsing and the kts command-line entry points."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ktsolve import Basis, BivariateSystem
from ktsolve.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNRESOLVED,
    SystemFileError,
    main,
    parse_system,
    write_system,
)

from helpers import package_root, random_system, unit_power_system


def affine_center_file(tmp_path, name="sys.json"):
    """System file for F = (x - 0.5, y - 0.5) on the unit square."""
    f = unit_power_system(
        np.array(
            [
                [[-0.5, -0.5], [0.0, 1.0]],
                [[1.0, 0.0], [0.0, 0.0]],
            ]
        )
    )
    path = tmp_path / name
    write_system(f, path)
    return path


class TestParseSystem:
    def test_round_trip(self, tmp_path):
        """write_system output parses back to identical coefficients."""
        rng = np.random.default_rng(4)
        for basis in Basis:
            f = random_system(rng, basis, 3, 2)
            path = tmp_path / f"{basis.value}.json"
            write_system(f, path)
            g = parse_system(path)
            assert g.basis is basis
            assert g.coeffs.tobytes() == f.coeffs.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemFileError, match="cannot read"):
            parse_system(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemFileError, match="malformed JSON"):
            parse_system(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "nokey.json"
        path.write_text(json.dumps({"basis": "power", "m": 0, "n": 0}))
        with pytest.raises(SystemFileError, match="coeffs"):
            parse_system(path)

    def test_unknown_basis(self, tmp_path):
        path = tmp_path / "basis.json"
        path.write_text(
            json.dumps({"basis": "legendre", "m": 0, "n": 0, "coeffs": [[[1.0, 1.0]]]})
        )
        with pytest.raises(SystemFileError, match="legendre"):
            parse_system(path)

    def test_shape_mismatch_names_both_shapes(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(
            json.dumps({"basis": "power", "m": 2, "n": 1, "coeffs": [[[1.0, 1.0]]]})
        )
        with pytest.raises(SystemFileError, match=r"\(1, 1, 2\).*\(3, 2, 2\)"):
            parse_system(path)

    def test_non_numeric_coeffs(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            json.dumps({"basis": "power", "m": 0, "n": 0, "coeffs": [[["x", "y"]]]})
        )
        with pytest.raises(SystemFileError, match="numeric"):
            parse_system(path)


    @pytest.mark.parametrize("m", ["two", "2", 1.5, 2.0, -1, True, None, [2]])
    def test_rejects_bad_degree(self, tmp_path, m):
        """Degrees must be non-negative JSON integers; nothing is truncated."""
        path = tmp_path / "deg.json"
        coeffs = [[[1.0, 1.0]]] * 2  # the shape int(1.5) + 1 used to accept
        path.write_text(json.dumps({"basis": "power", "m": m, "n": 0, "coeffs": coeffs}))
        with pytest.raises(SystemFileError, match="degree m must be a non-negative integer"):
            parse_system(path)

    def test_bad_degree_exits_with_error_line(self, tmp_path, capsys):
        path = tmp_path / "deg.json"
        path.write_text(
            json.dumps({"basis": "power", "m": 0, "n": "two", "coeffs": [[[1.0, 1.0]]]})
        )
        code = main(["solve", "--input", str(path)])
        assert code == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err


class TestSolveCommand:
    def test_finds_center_zero(self, tmp_path, capsys):
        path = affine_center_file(tmp_path)
        report = tmp_path / "report.json"
        code = main(["solve", "--input", str(path), "--report", str(report)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "zeros found: 1" in out
        data = json.loads(report.read_text())
        assert len(data["zeros"]) == 1
        z = data["zeros"][0]
        assert abs(z["x"] - 0.5) <= 1e-12
        assert abs(z["y"] - 0.5) <= 1e-12
        assert data["unresolved"] == []
        assert data["patches_examined"] >= 1

    def test_no_zero_system(self, tmp_path, capsys):
        f = unit_power_system(
            np.array([[[3.0, 3.0]]])  # F = (3, 3), no zeros anywhere
        )
        path = tmp_path / "const.json"
        write_system(f, path)
        code = main(["solve", "--input", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "zeros found: 0" in out
        assert "patches examined: 1," in out

    def test_basis_conversion_flag(self, tmp_path, capsys):
        path = affine_center_file(tmp_path)
        code = main(["solve", "--input", str(path), "--basis", "bernstein"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "basis: bernstein" in out
        assert "zeros found: 1" in out

    def test_cond_flag_reports_estimate(self, tmp_path, capsys):
        path = affine_center_file(tmp_path)
        code = main(["solve", "--input", str(path), "--cond"])
        assert code == EXIT_OK
        assert "condition estimate" in capsys.readouterr().out

    def test_max_depth_floor_exit_code(self, tmp_path, capsys):
        """A double root line forces the depth floor and exit code 2."""
        f = unit_power_system(
            np.array(
                [
                    [[-0.5, -0.5], [0.0, 0.0]],
                    [[1.0, 1.0], [0.0, 0.0]],
                ]
            )
        )
        path = tmp_path / "line.json"
        write_system(f, path)
        code = main(["solve", "--input", str(path), "--max-depth", "6"])
        assert code == EXIT_UNRESOLVED
        assert "unresolved patches" in capsys.readouterr().err

    def test_max_depth_one_certified_root_exits_ok(self, tmp_path, capsys):
        """At depth 1 the root patch is at the floor, but the ball
        certified there covers it, so nothing is unresolved."""
        path = affine_center_file(tmp_path)
        report = tmp_path / "report.json"
        argv = ["solve", "--input", str(path), "--basis", "bernstein", "--max-depth", "1"]
        assert main(argv + ["--report", str(report)]) == EXIT_OK
        assert "unresolved" not in capsys.readouterr().err
        assert json.loads(report.read_text())["unresolved"] == []

    def test_non_finite_coefficient_is_input_error(self, tmp_path, capsys):
        """A NaN in the file is rejected up front, not subdivided to the floor."""
        path = affine_center_file(tmp_path)
        data = json.loads(path.read_text())
        data["coeffs"][1][0][0] = float("nan")
        path.write_text(json.dumps(data))
        assert "NaN" in path.read_text()
        code = main(["solve", "--input", str(path), "--max-depth", "6"])
        assert code == EXIT_INPUT_ERROR
        assert "non-finite" in capsys.readouterr().err

    def test_input_error_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "absent.json")])
        assert code == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tol", "nan"],
            ["--tol", "-1"],
            ["--tol", "0"],
            ["--tol", "inf"],
            ["--max-depth", "-3"],
            ["--max-depth", "0"],
            ["--max-depth", "1075"],
            ["--max-depth", "1100"],
            ["--max-depth", "-2000"],
        ],
    )
    def test_bad_setting_is_input_error(self, tmp_path, capsys, flags):
        """A tolerance or depth the solver cannot honour stops before any patch."""
        path = affine_center_file(tmp_path)
        code = main(["solve", "--input", str(path)] + flags)
        assert code == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "patches examined" not in captured.out

    def test_extreme_valid_settings_solve(self, tmp_path, capsys):
        """The ends of the valid ranges run the solver."""
        path = affine_center_file(tmp_path)
        for flags in (["--max-depth", "1"], ["--max-depth", "1074"], ["--tol", "1e-300"]):
            code = main(["solve", "--input", str(path)] + flags)
            assert code in (EXIT_OK, EXIT_UNRESOLVED), flags
            assert "zeros found: 1" in capsys.readouterr().out


class TestBenchCommand:
    def test_writes_csv_with_exact_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--count", "2",
                "--min-degree", "2",
                "--max-degree", "2",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "seed,m,n,cond_estimate,power_patches,power_width,"
            "bernstein_patches,bernstein_width,chebyshev_patches,chebyshev_width"
        )
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2" and first[2] == "2"

    @pytest.mark.parametrize(
        "degrees",
        [("5", "2"), ("-1", "2"), ("2", "21"), ("21", "21"), ("0", "-1")],
    )
    def test_bad_degree_range_is_input_error(self, tmp_path, capsys, degrees):
        """An empty or unsupported degree range stops with one error line."""
        out = tmp_path / "bench.csv"
        lo, hi = degrees
        code = main(
            ["bench", "--count", "2", "--min-degree", lo, "--max-degree", hi, "--out", str(out)]
        )
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_degree_zero_range(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--count", "2", "--min-degree", "0", "--max-degree", "0"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["bench", "--count", "2", "--min-degree", "2", "--max-degree", "2"]
        main(argv + ["--out", str(a)])
        main(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestIntervalsCommand:
    def test_writes_both_csvs(self, tmp_path, capsys):
        out = tmp_path / "study"
        code = main(["intervals", "--count", "20", "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        tighter = (out / "tighter.csv").read_text().splitlines()
        exact = (out / "exact.csv").read_text().splitlines()
        assert tighter[0] == "family,bernstein_tighter,chebyshev_tighter,ties"
        assert exact[0] == "family,bernstein_exact,chebyshev_exact"
        assert len(tighter) == 6 and len(exact) == 6
        families = [line.split(",")[0] for line in tighter[1:]]
        assert families == ["rand", "sin", "sin-L", "sinw", "sinw-L"]
        for line in tighter[1:]:
            _, bt, ct, ties = line.split(",")
            assert int(bt) + int(ct) + int(ties) == 20

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["intervals", "--count", "20", "--seed", "3", "--out", str(a)])
        main(["intervals", "--count", "20", "--seed", "3", "--out", str(b)])
        assert (a / "tighter.csv").read_bytes() == (b / "tighter.csv").read_bytes()
        assert (a / "exact.csv").read_bytes() == (b / "exact.csv").read_bytes()


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        """The installed kts script solves a file end to end."""
        path = affine_center_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "ktsolve.cli", "solve", "--input", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": package_root()},
        )
        assert proc.returncode == 0
        assert "zeros found: 1" in proc.stdout

    def test_kts_log_info_goes_to_stderr(self, tmp_path):
        path = affine_center_file(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "ktsolve.cli", "solve", "--input", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "KTS_LOG": "info", "PYTHONPATH": package_root()},
        )
        assert proc.returncode == 0, proc.stderr
        assert "zeros found: 1" in proc.stdout
        assert "INFO ktsolve.solver: zero at" in proc.stderr
        assert "INFO" not in proc.stdout
