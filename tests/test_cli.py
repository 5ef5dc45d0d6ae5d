"""End-to-end tests of the command-line interface.

Calls `main` in-process with small budgets so the suite stays fast; the
exit-code contract (0 pass, 1 verification failure, 2 usage) and the
stdout-is-only-paths rule are asserted throughout.
"""
import json
import math
from pathlib import Path

import pytest

from curvlab.cli import main


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("CURVLAB_SEED", raising=False)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    paths = [line for line in captured.out.splitlines() if line]
    return code, paths, captured.err


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


FAST = ["--frame-budget", "2000", "--grid-points", "9", "--r-max", "3"]


class TestVerifyExamples:
    def test_pass_with_explicit_epsilon(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--lambda", "1",
             "--epsilon", "1", "--out", str(tmp_path), *FAST], capsys)
        assert code == 0
        assert len(paths) == 1
        report = load_json(paths[0])
        assert report["pass"] is True
        assert report["suite"] == "verify-examples"
        lo, hi = report["witnesses"]["positivity"]["coordinate_frame_value_range"]
        assert abs(lo - 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9
        assert report["witnesses"]["ode_residual_max"] < 1e-9
        assert report["config"]["frame_budget"] == 2000

    def test_search_finds_scale(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--out", str(tmp_path),
             *FAST], capsys)
        assert code == 0
        report = load_json(paths[0])
        assert report["witnesses"]["epsilon"] == 1.0
        tight = report["witnesses"]["tightness"]
        assert tight["epsilon"] == 2.0
        assert tight["pass"] is False

    def test_out_of_range_pair_is_usage_error(self, tmp_path, capsys):
        code, paths, err = run_cli(
            ["verify-examples", "--n", "6", "--m", "4", "--out", str(tmp_path)],
            capsys)
        assert code == 2
        assert paths == []
        assert "error" in err

    def test_unsupported_dimension_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["verify-examples", "--n", "8", "--m", "2", "--out", str(tmp_path),
             *FAST], capsys)
        assert code == 2

    @pytest.mark.parametrize("epsilon", [["--epsilon", "1"], []])
    def test_non_finite_curvature_is_usage_error(self, tmp_path, capsys, epsilon):
        # no errstate guard: the suite turns any RuntimeWarning into an error
        code, paths, err = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", *epsilon,
             "--r-max", "40", "--grid-points", "3", "--frame-budget", "500",
             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert paths == []
        assert "r = -40.0" in err and "not finite" in err

    def test_failing_epsilon_exits_one_with_witness(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "10",
             "--out", str(tmp_path), *FAST], capsys)
        assert code == 1
        report = load_json(paths[0])
        assert report["pass"] is False
        worst = report["witnesses"]["positivity"]["worst"]
        assert worst["value"] < 1.0
        assert abs(worst["r"]) <= 3.0
        assert len(worst["frame"]) == 6


class TestScanAlgebra:
    def test_default_run(self, tmp_path, capsys):
        code, paths, _ = run_cli(["scan-algebra", "--out", str(tmp_path)],
                                 capsys)
        assert code == 0
        assert len(paths) == 4
        summary = load_json(paths[-1])
        assert summary["pass"] is True
        assert summary["witnesses"]["admissible_counts"]["7"] == [1, 5, 6]
        assert summary["witnesses"]["gamma_equivalence"]["pass"] is True
        d_table = load_json([p for p in paths if "d_table" in p][0])
        row_32 = [r for r in d_table["rows"] if r["n"] == 3 and r["m"] == 2][0]
        assert row_32["D"] == "3/4"

    def test_csv_format(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["scan-algebra", "--out", str(tmp_path), "--format", "csv"], capsys)
        assert code == 0
        adm = [p for p in paths if "admissibility" in p][0]
        assert adm.endswith(".csv")
        with open(adm, newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "n,m,ineq1,ineq2,admissible"


class TestMatrixInequalities:
    def test_sharp_small_case(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["matrix-inequalities", "--n", "3", "--m", "2",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        report = load_json(paths[0])
        chen = report["witnesses"]["chen"]
        assert abs(chen["ratio"] - 0.75) < 1e-6
        matrix = chen["matrix"]
        assert abs(matrix[0][0] - 0.5) < 1e-4
        assert abs(matrix[1][1] - 0.5) < 1e-4
        assert report["witnesses"]["brendle"]["ratio"] > 0

    def test_gap_case(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["matrix-inequalities", "--n", "7", "--m", "5",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        report = load_json(paths[0])
        assert report["witnesses"]["chen"]["ratio"] >= 0.5 - 1e-9
        assert "gap" in report["witnesses"]["chen"]

    def test_exact_fields(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["matrix-inequalities", "--n", "7", "--m", "5",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        wit = load_json(paths[0])["witnesses"]
        assert wit["threshold_D"] == wit["chen"]["ratio_exact"] == "1/2"
        assert wit["chen"]["ratio"] == 0.5 and wit["chen"]["gap"] == 0.0
        assert wit["brendle"]["min_pivot"] == "2/5"
        assert wit["brendle"]["ratio"] == pytest.approx(1 / 6, abs=1e-12)
        assert all(isinstance(v, float) and math.isfinite(v)
                   for key in ("chen", "brendle")
                   for row in wit[key]["matrix"] for v in row)

    def test_seed_does_not_change_report(self, tmp_path, capsys):
        blobs = []
        for seed in ("1", "2", "2"):
            _, paths, _ = run_cli(
                ["matrix-inequalities", "--n", "6", "--m", "4", "--seed", seed,
                 "--out", str(tmp_path)], capsys)
            blobs.append(Path(paths[0]).read_bytes())
        assert blobs[1] == blobs[2]
        # the echoed configuration is the only place the seed appears
        assert blobs[0].count(b'"seed": 1\n') == 1
        assert blobs[0].replace(b'"seed": 1\n', b'"seed": 2\n') == blobs[1]

    def test_inadmissible_pair(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["matrix-inequalities", "--n", "6", "--m", "2",
             "--out", str(tmp_path)], capsys)
        assert code == 2
        assert paths == []


class TestDiameter:
    def test_codimension_two_with_model(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["diameter", "--n", "5", "--m", "3", "--lambda", "1",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        report = load_json(paths[0])
        bound = report["witnesses"]["bounds"]["partial_curvature"]
        assert abs(bound - math.pi * math.sqrt(2)) < 1e-12
        model = report["witnesses"]["model"]
        assert model["pass"] is True
        assert model["relative_gap"] < 0.02
        assert report["witnesses"]["c0_identity"]["equal"] is True

    def test_skip_model(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["diameter", "--n", "5", "--m", "3", "--skip-model",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        report = load_json(paths[0])
        assert "model" not in report["witnesses"]

    def test_five_two_bound(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["diameter", "--n", "5", "--m", "2", "--out", str(tmp_path)],
            capsys)
        assert code == 0
        report = load_json(paths[0])
        bound = report["witnesses"]["bounds"]["partial_curvature"]
        assert abs(bound - 2 * math.pi) < 1e-12
        assert "model" not in report["witnesses"]
        # the gradient-estimate bound at the slice dimension agrees exactly
        grad = report["witnesses"]["bounds"]["gradient_estimate"]
        assert abs(grad - bound) < 1e-9

    def test_inadmissible_pair(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["diameter", "--n", "7", "--m", "4", "--out", str(tmp_path)],
            capsys)
        assert code == 2
        assert paths == []


class TestCurvatureReport:
    def test_csv_table(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["curvature-report", "--n", "6", "--m", "2", "--format", "csv",
             "--grid-points", "9", "--r-max", "3", "--out", str(tmp_path)],
            capsys)
        assert code == 0
        with open(paths[0], newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "r,scalar,ricci_min,ricci_max,ricci_radial"
        assert len(lines) == 10

    def test_out_of_range(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["curvature-report", "--n", "5", "--m", "2", "--out",
             str(tmp_path)], capsys)
        assert code == 2


class TestReproducibility:
    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        argv = ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1",
                "--seed", "5", "--out", str(tmp_path), *FAST]
        outputs = []
        for _ in range(2):
            _, paths, _ = run_cli(argv, capsys)
            outputs.append(Path(paths[0]).read_bytes())
        assert outputs[0] == outputs[1]

    def test_scan_algebra_byte_identical(self, tmp_path, capsys):
        blobs = []
        for _ in range(2):
            _, paths, _ = run_cli(["scan-algebra", "--out", str(tmp_path)],
                                  capsys)
            blobs.append(b"".join(Path(p).read_bytes() for p in sorted(paths)))
        assert blobs[0] == blobs[1]

    def test_output_directory_not_in_report(self, tmp_path, capsys):
        blobs = []
        for out in ("a", "b"):
            _, paths, _ = run_cli(
                ["matrix-inequalities", "--n", "7", "--m", "5",
                 "--out", str(tmp_path / out)], capsys)
            assert Path(paths[0]).parent == tmp_path / out
            blobs.append(Path(paths[0]).read_bytes())
        assert blobs[0] == blobs[1]
        assert b"output_dir" not in blobs[0]

    def test_env_seed_and_flag_precedence(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CURVLAB_SEED", "7")
        _, paths, _ = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1",
             "--out", str(tmp_path / "env"), *FAST], capsys)
        assert load_json(paths[0])["config"]["seed"] == 7
        _, paths, _ = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1",
             "--seed", "3", "--out", str(tmp_path / "flag"), *FAST], capsys)
        assert load_json(paths[0])["config"]["seed"] == 3

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\ngrid_points = 7\n# comment\n")
        _, paths, _ = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1",
             "--config", str(cfg), "--frame-budget", "2000",
             "--r-max", "3", "--out", str(tmp_path / "out")], capsys)
        report = load_json(paths[0])
        assert report["config"]["seed"] == 11
        assert report["config"]["grid_points"] == 7

    def test_bad_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code, paths, err = run_cli(
            ["scan-algebra", "--config", str(cfg), "--out", str(tmp_path)],
            capsys)
        assert code == 2
        assert paths == []
        assert "no_such_key" in err

    def test_missing_required_flag_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-examples", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        capsys.readouterr()
