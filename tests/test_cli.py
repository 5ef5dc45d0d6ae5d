"""End-to-end tests of the command-line interface.

Calls `main` in-process with small budgets so the suite stays fast; the
exit-code contract (0 pass, 1 verification failure, 2 usage) and the
stdout-is-only-paths rule are asserted throughout.
"""
import dataclasses
import json
import math
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvlab import cli, report
from curvlab.cli import main
from curvlab.constructions import CONSTRUCTION_PAIRS, build_counterexample
from curvlab.inequalities import admissible
from construction_references import curvature_report_rows
import report_references


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    paths = [line for line in captured.out.splitlines() if line]
    return code, paths, captured.err


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


FAST = ["--grid-points", "9", "--r-max", "3"]


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
        # the configuration holds only what a subcommand reads
        assert report["config"] == {"format": "json", "grid_points": 9, "r_max": 3.0}

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
        # m^2 - mn + m + n = 2 > 0 at (8, 1): outside the construction range
        code, _, _ = run_cli(
            ["verify-examples", "--n", "8", "--m", "1", "--out", str(tmp_path),
             *FAST], capsys)
        assert code == 2

    @pytest.mark.parametrize("n,m", [(8, 2), (9, 4), (12, 6)])
    def test_construction_beyond_the_paper_dimensions(self, tmp_path, capsys, n, m):
        code, paths, _ = run_cli(
            ["verify-examples", "--n", str(n), "--m", str(m), "--epsilon", "1",
             "--out", str(tmp_path), *FAST], capsys)
        assert code == 0
        positivity = load_json(paths[0])["witnesses"]["positivity"]
        assert positivity["pass"] is True
        assert positivity["complete"] is True
        assert sum(positivity["worst"]["counts"]) == int(m)

    @pytest.mark.parametrize("epsilon", [["--epsilon", "1"], []])
    def test_non_finite_curvature_is_usage_error(self, tmp_path, capsys, epsilon):
        # no errstate guard: the suite turns any RuntimeWarning into an error
        code, paths, err = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", *epsilon,
             "--r-max", "40", "--grid-points", "3", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert paths == []
        assert "r = -40.0" in err and "not finite" in err
        # (6, 2) at lambda = epsilon = 1 stays finite up to |r| of about 37.61
        assert err.endswith("; curvature is finite for |r| <= 37.61\n")

    def test_extremes_are_exact_on_the_diagonal(self, tmp_path, capsys):
        # Ricci values from -7e3 to 1e226 put eigvalsh's extremes 1-2 ulp off
        # the diagonal; at r = -9.6 the radial direction is the minimum
        code, paths, _ = run_cli(
            ["curvature-report", "--n", "6", "--m", "3", "--lambda", "4",
             "--grid-points", "41", "--r-max", "12", "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = load_json(paths[0])["rows"]
        row = next(row for row in rows if row["r"] == -9.6)
        assert row["ricci_min"] == row["ricci_radial"] == -7368.799999999999
        assert all(row["ricci_min"] <= row["ricci_radial"] <= row["ricci_max"]
                   for row in rows)

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_rows_match_the_dense_route(self, tmp_path, capsys, n, m):
        code, paths, _ = run_cli(["curvature-report", "--n", str(n), "--m", str(m),
                                  "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = load_json(paths[0])["rows"]
        metric = build_counterexample(n, m, 1.0, 1.0)
        reference = curvature_report_rows(metric, np.linspace(-10.0, 10.0, 121))
        assert len(rows) == len(reference) == 121
        for row, ref in zip(rows, reference):
            assert [row[k] for k in ("r", "scalar", "ricci_radial")] == \
                [ref[k] for k in ("r", "scalar", "ricci_radial")]
            for key in ("ricci_min", "ricci_max"):
                assert abs(row[key] - ref[key]) <= 4 * np.spacing(abs(ref[key]))

    def test_large_lambda_residual_is_rounding(self, tmp_path, capsys):
        # the profile-equation terms are of size lambda, so is their rounding
        code, paths, _ = run_cli(
            ["verify-examples", "--n", "7", "--m", "4", "--lambda", "1e6",
             "--r-max", "1e-3", "--grid-points", "21", "--out", str(tmp_path)], capsys)
        assert code == 0
        witnesses = load_json(paths[0])["witnesses"]
        assert witnesses["positivity"]["pass"] is True
        assert witnesses["ode_residual_max"] < 1e-9 * 1e6

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

    def test_huge_epsilon_fails_with_a_report(self, tmp_path, capsys):
        # eps^2 overflows to inf, so 1/(eps^2 f^2) is 0: a finite curvature
        code, paths, err = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1e155",
             "--grid-points", "3", "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "Traceback" not in err
        worst = load_json(paths[0])["witnesses"]["positivity"]["worst"]
        assert worst["r"] == -10.0
        assert worst["value"] == pytest.approx(-224.0)

    def test_failed_search_says_why(self, tmp_path, capsys):
        # C_m scales with lambda, so at 5e-324 no sphere scale passes
        code, paths, err = run_cli(
            ["verify-examples", "--n", "7", "--m", "4", "--lambda", "5e-324",
             "--out", str(tmp_path)], capsys)
        assert code == 1 and len(paths) == 1
        assert load_json(paths[0])["witnesses"]["epsilon"] is None
        assert ("[verify-examples] no epsilon in 2^-t, t <= 20, passed for "
                "(n, m, lambda) = (7, 4, 5e-324)") in err.splitlines()


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
        # one chain per pair n in 3..7, 1 <= m < n: five checks each, one if m = 1
        assert summary["witnesses"]["lift_chain"] == {"pass": True, "cases": 80}
        # the distinct nonzero k = 2(m-1-j)/(m-j): 1, 4/3, 3/2, 8/5, 5/3
        assert summary["witnesses"]["stability"] == {"pass": True, "cases": 5}
        d_table = load_json([p for p in paths if "d_table" in p][0])
        row_32 = [r for r in d_table["rows"] if r["n"] == 3 and r["m"] == 2][0]
        assert row_32["D"] == "3/4"

    def test_false_lift_identity_fails_the_scan(self, tmp_path, capsys, monkeypatch):
        build_chain = cli.build_chain

        def planted(n, m):
            chain = build_chain(n, m)
            if (n, m) != (7, 3):
                return chain
            checks = (("planted", False),) + chain.identity_checks[1:]
            return dataclasses.replace(chain, identity_checks=checks)

        monkeypatch.setattr(cli, "build_chain", planted)
        code, paths, err = run_cli(["scan-algebra", "--out", str(tmp_path)],
                                   capsys)
        assert code == 1
        summary = load_json(paths[-1])
        assert summary["pass"] is False
        assert summary["witnesses"]["lift_chain"] == {"pass": False, "cases": 80}
        assert summary["witnesses"]["stability"]["pass"] is True
        assert "FAIL" in err

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
        assert wit["brendle"]["ratio_exact"] == "1/6" and wit["brendle"]["sector"] == "v"
        assert wit["brendle"]["ratio"] == 1 / 6
        assert all(isinstance(v, float) and math.isfinite(v)
                   for key in ("chen", "brendle")
                   for row in wit[key]["matrix"] for v in row)

    def test_seed_does_not_change_report(self, tmp_path, capsys):
        # --seed and --frame-budget are accepted and read by nothing
        runs = []
        for i, flags in enumerate((["--seed", "1"], ["--seed", "2"], [],
                                   ["--frame-budget", "0"])):
            code, paths, _ = run_cli(
                ["matrix-inequalities", "--n", "6", "--m", "4", *flags,
                 "--out", str(tmp_path / str(i))], capsys)
            runs.append((code, [Path(p).read_bytes() for p in paths]))
        assert runs[0][0] == 0 and len(runs[0][1]) == 1
        assert all(run == runs[0] for run in runs)

    @pytest.mark.parametrize("m", [1, 39])
    def test_large_dimension(self, m, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["matrix-inequalities", "--n", "40", "--m", str(m),
             "--out", str(tmp_path)], capsys)
        assert code == 0
        wit = load_json(paths[0])["witnesses"]
        assert wit["chen"]["ratio_exact"] == wit["threshold_D"]
        assert (wit["brendle"]["ratio_exact"], wit["brendle"]["sector"]) == {
            1: ("1", "B"), 39: ("1/2", "v")}[m]

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
        # the closed-form model: pass rests on the exact C0(n, n-2) = 1/2 alone
        assert model["pass"] is True
        assert model["c0"] == "1/2"
        assert abs(model["diameter"] - math.pi * math.sqrt(2)) < 1e-12
        assert model["bound"] == bound
        assert "relative_gap" not in model
        assert report["witnesses"]["c0_identity"]["equal"] is True

    def test_model_resolution_ignores_grid_points(self, tmp_path, capsys):
        witnesses = []
        for grid in (["--grid-points", "9"], []):
            code, paths, _ = run_cli(
                ["diameter", "--n", "5", "--m", "3", *grid,
                 "--out", str(tmp_path / str(len(grid)))], capsys)
            assert code == 0
            witnesses.append(load_json(paths[0])["witnesses"])
        assert witnesses[0] == witnesses[1]

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

    # (d-1) lambda overflows at the largest lambda; the c0 identity makes the
    # gradient estimate at the slice dimension equal the partial-curvature bound
    @pytest.mark.parametrize("lam", ["1e-300", "1", "1.7976931348623157e308"])
    def test_gradient_estimate_equals_the_bound(self, tmp_path, capsys, lam):
        compared = 0
        for n in range(3, 8):
            for m in range(2, n):
                if not admissible(n, m).admissible:
                    continue
                code, paths, _ = run_cli(
                    ["diameter", "--n", str(n), "--m", str(m), "--lambda", lam,
                     "--out", str(tmp_path)], capsys)
                assert code == 0
                bounds = load_json(paths[0])["witnesses"]["bounds"]
                if isinstance(bounds["gradient_estimate"], float):
                    compared += 1
                    assert bounds["gradient_estimate"] == pytest.approx(
                        bounds["partial_curvature"], rel=1e-12, abs=0), (n, m)
        assert compared == 5

    def test_underflowing_comparison_lambda_is_named(self, tmp_path, capsys):
        code, paths, _ = run_cli(
            ["diameter", "--n", "5", "--m", "3", "--lambda", "5e-324",
             "--out", str(tmp_path)], capsys)
        assert code == 0
        bounds = load_json(paths[0])["witnesses"]["bounds"]
        reason = {"skipped": "lambda/(d-1) = 5e-324/2 underflows to 0"}
        assert bounds["gradient_estimate"] == bounds["oscillation"] == reason

    # lambda * C0 underflows to 0 at 5e-324, and 2/lambda overflows at 1e-320
    @pytest.mark.parametrize("m", ["2", "3"])
    @pytest.mark.parametrize("lam", ["5e-324", "1e-320", "1.7e308"])
    def test_every_finite_lambda_gives_finite_numbers(self, tmp_path, capsys, lam, m):
        code, paths, err = run_cli(
            ["diameter", "--n", "5", "--m", m, "--lambda", lam, "--out", str(tmp_path)],
            capsys)
        assert code == 0
        assert "Traceback" not in err
        witnesses = load_json(paths[0])["witnesses"]
        assert ("model" in witnesses) == (m == "3")
        numbers = [v for _, v in cli._flatten(witnesses) if isinstance(v, float)]
        assert numbers and all(math.isfinite(v) for v in numbers)


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

    def test_huge_epsilon_is_tabulated(self, tmp_path, capsys):
        code, paths, err = run_cli(
            ["curvature-report", "--n", "6", "--m", "2", "--epsilon", "1e300",
             "--grid-points", "3", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "Traceback" not in err
        rows = load_json(paths[0])["rows"]
        assert [row["r"] for row in rows] == [-10.0, 0.0, 10.0]
        assert all(math.isfinite(row["scalar"]) for row in rows)

    def test_out_of_range(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["curvature-report", "--n", "5", "--m", "2", "--out",
             str(tmp_path)], capsys)
        assert code == 2

    def test_reach_is_resolved_from_a_huge_r_max(self, tmp_path, capsys):
        # the reach bisection runs over float bit patterns, so |r| = 1e300
        # resolves it as finely as |r| = 40 does
        code, paths, err = run_cli(
            ["curvature-report", "--n", "7", "--m", "3", "--r-max", "1e300",
             "--grid-points", "3", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert paths == []
        reach = re.fullmatch(r"(?s).*; curvature is finite for \|r\| <= (\S+)\n", err)
        assert reach, err
        assert 350.0 <= float(reach.group(1)) <= 360.0

    def test_non_finite_curvature_names_the_reach(self, tmp_path, capsys):
        code, paths, err = run_cli(
            ["curvature-report", "--n", "6", "--m", "2", "--r-max", "40",
             "--grid-points", "3", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert paths == []
        assert err.endswith("; curvature is finite for |r| <= 37.61\n")

    def test_extremes_are_exact_on_the_diagonal(self, tmp_path, capsys):
        # Ricci values from -7e3 to 1e226 put eigvalsh's extremes 1-2 ulp off
        # the diagonal; at r = -9.6 the radial direction is the minimum
        code, paths, _ = run_cli(
            ["curvature-report", "--n", "6", "--m", "3", "--lambda", "4",
             "--grid-points", "41", "--r-max", "12", "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = load_json(paths[0])["rows"]
        row = next(row for row in rows if row["r"] == -9.6)
        assert row["ricci_min"] == row["ricci_radial"] == -7368.799999999999
        assert all(row["ricci_min"] <= row["ricci_radial"] <= row["ricci_max"]
                   for row in rows)

    @pytest.mark.parametrize("n,m", CONSTRUCTION_PAIRS)
    def test_rows_match_the_dense_route(self, tmp_path, capsys, n, m):
        code, paths, _ = run_cli(["curvature-report", "--n", str(n), "--m", str(m),
                                  "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = load_json(paths[0])["rows"]
        metric = build_counterexample(n, m, 1.0, 1.0)
        reference = curvature_report_rows(metric, np.linspace(-10.0, 10.0, 121))
        assert len(rows) == len(reference) == 121
        for row, ref in zip(rows, reference):
            assert [row[k] for k in ("r", "scalar", "ricci_radial")] == \
                [ref[k] for k in ("r", "scalar", "ricci_radial")]
            for key in ("ricci_min", "ricci_max"):
                assert abs(row[key] - ref[key]) <= 4 * np.spacing(abs(ref[key]))


class TestReproducibility:
    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        argv = ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1",
                "--out", str(tmp_path), *FAST]
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

    @pytest.mark.parametrize("argv", [
        ["verify-examples", "--n", "6", "--m", "3", "--lambda", "4", "--grid-points", "3"],
        ["scan-algebra"],
        ["matrix-inequalities", "--n", "7", "--m", "5"],
        ["diameter", "--n", "6", "--m", "4", "--lambda", "4"],
        ["curvature-report", "--n", "6", "--m", "3"],
    ], ids=lambda argv: argv[0])
    def test_reports_are_the_reference_writers_bytes(self, tmp_path, capsys,
                                                      monkeypatch, argv):
        def written(out):
            code, paths, _ = run_cli([*argv, "--out", str(tmp_path / out)], capsys)
            assert code == 0 and paths
            return {Path(p).name: Path(p).read_bytes() for p in paths}

        library = written("library")
        monkeypatch.setattr(report, "canonical_json", report_references.canonical_json)
        assert written("reference") == library

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points = 11\n")
        argv = ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1",
                "--r-max", "3", "--config", str(cfg)]
        _, paths, _ = run_cli([*argv, "--out", str(tmp_path / "file")], capsys)
        assert load_json(paths[0])["config"]["grid_points"] == 11
        _, paths, _ = run_cli([*argv, "--grid-points", "3", "--out", str(tmp_path / "flag")],
                              capsys)
        assert load_json(paths[0])["config"]["grid_points"] == 3

    def test_env_seed_changes_nothing(self, tmp_path, monkeypatch, capsys):
        # not even an unparsable CURVLAB_SEED: same exit code, same bytes
        def run(out):
            code, paths, _ = run_cli(
                ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1", *FAST,
                 "--out", str(tmp_path / out)], capsys)
            return code, [Path(p).read_bytes() for p in paths]

        monkeypatch.delenv("CURVLAB_SEED", raising=False)
        unset = run("unset")
        monkeypatch.setenv("CURVLAB_SEED", "abc")
        assert run("abc") == unset
        assert unset[0] == 0 and len(unset[1]) == 1

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r_max = 3\ngrid_points = 7\n# comment\n")
        _, paths, _ = run_cli(
            ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1",
             "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
        report = load_json(paths[0])
        assert report["config"] == {"format": "json", "grid_points": 7, "r_max": 3.0}

    def test_bad_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code, paths, err = run_cli(
            ["scan-algebra", "--config", str(cfg), "--out", str(tmp_path)],
            capsys)
        assert code == 2
        assert paths == []
        assert "no_such_key" in err

    @pytest.mark.parametrize("config,source,reason", [
        ("grid_points = abc\n", "bad.cfg:1: ", "invalid literal for int() with base 10: 'abc'"),
        # values that parse but are out of range name their source as well
        ("r_max = 3\n\ngrid_points = 1\n", "bad.cfg:3: ", "grid_points must be at least 2"),
        # no subcommand reads a seed or a frame budget, so neither is a key
        ("seed = 3\n", "bad.cfg:1: ", "unknown config key 'seed'"),
        ("frame_budget = 70\n", "bad.cfg:1: ", "unknown config key 'frame_budget'"),
    ])
    def test_bad_config_value_names_its_source(self, tmp_path, capsys,
                                               config, source, reason):
        (tmp_path / "bad.cfg").write_text(config)
        argv = ["scan-algebra", "--out", str(tmp_path / "out"),
                "--config", str(tmp_path / "bad.cfg")]
        code, paths, err = run_cli(argv, capsys)
        assert code == 2
        assert paths == [] and not (tmp_path / "out").exists()
        assert err.startswith("error: ")
        assert err.endswith(f"{source}{reason}\n")

    def test_missing_required_flag_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-examples", "--out", str(tmp_path)])
        assert excinfo.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # admissible() rejects m outside 1..n-1 before its verdict is read
    ["matrix-inequalities", "--n", "3", "--m", "5"],
    ["diameter", "--n", "4", "--m", "0"],
    # every positive finite lambda evaluates; zero is the edge of that range
    ["diameter", "--n", "5", "--m", "3", "--lambda", "0"],
    # the sphere curvature 1/(eps^2 f^2) overflows at the grid ends
    ["curvature-report", "--n", "6", "--m", "2", "--lambda", "1e300",
     "--grid-points", "3"],
    # the Gaussian profile's log-derivatives overflow in the ODE residual
    ["verify-examples", "--n", "6", "--m", "2", "--r-max", "1e160",
     "--grid-points", "3"],
    # (2, 1) is admissible, but the exact routes need a traceless direction
    ["matrix-inequalities", "--n", "2", "--m", "1"],
    # n >= 8: the scalar is reduced pairwise, and r = -1e300 still comes first
    ["curvature-report", "--n", "12", "--m", "6", "--r-max", "1e300",
     "--grid-points", "3"],
])
def test_bad_invocation_exits_two_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, paths, err = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert paths == [] and not out.exists()
    assert any(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err
    if argv[0] == "curvature-report":
        r_max = float(argv[argv.index("--r-max") + 1]) if "--r-max" in argv else 10.0
        assert f"r = {-r_max!r}" in err and "not finite" in err
    if argv[0] == "verify-examples":
        assert err == "error: ODE residual at r = -1e+160 is not finite\n"
    if argv[:3] == ["matrix-inequalities", "--n", "2"]:
        assert err.endswith("got n = 2\n")


@pytest.mark.parametrize("command", ["verify-examples", "curvature-report"])
def test_unallocatable_grid_exits_two(tmp_path, capsys, command):
    # 8 PB of radii: numpy refuses the grid at once, without touching memory
    out = tmp_path / "out"
    code, paths, err = run_cli(
        [command, "--n", "6", "--m", "2", "--epsilon", "1",
         "--grid-points", "1000000000000000", "--out", str(out)], capsys)
    assert code == 2
    assert paths == [] and not out.exists()
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_unwritable_out_exits_two(tmp_path, capsys, target):
    # --out names a regular file, or a directory below one
    (tmp_path / "file").write_text("")
    code, paths, err = run_cli(
        ["matrix-inequalities", "--n", "6", "--m", "4", "--out", str(tmp_path / target)],
        capsys)
    assert code == 2
    assert paths == []
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


def test_handler_replaced_after_the_first_call_is_the_one_run(tmp_path, capsys,
                                                               monkeypatch):
    # the parser is built once; a handler it bound at build time would hide
    # the benchmark tracer's wrappers from every later call
    assert run_cli(["scan-algebra", "--out", str(tmp_path / "a")], capsys)[0] == 0
    calls = []

    def replaced(cfg, args):
        calls.append(args.command)
        return False, {}

    monkeypatch.setattr(cli, "cmd_scan_algebra", replaced)
    code, paths, _ = run_cli(["scan-algebra", "--out", str(tmp_path / "b")], capsys)
    assert (code, paths, calls) == (1, [], ["scan-algebra"])


# one passing run of every subcommand, with a budget small enough for the suite
SUBCOMMAND_RUNS = [
    ["verify-examples", "--n", "6", "--m", "2", "--epsilon", "1", *FAST],
    ["scan-algebra"],
    ["matrix-inequalities", "--n", "5", "--m", "3"],
    ["diameter", "--n", "5", "--m", "3", "--grid-points", "33"],
    ["curvature-report", "--n", "6", "--m", "2", "--grid-points", "9"],
]


@pytest.mark.parametrize("argv", SUBCOMMAND_RUNS, ids=lambda argv: argv[0])
def test_stdout_lists_exactly_the_written_files(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, paths, err = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 0
    assert sorted(paths) == sorted(str(p) for p in out.iterdir())
    status = [line for line in err.splitlines()
              if re.match(rf"\[{argv[0]}\] (pass|FAIL) in \d+\.\d\ds$", line)]
    assert len(status) == 1


def readme_command_lines():
    """Every `curvlab ...` line of the README's sh blocks, with its comment."""
    readme = Path(cli.__file__).parents[2] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.startswith("curvlab ")]


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_lines_run(tmp_path, capsys, line):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:] + ["--out", str(tmp_path)]
    if argv[0] == "verify-examples":
        argv += FAST
    code, paths, _ = run_cli(argv, capsys)
    assert code == (1 if "exits 1" in comment else 0)
    assert paths


def test_readme_shows_every_subcommand():
    commands = {line.split()[1] for line in readme_command_lines()}
    assert commands == {argv[0] for argv in SUBCOMMAND_RUNS}


def test_module_entry_point_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency; a runtime-only install must still work
    out = tmp_path / "out"
    launcher = ("import runpy, sys; sys.modules['scipy'] = None; "
                f"sys.argv = ['curvlab', 'scan-algebra', '--out', {str(out)!r}]; "
                "runpy.run_module('curvlab.cli', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", launcher], capture_output=True,
                          text=True, cwd=Path(cli.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    assert len(list(out.iterdir())) == 4
    assert sorted(proc.stdout.splitlines()) == sorted(str(p) for p in out.iterdir())


class TestNonFiniteParameters:
    """A parameter that is not a finite positive number is bad usage, not a failure."""

    INVOCATIONS = {
        "verify-examples": (["--n", "6", "--m", "2"], ("--lambda", "--epsilon", "--r-max")),
        "diameter": (["--n", "5", "--m", "3"], ("--lambda", "--r-max")),
        "curvature-report": (["--n", "6", "--m", "2"], ("--lambda", "--epsilon", "--r-max")),
    }
    CASES = [(command, flag) for command, (_, flags) in INVOCATIONS.items()
             for flag in flags]

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command,flag", CASES)
    def test_exits_two_with_a_reason(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, paths, err = run_cli(
                [command, *self.INVOCATIONS[command][0], f"{flag}={value}",
                 "--out", str(out), "--grid-points", "9"], capsys)
        assert code == 2
        assert paths == [] and not out.exists()
        # --r-max is checked with the configuration, which names its key
        assert flag.lstrip("-").replace("-", "_") in err
        assert "finite and positive" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["verify-examples", "curvature-report"])
    def test_r_max_beyond_half_the_largest_float(self, tmp_path, capsys, command):
        # np.linspace(-r_max, r_max) would overflow its width and leave NaN radii
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, paths, err = run_cli(
                [command, *self.INVOCATIONS[command][0], "--epsilon", "1",
                 "--grid-points", "3", "--r-max", "1.5e308", "--out", str(out)], capsys)
        assert code == 2
        assert paths == [] and not out.exists()
        assert "r_max must be at most half the largest float" in err
        assert "got 1.5e+308" in err and "nan" not in err
        assert not caught

    def test_non_finite_r_max_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r_max = inf\n")
        code, paths, err = run_cli(
            ["scan-algebra", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capsys)
        assert code == 2
        assert paths == []
        assert "r_max must be finite and positive, got inf" in err
