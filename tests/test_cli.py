"""End-to-end tests of the command-line interface.

Calls `main` in-process with small budgets so the suite stays fast; the
exit-code contract (0 pass, 1 verification failure, 2 usage) and the
stdout-is-only-paths rule are asserted throughout.
"""
import dataclasses
import json
import math
import warnings
from pathlib import Path

import pytest

from curvlab import cli
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


@pytest.mark.parametrize("argv", [
    # admissible() rejects m outside 1..n-1 before its verdict is read
    ["matrix-inequalities", "--n", "3", "--m", "5"],
    ["diameter", "--n", "4", "--m", "0"],
    # the model radius sqrt(2/lambda) overflows
    ["diameter", "--n", "5", "--m", "3", "--lambda", "1e-320"],
    # the sphere curvature 1/(eps^2 f^2) overflows at the grid ends
    ["curvature-report", "--n", "6", "--m", "2", "--lambda", "1e300",
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
        assert "r = -10.0" in err and "not finite" in err


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
                 "--out", str(out), *FAST[:4]], capsys)
        assert code == 2
        assert paths == [] and not out.exists()
        # --r-max is checked with the configuration, which names its key
        assert flag.lstrip("-").replace("-", "_") in err
        assert "finite and positive" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_r_max_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r_max = inf\n")
        code, paths, err = run_cli(
            ["scan-algebra", "--config", str(cfg), "--out", str(tmp_path / "out")],
            capsys)
        assert code == 2
        assert paths == []
        assert "r_max must be finite and positive, got inf" in err
