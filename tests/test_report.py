"""Unit tests for serialization, config resolution, and seed derivation."""
import json
import math
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.report import (
    MASK64,
    RunConfig,
    VerificationReport,
    canonical_json,
    jsonable,
    splitmix64,
    task_seed,
    write_csv,
    write_json,
)


class TestSeedMixing:
    def test_outputs_fit_in_64_bits(self):
        for x in (0, 1, 2 ** 63, MASK64):
            assert 0 <= splitmix64(x) <= MASK64

    def test_known_avalanche(self):
        # consecutive inputs decorrelate
        a, b = splitmix64(1), splitmix64(2)
        assert bin(a ^ b).count("1") > 16

    @given(st.integers(0, MASK64), st.lists(st.integers(0, 10_000),
                                            min_size=2, max_size=8,
                                            unique=True))
    @settings(max_examples=50, deadline=None)
    def test_distinct_indices_give_distinct_seeds(self, base, indices):
        seeds = [task_seed(base, i) for i in indices]
        assert len(set(seeds)) == len(seeds)

    def test_wraps_at_64_bits(self):
        assert task_seed(MASK64, 1) == task_seed(0, 0)


class TestJsonable:
    def test_scalar_conversions(self):
        assert jsonable(Fraction(3, 4)) == "3/4"
        assert jsonable(np.float64(0.5)) == 0.5
        assert jsonable(np.int32(7)) == 7
        assert jsonable(Path("a/b")) == "a/b"
        assert jsonable({2, 1, 3}) == [1, 2, 3]

    def test_arrays_become_nested_lists(self):
        out = jsonable(np.eye(2))
        assert out == [[1.0, 0.0], [0.0, 1.0]]

    def test_nested_structures(self):
        obj = {"a": [Fraction(1, 2), np.array([1.0])], "b": (None, True)}
        assert jsonable(obj) == {"a": ["1/2", [1.0]], "b": [None, True]}

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            jsonable(object())


class TestCanonicalJson:
    def test_key_order_independence(self):
        a = canonical_json({"x": 1, "y": 2})
        b = canonical_json({"y": 2, "x": 1})
        assert a == b
        assert a.endswith("\n")

    @given(st.dictionaries(st.text(max_size=8),
                           st.one_of(st.integers(-1000, 1000),
                                     st.booleans(),
                                     st.text(max_size=8)),
                           max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_round_trips_through_json(self, obj):
        assert json.loads(canonical_json(obj)) == jsonable(obj)


class TestWriters:
    def test_json_writer_round_trip(self, tmp_path):
        path = write_json(tmp_path / "sub" / "r.json",
                          {"value": Fraction(7, 12), "grid": [1, 2]})
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"value": "7/12", "grid": [1, 2]}

    def test_csv_writer_format(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"],
                         [[0.1, {"k": 1}], [2, [3, 4]]])
        raw = Path(path).read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("0.1,")
        assert json.loads(lines[2].split(",", 1)[1].strip('"')) == [3, 4]


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.seed == 0
        assert cfg.grid_points == 121
        assert cfg.format == "json"

    @pytest.mark.parametrize("field,value", [
        ("seed", -1), ("seed", 1 << 64), ("r_max", 0.0), ("r_max", math.nan),
        ("r_max", math.inf), ("grid_points", 1), ("frame_budget", 0), ("format", "xml"),
    ])
    def test_validation_rejects(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value}).validate()

    def test_from_file(self, tmp_path):
        # every field is a key, parsed with the type of its default
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\n# a comment\nr_max = 4\nformat = csv\n"
                        "grid_points = 5\nframe_budget = 70\noutput_dir = out\n")
        cfg = RunConfig.from_file(path)
        assert cfg == RunConfig(9, 4.0, 5, 70, "out", "csv")
        assert isinstance(cfg.r_max, float)

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(ValueError, match="volume"):
            RunConfig.from_file(path)

    def test_from_file_rejects_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed 9\n")
        with pytest.raises(ValueError, match="key = value"):
            RunConfig.from_file(path)

    def test_resolve_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\ngrid_points = 31\n")
        cfg = RunConfig.resolve(str(path), {"seed": 3}, env={"CURVLAB_SEED": "2"})
        assert cfg.seed == 3          # flag beats env beats file
        assert cfg.grid_points == 31  # file beats default
        cfg = RunConfig.resolve(str(path), {"seed": None},
                                env={"CURVLAB_SEED": "2"})
        assert cfg.seed == 2          # env beats file when no flag
        cfg = RunConfig.resolve(str(path), {}, env={})
        assert cfg.seed == 1

    def test_resolve_rejects_unknown_override(self):
        with pytest.raises(ValueError, match="unknown"):
            RunConfig.resolve(None, {"speed": 3}, env={})


class TestVerificationReport:
    def test_serialization_excludes_timing(self):
        # a report carries no wall-clock field at all
        assert [f.name for f in fields(VerificationReport)] == \
            ["suite", "passed", "witnesses", "config"]
        report = VerificationReport("demo", True, {"worst": 0.5}, RunConfig())
        payload = report.to_json_dict()
        assert set(payload) == {"suite", "pass", "witnesses", "config"}
        assert payload["pass"] is True
        assert payload["config"]["seed"] == 0
        # where a report is written is not part of its contents
        assert set(payload["config"]) == (
            {f.name for f in fields(RunConfig)} - {"output_dir"})

    def test_identical_runs_identical_bytes(self):
        make = lambda: VerificationReport(
            "demo", False, {"vals": np.arange(3.0)}, RunConfig(seed=4))
        assert canonical_json(make().to_json_dict()) == \
            canonical_json(make().to_json_dict())
