"""Unit tests for serialization and config resolution."""
import json
import math
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvlab.report import (
    RunConfig,
    VerificationReport,
    canonical_json,
    jsonable,
    write_csv,
    write_json,
)


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
        assert cfg.r_max == 10.0
        assert cfg.grid_points == 121
        assert cfg.format == "json"

    @pytest.mark.parametrize("field,value", [
        ("r_max", 0.0), ("r_max", math.nan), ("r_max", math.inf), ("r_max", 1.5e308),
        ("grid_points", 1), ("format", "xml"),
    ])
    def test_validation_rejects(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value}).validate()

    def test_fields_are_the_settings_a_subcommand_reads(self):
        assert [f.name for f in fields(RunConfig)] == \
            ["r_max", "grid_points", "output_dir", "format"]

    def test_from_file(self, tmp_path):
        # every field is a key, parsed with the type of its default
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\nr_max = 4\nformat = csv\n"
                        "grid_points = 5\noutput_dir = out\n")
        cfg = RunConfig.from_file(path)
        assert cfg == RunConfig(4.0, 5, "out", "csv")
        assert isinstance(cfg.r_max, float)

    def test_from_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("volume = 11\n")
        with pytest.raises(ValueError, match="volume"):
            RunConfig.from_file(path)

    def test_from_file_rejects_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("grid_points 9\n")
        with pytest.raises(ValueError, match="key = value"):
            RunConfig.from_file(path)

    def test_resolve_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid_points = 31\n")
        cfg = RunConfig.resolve(str(path), {"grid_points": 3})
        assert cfg.grid_points == 3   # flag beats file
        assert cfg.r_max == 10.0      # default when neither sets it
        cfg = RunConfig.resolve(str(path), {"grid_points": None})
        assert cfg.grid_points == 31  # an unset flag leaves the file's value

    def test_resolve_rejects_unknown_override(self):
        with pytest.raises(ValueError, match="unknown"):
            RunConfig.resolve(None, {"speed": 3})


class TestVerificationReport:
    def test_serialization_excludes_timing(self):
        # a report carries no wall-clock field at all
        assert [f.name for f in fields(VerificationReport)] == \
            ["suite", "passed", "witnesses", "config"]
        report = VerificationReport("demo", True, {"worst": 0.5}, RunConfig())
        payload = report.to_json_dict()
        assert set(payload) == {"suite", "pass", "witnesses", "config"}
        assert payload["pass"] is True
        assert payload["config"] == {"format": "json", "grid_points": 121, "r_max": 10.0}
        # where a report is written is not part of its contents
        assert set(payload["config"]) == (
            {f.name for f in fields(RunConfig)} - {"output_dir"})

    def test_identical_runs_identical_bytes(self):
        make = lambda: VerificationReport(
            "demo", False, {"vals": np.arange(3.0)}, RunConfig(grid_points=4))
        assert canonical_json(make().to_json_dict()) == \
            canonical_json(make().to_json_dict())
