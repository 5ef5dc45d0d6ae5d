"""Unit tests for serialization and config resolution."""
import enum
import json
import math
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import report_references

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


class Level(enum.IntEnum):
    LOW = 1


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  1.7e308, -1.7e308, 0.1, 1e16, 1e-7]

# quotes, backslashes, control characters and non-ASCII text
TEXT = st.text(alphabet=st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028é€😀'),
                                  st.characters()), max_size=6)

FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))

# what a report holds, and some things it cannot hold
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), FLOATS, TEXT,
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**31, 2**31 - 1).map(np.int32), st.fractions(),
    st.text(alphabet="ab/", max_size=4).map(Path), st.just(Level.LOW),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                            max_side=3), elements=FLOATS),
    st.lists(st.fractions(), max_size=3).map(lambda xs: np.array(xs, dtype=object)),
    st.sets(st.one_of(st.integers(-3, 3), st.text(max_size=2)), max_size=4),
    st.frozensets(st.floats(allow_nan=False), max_size=4),
    st.sampled_from([object(), 1j, b"x", np.bool_(True), np.complex128(1)]),
)

# keys that collide after str(): 1 and "1", True and "True", ...
KEYS = st.one_of(st.sampled_from([1, "1", True, "True", None, "None", 0.5, "0.5",
                                  Fraction(1, 2), "1/2", "", "a"]),
                 TEXT, st.integers(-3, 3))

PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=3).map(MappingProxyType)),
    max_leaves=16)


def outcome(encode, obj):
    """The text `encode` writes for `obj`, or TypeError where it refuses it."""
    try:
        return encode(obj)
    except TypeError:
        return TypeError


class TestCanonicalJsonMatchesTheReference:
    """The one-walk writer writes what jsonable plus json.dumps writes."""

    @given(PAYLOADS)
    @example(SPECIAL_FLOATS)
    @example([np.float64(x) for x in SPECIAL_FLOATS])
    @example({1: "a", "1": "b", 2: [], "2": {}, (): set()})
    @example({"x": [Fraction(1, 3), np.array([[Fraction(1, 2)]], dtype=object),
                    np.empty((0, 2)), Path("a/b")]})
    @example(np.array(0.0))
    @example(np.array(Fraction(1, 2), dtype=object))
    @example(np.array("ab"))
    @example(['"\\\x00\x1f\u2028é😀'])
    @example({1: object(), "1": 0})
    @settings(max_examples=400, deadline=None)
    def test_same_text_or_same_refusal(self, obj):
        assert outcome(canonical_json, obj) == \
            outcome(report_references.canonical_json, obj)

    @pytest.mark.parametrize("obj", [np.array(0.0), np.array(7),
                                     np.array(Fraction(1, 2), dtype=object)])
    def test_a_zero_dim_array_is_refused(self, obj):
        for encode in (canonical_json, report_references.canonical_json):
            with pytest.raises(TypeError):
                encode(obj)


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
